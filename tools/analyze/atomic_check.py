#!/usr/bin/env python3
"""Atomics publication-protocol checker (DESIGN.md §13).

Classifies every atomic load/store/RMW/fence under ``src/`` against
the role its field declares via the ``HICAMP_ATOMIC_*`` macros in
``src/common/atomic_annotations.hh``, and enforces the per-role
memory-order rules.  TSA proves the lock discipline and
``refcount_check.py`` proves reference ownership; this checker proves
the third leg — that each lock-free protocol uses the orders its role
demands, so a relaxed store where a release was meant is a build-time
finding instead of a TSan coin-flip.

Roles and rules
---------------
publish (``HICAMP_ATOMIC_PUBLISH``)
    The field publishes other data.  Store-side operations (store,
    exchange, RMW, CAS success) must carry release ordering
    [publish-relaxed-store]; relaxed loads are lock-serialized
    re-checks that need a waiver [publish-relaxed-load]; and the
    pairing table must close: a field with a release store needs an
    acquire-side load somewhere in the tree
    [publish-unpaired-release], and vice versa
    [publish-unpaired-acquire].

claim_cas (``HICAMP_ATOMIC_CLAIM_CAS``)
    Ownership claimed by CAS.  Each compare_exchange must use a sane
    order pair: failure no stronger than success
    [claim-cas-failure-exceeds-success] and never release/acq_rel on
    failure [claim-cas-release-on-failure].

counter (``HICAMP_ATOMIC_COUNTER``)
    Statistics.  RMWs and stores must be relaxed
    [counter-nonrelaxed-rmw]; loads must be relaxed
    [counter-nonrelaxed-load] and confined to the declaring module
    (same file stem) or the obs snapshot path (``src/obs/``) — a load
    anywhere else claims a quiescent point and needs a waiver
    [counter-load-outside-snapshot].

seqlock (``HICAMP_ATOMIC_SEQLOCK``)
    Data published through a SeqCount.  All accesses relaxed — the
    sequence word's fences order them [seqlock-nonrelaxed-access];
    loads only inside a retry loop that calls readBegin and
    re-validates [seqlock-load-outside-retry]; stores only inside a
    writeBegin/writeEnd section [seqlock-store-outside-write-section].

epoch (``HICAMP_ATOMIC_EPOCH``)
    §12 epoch words.  Touched only by the declaring module
    [epoch-outside-module] and never with a relaxed success order —
    the stable-pin handshake is seq_cst by design
    [epoch-relaxed-access].  CAS pairs follow the claim_cas sanity
    rules.

flag (``HICAMP_ATOMIC_FLAG``)
    Standalone state word.  All-relaxed use is legal; lock-shaped use
    must pair: test_and_set at least acquire
    [flag-weak-test-and-set], a release-side op requires an
    acquire-side reader [flag-unpaired-release] and vice versa
    [flag-unpaired-acquire].

park (``HICAMP_ATOMIC_PARK``)
    The announcement word of a spin-then-park (Dekker) handshake: the
    sleeper announces, fences, re-checks its queue; the waker
    publishes, fences, checks the word.  Touched only inside
    ``primitive()`` functions [park-outside-primitive].  These rules
    hold inside primitives too, since the fences are the protocol: an
    announce (a non-relaxed store-side op) must be followed directly
    by a seq_cst fence [park-announce-without-fence], and a load
    directly preceded by one [park-check-without-fence] — "directly"
    meaning no other atomic site in between in the same function.
    Relaxed store-side ops (retract, claim) are free.

Everywhere
----------
- An atomic field, parameter or reference declared without a role
  macro is an error [unannotated-atomic-field].
- An operation on an atomic the checker cannot resolve to a declared
  field is an error [unclassified-site] — zero unclassified sites is
  the repo gate.
- A bare ``std::atomic_thread_fence`` is an error [bare-fence]: fences
  belong inside role primitives, with a written justification.

Waivers and primitives
----------------------
``// hicamp-atomic: waive(reason)`` on the flagged line or the
contiguous ``//`` comment run above it suppresses a finding; an empty
reason is itself a finding [waiver-missing-rationale].  A function
that *defines* a protocol rather than using it (SeqCount's methods,
the epoch advance loop) carries ``// hicamp-atomic: primitive(reason)``
above its head: its sites are still classified (and fences still need
waivers) but the per-role rules are skipped.

Engine: token-level by default — the reference engine, since the CI
image has no clang python bindings; uses libclang for exact function
extents when the pinned bindings are importable (shared setup with
refcount-analysis).

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import json
import os
import re
import sys

ROLE_MACROS = {
    "HICAMP_ATOMIC_PUBLISH": "publish",
    "HICAMP_ATOMIC_CLAIM_CAS": "claim_cas",
    "HICAMP_ATOMIC_COUNTER": "counter",
    "HICAMP_ATOMIC_SEQLOCK": "seqlock",
    "HICAMP_ATOMIC_EPOCH": "epoch",
    "HICAMP_ATOMIC_FLAG": "flag",
    "HICAMP_ATOMIC_PARK": "park",
}
ROLE_MACRO_RE = re.compile(r"\b(" + "|".join(ROLE_MACROS) + r")\b")

WAIVER_RE = re.compile(r"hicamp-atomic:\s*waive\(\s*([^)]*?)\s*\)")
PRIMITIVE_RE = re.compile(r"hicamp-atomic:\s*primitive\(\s*([^)]*?)\s*\)")

# Operations that only std::atomic/std::atomic_flag expose: an
# unresolved object here is an unclassified site.
UNAMBIGUOUS_OPS = {
    "load", "store", "exchange", "fetch_add", "fetch_sub", "fetch_and",
    "fetch_or", "fetch_xor", "compare_exchange_weak",
    "compare_exchange_strong", "test_and_set",
}
# Methods shared with containers (vector::clear, bitset::test, ...):
# classified only when the object resolves to a declared atomic.
AMBIGUOUS_OPS = {"test", "clear", "wait", "notify_one", "notify_all"}

OP_RE = re.compile(
    r"(?:\.|->)\s*(" +
    "|".join(sorted(UNAMBIGUOUS_OPS | AMBIGUOUS_OPS)) + r")\s*\(")
FENCE_RE = re.compile(r"\b(?:std::)?atomic_thread_fence\s*\(")
ORDER_RE = re.compile(r"\bmemory_order(?:::|_)([a-z_]+)")

ORDER_RANK = {"relaxed": 0, "consume": 1, "acquire": 2, "release": 2,
              "acq_rel": 3, "seq_cst": 4}
ACQUIRE_SIDE = {"consume", "acquire", "acq_rel", "seq_cst"}
RELEASE_SIDE = {"release", "acq_rel", "seq_cst"}

STORE_OPS = {"store", "exchange", "fetch_add", "fetch_sub", "fetch_and",
             "fetch_or", "fetch_xor", "test_and_set", "clear",
             "compare_exchange_weak", "compare_exchange_strong"}
RMW_OPS = {"exchange", "fetch_add", "fetch_sub", "fetch_and", "fetch_or",
           "fetch_xor", "test_and_set"}
LOAD_OPS = {"load", "test"}
CAS_OPS = {"compare_exchange_weak", "compare_exchange_strong"}

KEYWORDS = {
    "alignas", "auto", "bool", "break", "case", "catch", "char", "class",
    "const", "constexpr", "continue", "decltype", "default", "delete",
    "do", "double", "else", "enum", "explicit", "extern", "false",
    "float", "for", "friend", "goto", "if", "inline", "int", "long",
    "mutable", "namespace", "new", "noexcept", "nullptr", "operator",
    "private", "protected", "public", "return", "short", "signed",
    "sizeof", "static", "struct", "switch", "template", "this",
    "thread_local", "throw", "true", "try", "typedef", "typename",
    "union", "unsigned", "using", "virtual", "void", "volatile",
    "while",
}

# Declarations that *mention* std::atomic without declaring a
# checkable field (type aliases, new-expressions, templates).
DECL_SKIP_RE = re.compile(
    r"\b(?:new|using|typedef|template|sizeof|return|friend)\b")


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line
    structure, so token scans don't match inside them."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " "
                               for ch in text[i:j]))
            i = j
        elif c in "\"'":
            q = c
            j = i + 1
            while j < n and text[j] != q:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(q + " " * (j - i - 2) + (q if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def marker_at(raw_lines, lineno, marker_re):
    """The marker match on the flagged line or in the contiguous run
    of // comment lines directly above it, else None.  The run is
    searched as one joined string so a waiver reason may wrap across
    comment lines, and a flagged line inside a multi-line statement
    first walks up to the statement head (the line after the nearest
    one ending in ';', '{' or '}')."""
    if not (1 <= lineno <= len(raw_lines)):
        return None
    m = marker_re.search(raw_lines[lineno - 1])
    if m:
        return m
    # Walk to the head of the statement the flagged line belongs to.
    head = lineno
    while head > 1:
        above = raw_lines[head - 2].strip()
        if above == "" or above.startswith("//") or \
                above.endswith((";", "{", "}")):
            break
        head -= 1
    # Collect the contiguous comment run above the head, then search
    # the joined text so multi-line reasons match.
    run = []
    ln = head - 1
    while 1 <= ln <= len(raw_lines) and \
            raw_lines[ln - 1].lstrip().startswith("//"):
        run.append(raw_lines[ln - 1].lstrip().lstrip("/").strip())
        ln -= 1
    run.reverse()
    return marker_re.search(" ".join(run)) if run else None


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def key(self):
        return (self.path, self.line, self.rule)

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class Site:
    """One classified atomic operation (or fence)."""

    def __init__(self, path, rel, line, op, field, role, orders,
                 offset=0, fn=None):
        self.path = path
        self.rel = rel
        self.line = line
        self.op = op
        self.field = field
        self.role = role
        self.orders = orders
        self.offset = offset
        self.fn = fn  # enclosing Function, None at file scope
        self.verdict = "ok"  # ok | waived | <rule>

    def is_seq_cst_fence(self):
        return self.op == "atomic_thread_fence" and \
            "seq_cst" in self.orders

    def to_json(self):
        return {"file": self.rel, "line": self.line, "op": self.op,
                "field": self.field, "role": self.role,
                "orders": self.orders, "verdict": self.verdict}


class KB:
    """Field name -> (role, declaring rel path, line).  Names are the
    unit of classification (the checker is token-level), so a name
    must not be declared under two different roles."""

    def __init__(self):
        self.fields = {}
        self.stems = {}

    def add(self, name, role, rel, line, findings):
        prev = self.fields.get(name)
        if prev and prev[0] != role:
            findings.append(Finding(
                rel, line, "ambiguous-role",
                f"atomic field '{name}' already declared as "
                f"{prev[0]} at {prev[1]}:{prev[2]}; one name, one "
                "role — rename the field"))
            return
        if not prev:
            self.fields[name] = (role, rel, line)
        # The same name may be declared in several files (a shared
        # parameter name, a header/impl pair); any declaring stem
        # counts as the field's home module.
        self.stems.setdefault(name, set()).add(
            os.path.splitext(os.path.basename(rel))[0])

    def role(self, name):
        e = self.fields.get(name)
        return e[0] if e else None

    def decl(self, name):
        return self.fields.get(name)

    def decl_stems(self, name):
        return self.stems.get(name, set())


def balanced_span(code, open_paren):
    """Index one past the close paren matching code[open_paren]."""
    d = 0
    for j in range(open_paren, len(code)):
        if code[j] == "(":
            d += 1
        elif code[j] == ")":
            d -= 1
            if d == 0:
                return j + 1
    return None


def split_top_commas(text):
    parts, depth, start = [], 0, 0
    for i, c in enumerate(text):
        if c in "([{<":
            depth += 1
        elif c in ")]}>":
            depth -= 1
        elif c == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def line_of_offset(text, off):
    return text.count("\n", 0, off) + 1


# ---------------------------------------------------------------------------
# Declaration harvesting


def declared_name(decl):
    """The declarator name of a declaration fragment: the last
    depth-0 identifier that is not a type/macro/keyword.  ``decl``
    runs from just after the role macro to the initializer/terminator
    (callers truncate at top-level ``=``, ``{``, ``,`` or ``;``)."""
    depth = 0
    last = None
    for m in re.finditer(r"[A-Za-z_]\w*|[<>()\[\]]", decl):
        tok = m.group(0)
        if tok in "<([":
            depth += 1
        elif tok in ">)]":
            depth -= 1
        elif depth == 0 and tok[0].isalpha() or tok[0] == "_":
            if tok in KEYWORDS or depth != 0:
                continue
            rest = decl[m.end():m.end() + 2].lstrip()
            if rest.startswith(("(", "<")) or rest.startswith("::"):
                continue  # macro call / template name / qualifier
            last = tok
    return last


def decl_fragment(code, start):
    """Declaration text from ``start`` to the first top-level
    terminator: ``;``, ``=``, ``{``, ``,`` or an unbalanced ``)``."""
    depth = 0
    for j in range(start, min(start + 2000, len(code))):
        c = code[j]
        if c in "(<[":
            depth += 1
        elif c in ">]":
            depth -= 1
        elif c == ")":
            depth -= 1
            if depth < 0:
                return code[start:j]
        elif depth == 0 and c in ";={,":
            return code[start:j]
    return code[start:start + 2000]


def preproc_lines(code):
    """Line numbers of preprocessor directives (the role macros'
    own #define lines must not harvest as fields)."""
    out = set()
    for i, ln in enumerate(code.split("\n"), 1):
        if ln.lstrip().startswith("#"):
            out.add(i)
    return out


def harvest_roles(code, rel, kb, findings):
    """Record every role-annotated declaration in ``code``."""
    skip = preproc_lines(code)
    for m in ROLE_MACRO_RE.finditer(code):
        if line_of_offset(code, m.start()) in skip:
            continue
        role = ROLE_MACROS[m.group(1)]
        frag = decl_fragment(code, m.end())
        name = declared_name(frag)
        line = line_of_offset(code, m.start())
        if not name:
            findings.append(Finding(
                rel, line, "annotation-without-field",
                f"{m.group(1)} is not followed by a parsable "
                "declaration"))
            continue
        kb.add(name, role, rel, line, findings)


def check_unannotated(code, raw_lines, rel, kb, findings):
    """Flag atomic declarations whose name carries no role."""
    seen = set()
    skip = preproc_lines(code)
    for m in re.finditer(r"\bstd::atomic(?:<|_flag\b|_bool\b)", code):
        if line_of_offset(code, m.start()) in skip:
            continue
        # Statement context: scan back to the previous separator; the
        # role macro, if any, sits between it and the type.
        j = m.start()
        k = j
        while k > 0 and code[k - 1] not in ";{}(),:":
            k -= 1
        ctx = code[k:j]
        if ROLE_MACRO_RE.search(ctx):
            continue
        if DECL_SKIP_RE.search(ctx) or DECL_SKIP_RE.search(
                code[j:j + 40]):
            continue
        frag = decl_fragment(code, k)
        name = declared_name(frag)
        if not name or name in kb.fields:
            # out-of-class definitions and later mentions of an
            # already-annotated field are covered by the declaration
            continue
        line = line_of_offset(code, m.start())
        if (name, line) in seen:
            continue
        seen.add((name, line))
        wm = marker_at(raw_lines, line, WAIVER_RE)
        if wm is not None:
            if not wm.group(1):
                findings.append(Finding(
                    rel, line, "waiver-missing-rationale",
                    "waive() with no reason; say why this atomic "
                    "needs no role"))
            continue
        findings.append(Finding(
            rel, line, "unannotated-atomic-field",
            f"atomic '{name}' declared without a HICAMP_ATOMIC_* "
            "role; pick one (atomic_annotations.hh) or waive with "
            "// hicamp-atomic: waive(reason)"))
        kb.fields.setdefault(name, (None, rel, line))


# ---------------------------------------------------------------------------
# Function extraction (token engine; optional libclang extents)


QUALIFIER_TAIL_RE = re.compile(r"^[\s\w]*$")
CLASSY_RE = re.compile(r"\b(?:struct|class|enum|union|namespace)\b")


def functions_tokens(code):
    """Yield (head_line, body_line, end_line, head, body) for every
    function definition: a ``{`` whose head since the previous
    top-level separator contains a parameter list and, after its last
    ``)``, only qualifier words (const, noexcept, macros...)."""
    out = []
    i, n = 0, len(code)
    line = 1
    head_start = 0
    head_line = 1
    while i < n:
        c = code[i]
        if c == "\n":
            line += 1
        elif c == "{":
            head = code[head_start:i]
            rp = head.rfind(")")
            is_fn = (rp >= 0 and "(" in head and
                     QUALIFIER_TAIL_RE.match(head[rp + 1:]) and
                     not CLASSY_RE.search(head))
            if is_fn:
                j, d, l2 = i + 1, 1, line
                while j < n and d:
                    if code[j] == "\n":
                        l2 += 1
                    elif code[j] == "{":
                        d += 1
                    elif code[j] == "}":
                        d -= 1
                    j += 1
                out.append((head_line, line, l2, head,
                            code[i + 1:j - 1]))
                line = l2
                i = j
                head_start = i
                head_line = line
                continue
            head_start = i + 1
            head_line = line
        elif c in ";}":
            head_start = i + 1
            head_line = line
        i += 1
    # adjust head_line past leading blank lines of each head
    fixed = []
    for head_line, body_line, end_line, head, body in out:
        lead = 0
        for hl in head.split("\n"):
            if hl.strip():
                break
            lead += 1
        fixed.append((head_line + lead, body_line, end_line, head,
                      body))
    return fixed


def functions_libclang(path, code):
    """Exact extents via libclang when the bindings exist; None (token
    fallback) otherwise."""
    try:
        from clang import cindex  # type: ignore
    except Exception:
        return None
    try:
        tu = cindex.Index.create().parse(
            path, args=["-std=c++20", "-Isrc"])
        lines = code.splitlines()
        out = []
        for cur in tu.cursor.walk_preorder():
            if cur.kind in (cindex.CursorKind.FUNCTION_DECL,
                            cindex.CursorKind.CXX_METHOD,
                            cindex.CursorKind.FUNCTION_TEMPLATE,
                            cindex.CursorKind.CONSTRUCTOR) \
                    and cur.is_definition() \
                    and cur.location.file \
                    and cur.location.file.name == path:
                lo, hi = cur.extent.start.line, cur.extent.end.line
                text = "\n".join(lines[lo - 1:hi])
                brace = text.find("{")
                if brace < 0:
                    continue
                out.append((lo, lo + text.count("\n", 0, brace), hi,
                            text[:brace], text[brace + 1:]))
        return out or None
    except Exception:
        return None


class Function:
    def __init__(self, head_line, body_line, end_line, head, body,
                 raw_lines):
        self.head_line = head_line
        self.end_line = end_line
        self.head = head
        self.body = body
        self.text = head + body
        # The head span can start at the previous statement boundary
        # (swallowing the comment run); the body-open line walks back
        # up through the declarator to the comments either way.
        pm = marker_at(raw_lines, head_line, PRIMITIVE_RE) or \
            marker_at(raw_lines, body_line, PRIMITIVE_RE)
        self.primitive = pm is not None
        self.primitive_reason = pm.group(1) if pm else ""
        self.aliases = self._aliases(head + body)

    @staticmethod
    def _aliases(text):
        """Reference bindings that alias an atomic field: range-for
        element refs and plain reference declarations."""
        out = {}
        for m in re.finditer(
                r"for\s*\(\s*[\w:<>\s]*?&\s*(\w+)\s*:\s*"
                r"([A-Za-z_]\w*)", text):
            out[m.group(1)] = m.group(2)
        for m in re.finditer(
                r"&\s*(\w+)\s*=\s*([^;,()]+?)\s*[;,)]", text):
            tgt = object_of_expr(m.group(2))
            if tgt:
                out[m.group(1)] = tgt
        return out


def object_of_expr(expr):
    """Last member-ish identifier of an expression, indexing
    stripped: ``locks_[i].flag`` -> flag, ``state_->recs[i]`` ->
    recs, ``refs_`` -> refs_."""
    expr = expr.strip()
    j = len(expr)
    while j > 0 and expr[j - 1].isspace():
        j -= 1
    if j > 0 and expr[j - 1] == "]":
        d = 0
        while j > 0:
            j -= 1
            if expr[j] == "]":
                d += 1
            elif expr[j] == "[":
                d -= 1
                if d == 0:
                    break
        while j > 0 and expr[j - 1].isspace():
            j -= 1
    k = j
    while k > 0 and (expr[k - 1].isalnum() or expr[k - 1] == "_"):
        k -= 1
    name = expr[k:j]
    return name if name and not name[0].isdigit() else None


def object_before(code, off):
    """The object component immediately left of the ``.``/``->`` at
    ``off`` (offset of the '.' or the '-' of '->')."""
    j = off
    while j > 0 and code[j - 1].isspace():
        j -= 1
    return object_of_expr(code[max(0, j - 200):j])


# ---------------------------------------------------------------------------
# Site collection and per-role rules


def parse_orders(op, args):
    """Memory orders of one call.  Returns (orders, success, failure)
    — success/failure meaningful for CAS only; defaults applied."""
    parts = split_top_commas(args) if args.strip() else []
    orders = ORDER_RE.findall(args)
    if op in CAS_OPS:
        if len(parts) >= 4:
            succ = (ORDER_RE.search(parts[2]) or [None]) and \
                (ORDER_RE.search(parts[2]).group(1)
                 if ORDER_RE.search(parts[2]) else None)
            fail = (ORDER_RE.search(parts[3]).group(1)
                    if ORDER_RE.search(parts[3]) else None)
            return orders, succ or "seq_cst", fail or "seq_cst"
        if len(parts) == 3:
            succ = (ORDER_RE.search(parts[2]).group(1)
                    if ORDER_RE.search(parts[2]) else "seq_cst")
            derived = {"acq_rel": "acquire", "release": "relaxed"}
            return orders, succ, derived.get(succ, succ)
        return orders, "seq_cst", "seq_cst"
    order = orders[0] if orders else "seq_cst"
    return orders, order, None


def find_enclosing(functions, line):
    for fn in functions:
        if fn.head_line <= line <= fn.end_line:
            return fn
    return None


LOOP_RE = re.compile(r"\b(?:for|while|do)\b")


class Checker:
    def __init__(self, kb, findings):
        self.kb = kb
        self.findings = findings
        self.sites = []
        self.waived = 0
        # per-field pairing table: field -> {"rel": [sites],
        # "acq": [sites]} for publish/flag pairing closure
        self.pairing = {}

    # -- helpers

    def _waive(self, raw_lines, rel, line, site, rule, message):
        """Emit a finding unless a reasoned waiver covers the line."""
        wm = marker_at(raw_lines, line, WAIVER_RE)
        if wm is not None:
            if not wm.group(1):
                self.findings.append(Finding(
                    rel, line, "waiver-missing-rationale",
                    "waive() with no reason; write down why this "
                    "order is sound"))
                if site:
                    site.verdict = "waiver-missing-rationale"
            else:
                self.waived += 1
                if site:
                    site.verdict = "waived"
            return
        self.findings.append(Finding(rel, line, rule, message))
        if site:
            site.verdict = rule

    def _note_pairing(self, site, succ):
        e = self.pairing.setdefault(site.field, {"rel": [], "acq": []})
        op = site.op
        if op in STORE_OPS and (succ in RELEASE_SIDE):
            e["rel"].append(site)
        if op in LOAD_OPS and succ in ACQUIRE_SIDE:
            e["acq"].append(site)
        if op in RMW_OPS | CAS_OPS and succ in ACQUIRE_SIDE:
            e["acq"].append(site)

    # -- per-file pass

    def check_file(self, path, rel, raw, code):
        raw_lines = raw.splitlines()
        functions = functions_libclang(path, code) or \
            functions_tokens(code)
        functions = [Function(*f, raw_lines) for f in functions]

        file_sites = []
        park_sites = []
        for m in FENCE_RE.finditer(code):
            line = line_of_offset(code, m.start())
            args = code[m.end():balanced_span(code, m.end() - 1) or
                        m.end()]
            orders = ORDER_RE.findall(args)
            site = Site(path, rel, line, "atomic_thread_fence",
                        None, "fence", orders, m.start(),
                        find_enclosing(functions, line))
            self.sites.append(site)
            file_sites.append(site)
            self._waive(raw_lines, rel, line, site, "bare-fence",
                        "bare atomic_thread_fence; fences belong to "
                        "role primitives — justify with "
                        "// hicamp-atomic: waive(reason)")

        for m in OP_RE.finditer(code):
            op = m.group(1)
            line = line_of_offset(code, m.start())
            fn = find_enclosing(functions, line)
            obj = object_before(code, m.start())
            # resolve aliases first (range-for refs, reference
            # bindings): a local alias shadows any same-named field
            hops = 0
            while obj is not None and fn and obj in fn.aliases and \
                    hops < 4:
                obj = fn.aliases[obj]
                hops += 1
            role = self.kb.role(obj) if obj else None
            span = balanced_span(code, m.end() - 1)
            args = code[m.end():span - 1] if span else ""
            orders, succ, fail = parse_orders(op, args)

            # Domain methods shadow the atomic vocabulary
            # (Memory::store(), IteratorRegister::load(vsid, field)):
            # an atomic store always takes a value, and any explicit
            # order argument must be a memory_order token.
            if role is None:
                if op == "store" and not args.strip():
                    continue
                if op in ("load", "store", "exchange") and \
                        args.strip() and not orders:
                    continue

            if role is None:
                if obj in self.kb.fields:
                    continue  # unannotated decl already reported
                if op in AMBIGUOUS_OPS:
                    continue  # vector::clear etc.
                site = Site(path, rel, line, op, obj, None, orders)
                self.sites.append(site)
                self._waive(
                    raw_lines, rel, line, site, "unclassified-site",
                    f"cannot resolve '{obj}.{op}(...)' to a "
                    "role-annotated atomic field; annotate the "
                    "declaration or waive with rationale")
                continue

            site = Site(path, rel, line, op, obj, role, orders,
                        m.start(), fn)
            self.sites.append(site)
            file_sites.append(site)
            self._note_pairing(site, succ)
            if fn and fn.primitive and not fn.primitive_reason:
                self.findings.append(Finding(
                    rel, line, "primitive-missing-rationale",
                    "primitive() with no reason"))
            if role == "park":
                park_sites.append((site, succ))
                continue
            if fn and fn.primitive:
                continue
            getattr(self, "rule_" + role)(
                raw_lines, rel, line, site, op, succ, fail, fn)

        # Park rules look at each site's neighbours, so they run once
        # every site of the file is known.
        file_sites.sort(key=lambda s: s.offset)
        for site, succ in park_sites:
            self.rule_park(raw_lines, rel, site, succ, file_sites)

        return functions

    # -- role rules

    def _cas_sanity(self, raw_lines, rel, line, site, succ, fail):
        if fail in ("release", "acq_rel"):
            self._waive(raw_lines, rel, line, site,
                        "claim-cas-release-on-failure",
                        f"CAS failure order {fail} releases nothing "
                        "(no store happened); use relaxed/acquire")
        elif ORDER_RANK.get(fail, 4) > ORDER_RANK.get(succ, 4):
            self._waive(raw_lines, rel, line, site,
                        "claim-cas-failure-exceeds-success",
                        f"CAS failure order {fail} is stronger than "
                        f"success order {succ}")

    def rule_publish(self, raw_lines, rel, line, site, op, succ, fail,
                     fn):
        if op in CAS_OPS:
            self._cas_sanity(raw_lines, rel, line, site, succ, fail)
        if op in STORE_OPS and succ not in RELEASE_SIDE:
            self._waive(raw_lines, rel, line, site,
                        "publish-relaxed-store",
                        f"{succ} {op} on publish field "
                        f"'{site.field}'; publication requires a "
                        "release store (or prove serialization and "
                        "waive)")
        elif op in LOAD_OPS and succ == "relaxed":
            self._waive(raw_lines, rel, line, site,
                        "publish-relaxed-load",
                        f"relaxed load of publish field "
                        f"'{site.field}'; lock-free readers need "
                        "acquire — if a lock serializes this "
                        "re-check, waive with the lock's name")

    def rule_claim_cas(self, raw_lines, rel, line, site, op, succ,
                       fail, fn):
        if op in CAS_OPS:
            self._cas_sanity(raw_lines, rel, line, site, succ, fail)

    def rule_counter(self, raw_lines, rel, line, site, op, succ, fail,
                     fn):
        if op in CAS_OPS:
            self._cas_sanity(raw_lines, rel, line, site, succ, fail)
        if op in STORE_OPS and succ != "relaxed":
            self._waive(raw_lines, rel, line, site,
                        "counter-nonrelaxed-rmw",
                        f"{succ} {op} on counter '{site.field}'; "
                        "counters are relaxed-only — a stronger "
                        "order advertises synchronization that "
                        "does not exist")
            return
        if op in LOAD_OPS:
            if succ != "relaxed":
                self._waive(raw_lines, rel, line, site,
                            "counter-nonrelaxed-load",
                            f"{succ} load of counter "
                            f"'{site.field}'; counters are "
                            "relaxed-only")
                return
            decl = self.kb.decl(site.field)
            stem = os.path.splitext(os.path.basename(rel))[0]
            if stem not in self.kb.decl_stems(site.field) and \
                    "src/obs/" not in rel.replace(os.sep, "/"):
                self._waive(
                    raw_lines, rel, line, site,
                    "counter-load-outside-snapshot",
                    f"counter '{site.field}' read outside its "
                    f"declaring module ({decl[1] if decl else '?'}) "
                    "and the obs snapshot path; document the "
                    "quiescent point with a waiver")

    def rule_seqlock(self, raw_lines, rel, line, site, op, succ, fail,
                     fn):
        if succ != "relaxed":
            self._waive(raw_lines, rel, line, site,
                        "seqlock-nonrelaxed-access",
                        f"{succ} {op} on seqlock field "
                        f"'{site.field}'; the SeqCount fences carry "
                        "the ordering — use relaxed")
            return
        text = fn.text if fn else ""
        if op in LOAD_OPS:
            reader_ok = ("readBegin" in text and "validate" in text
                         and LOOP_RE.search(text))
            writer_ok = "writeBegin" in text
            if not (reader_ok or writer_ok):
                self._waive(raw_lines, rel, line, site,
                            "seqlock-load-outside-retry",
                            f"load of seqlock field '{site.field}' "
                            "outside a readBegin/validate retry "
                            "loop; a torn read here is silent")
        elif op in STORE_OPS:
            if not ("writeBegin" in text and "writeEnd" in text):
                self._waive(raw_lines, rel, line, site,
                            "seqlock-store-outside-write-section",
                            f"store to seqlock field '{site.field}' "
                            "outside a writeBegin/writeEnd section")

    def rule_epoch(self, raw_lines, rel, line, site, op, succ, fail,
                   fn):
        decl = self.kb.decl(site.field)
        stem = os.path.splitext(os.path.basename(rel))[0]
        if stem not in self.kb.decl_stems(site.field):
            self._waive(raw_lines, rel, line, site,
                        "epoch-outside-module",
                        f"epoch word '{site.field}' touched outside "
                        f"its module ({decl[1] if decl else '?'}); "
                        "the §12 pin protocol lives there only")
            return
        if op in CAS_OPS:
            self._cas_sanity(raw_lines, rel, line, site, succ, fail)
        if succ == "relaxed":
            self._waive(raw_lines, rel, line, site,
                        "epoch-relaxed-access",
                        f"relaxed {op} on epoch word "
                        f"'{site.field}'; the §12 stable-pin "
                        "handshake needs seq_cst/acquire/release "
                        "orders")

    def rule_flag(self, raw_lines, rel, line, site, op, succ, fail,
                  fn):
        if op in CAS_OPS:
            self._cas_sanity(raw_lines, rel, line, site, succ, fail)
        if op == "test_and_set" and succ not in ACQUIRE_SIDE:
            self._waive(raw_lines, rel, line, site,
                        "flag-weak-test-and-set",
                        f"{succ} test_and_set on '{site.field}'; a "
                        "lock-shaped claim needs at least acquire")

    def rule_park(self, raw_lines, rel, site, succ, file_sites):
        fn = site.fn
        if fn is None or not fn.primitive:
            self._waive(raw_lines, rel, site.line, site,
                        "park-outside-primitive",
                        f"park word '{site.field}' touched outside a "
                        "primitive(); keep the announce/fence/re-check "
                        "handshake in its protocol functions")
            return
        same = [s for s in file_sites if s.fn is fn]
        i = same.index(site)
        if site.op in STORE_OPS and succ != "relaxed":
            nxt = same[i + 1] if i + 1 < len(same) else None
            if nxt is None or not nxt.is_seq_cst_fence():
                self._waive(raw_lines, rel, site.line, site,
                            "park-announce-without-fence",
                            f"{succ} {site.op} announces on park word "
                            f"'{site.field}' with no seq_cst fence "
                            "directly after it; the re-check can then "
                            "miss a push whose waker missed the "
                            "announce — a lost wakeup")
        elif site.op in LOAD_OPS:
            prv = same[i - 1] if i > 0 else None
            if prv is None or not prv.is_seq_cst_fence():
                self._waive(raw_lines, rel, site.line, site,
                            "park-check-without-fence",
                            f"load of park word '{site.field}' with no "
                            "seq_cst fence directly before it; the "
                            "check can miss an announce whose re-check "
                            "missed the push — a lost wakeup")

    # -- cross-site pairing closure

    def close_pairing(self, raw_by_rel):
        for field, e in sorted(self.pairing.items()):
            role = self.kb.role(field)
            if role not in ("publish", "flag"):
                continue
            if e["rel"] and not e["acq"]:
                s = e["rel"][0]
                self._waive(
                    raw_by_rel[s.rel], s.rel, s.line, s,
                    "publish-unpaired-release" if role == "publish"
                    else "flag-unpaired-release",
                    f"release store to '{field}' has no acquire-side "
                    "reader anywhere in the tree; either the release "
                    "is dead weight or a reader is missing its "
                    "acquire")
            if e["acq"] and not e["rel"] and role == "publish":
                s = e["acq"][0]
                self._waive(
                    raw_by_rel[s.rel], s.rel, s.line, s,
                    "publish-unpaired-acquire",
                    f"acquire load of '{field}' pairs with no "
                    "release store anywhere in the tree")
            if e["acq"] and not e["rel"] and role == "flag" and any(
                    s.op == "test_and_set" for s in e["acq"]):
                s = e["acq"][0]
                self._waive(
                    raw_by_rel[s.rel], s.rel, s.line, s,
                    "flag-unpaired-acquire",
                    f"acquire-side claim of '{field}' pairs with no "
                    "release-side op anywhere in the tree")


# ---------------------------------------------------------------------------
# Driver


def default_targets(root):
    targets = []
    src = os.path.join(root, "src")
    for dirpath, _, files in os.walk(src):
        for f in sorted(files):
            if f.endswith((".hh", ".cc")):
                targets.append(os.path.join(dirpath, f))
    return targets


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="HICAMP atomics publication-protocol checker "
                    "(DESIGN.md §13)")
    ap.add_argument("files", nargs="*",
                    help="files to check (default: src/ under --root)")
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
        help="repository root")
    ap.add_argument("--no-harvest", action="store_true",
                    help="skip harvesting roles from src/ (hermetic "
                         "fixture runs: only the checked files feed "
                         "the KB)")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="write the site-classification report here")
    args = ap.parse_args(argv)

    root = os.path.abspath(args.root)
    files = [os.path.abspath(f) for f in args.files] or \
        default_targets(root)

    findings = []
    kb = KB()

    def relpath(p):
        rp = os.path.relpath(p, root)
        return rp.replace(os.sep, "/") if not rp.startswith("..") \
            else p

    # Pass 1: roles from src/ (unless hermetic) plus the checked files
    harvest_files = [] if args.no_harvest else default_targets(root)
    texts = {}
    for path in dict.fromkeys(harvest_files + files):
        if not os.path.isfile(path):
            print(f"atomic_check: no such file: {path}",
                  file=sys.stderr)
            return 2
        raw = open(path, encoding="utf-8").read()
        texts[path] = (raw, strip_comments_and_strings(raw))
    for path in dict.fromkeys(harvest_files + files):
        harvest_roles(texts[path][1], relpath(path), kb, findings)

    # Pass 2: declarations without roles, then every site
    checker = Checker(kb, findings)
    raw_by_rel = {}
    for path in files:
        raw, code = texts[path]
        rel = relpath(path)
        raw_by_rel[rel] = raw.splitlines()
        check_unannotated(code, raw_by_rel[rel], rel, kb, findings)
    for path in files:
        raw, code = texts[path]
        checker.check_file(path, relpath(path), raw, code)
    checker.close_pairing(raw_by_rel)

    uniq = {}
    for f in findings:
        uniq.setdefault(f.key(), f)
    findings = sorted(uniq.values(), key=lambda f: (f.path, f.line,
                                                    f.rule))
    for f in findings:
        print(f)

    if args.json:
        classified = sum(1 for s in checker.sites
                         if s.role not in (None,))
        report = {
            "root": root,
            "files": len(files),
            "fields": {n: {"role": r[0], "file": r[1], "line": r[2]}
                       for n, r in sorted(kb.fields.items())},
            "sites": [s.to_json() for s in checker.sites],
            "summary": {
                "sites": len(checker.sites),
                "classified": classified,
                "unclassified": len(checker.sites) - classified,
                "waived": checker.waived,
                "findings": len(findings),
            },
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)

    print(f"atomic_check: {len(findings)} finding(s) in "
          f"{len(files)} file(s); {len(checker.sites)} site(s), "
          f"{len(kb.fields)} field(s), {checker.waived} waived")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
