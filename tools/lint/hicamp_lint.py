#!/usr/bin/env python3
"""HICAMP-specific lint: the concurrency-protocol rules clang's
Thread Safety Analysis cannot express (ISSUE: capability-checked
concurrency; DESIGN.md §8).

Rules
-----
retain-balance
    A function body that acquires line references (``retain(``,
    ``tryRetain(``, ``incRefIfLive(``, ``incRef(``, ``addRef(``) must
    either contain a matching release primitive (``release``,
    ``decRef``, ``releaseSnapshot``, ``releaseSeg``, ``retire``,
    ``freeLine``) or transfer ownership out (a value-returning
    ``return`` — the repo-wide convention is that returned
    Entry/Plid/SegDesc values own their references).  A body that
    acquires, never releases and returns nothing is a leak on every
    path; that is what this rule flags, function granularity being the
    deliberate over-approximation a token-level pass can check
    deterministically.  Waive a site with
    ``// hicamp-lint: retain-ok(<reason>)`` on the call's line or the
    line above.  Bodies built on the RAII ownership layer (``PlidRef``
    / ``EntryRef`` / ``OwnedEntries``, DESIGN.md §10) are skipped:
    the path-sensitive checker ``tools/analyze/refcount_check.py``
    owns those, and reporting them here twice would force double
    waivers.

assert-side-effect
    ``HICAMP_DEBUG_ASSERT`` is compiled out of release builds, so any
    side effect inside its condition changes behavior between build
    types.  Flags ``++``/``--``, plain assignment, and calls to known
    mutating members (``store``, ``fetch_add``, ``push_back``,
    ``erase``, ...) inside the macro's argument list.

relaxed-control
    A ``std::memory_order_relaxed`` load inside an ``if``/``while``
    condition is only sound when some outer serialization or an
    immutability contract backs it.  The files whose every such read
    is lock-serialized or reads immutable-after-publication fields are
    blessed below; everywhere else the pattern needs
    ``// hicamp-lint: relaxed-ok(<reason>)`` on the line or the line
    above.

stat-registry
    Every ``Counter``/``AtomicCounter``/``ShardedCounter`` member
    declared outside ``src/obs/`` (and the primitives' own home,
    ``src/common/stats.hh``) must be reachable through the metrics
    registry: the declaring file references ``MetricsRegistry``,
    ``registerMetrics`` or ``addCounter`` in code, or the declaration
    carries ``// hicamp-lint: stat-ok(<reason>)`` on the line, in the
    comment run above it, or above the first declaration of its
    contiguous declaration block (one waiver covers the group).
    Unregistered counters are invisible to metrics dumps and to the
    phase snapshot/delta discipline — exactly how the pre-registry
    stats plumbing rotted.

epoch-guard
    No lock acquisition inside an epoch-pinned read section
    (DESIGN.md §12): constructing a ``StripeExclusive``,
    ``StripeShared`` or ``CapLockGuard`` lexically inside the scope of
    a live ``EpochGuard`` is flagged.  Read sections must be lock-free
    — a stripe taken under a pin could wait on a writer whose limbo
    flush needs the grace period to expire, and the declared rank
    order (stripe < epoch) forbids the inversion.  TSA enforces this
    on capability-annotated paths; this rule covers the files and
    template bodies the analysis cannot see.  Leaf-rank guards
    (spinlocks, seqlocks) are legal under a pin and stay silent.
    Waive with ``// hicamp-lint: epoch-guard-ok(<reason>)`` on the
    line or the line above.

lock-order
    The ``ACQUIRED_AFTER`` chain declared on the LockRank anchors in
    ``src/common/thread_annotations.hh`` must match the machine-
    readable order declared in DESIGN.md
    (``<!-- hicamp-lock-order: a < b < c -->``), and every rank must
    actually be co-acquired by at least one guard in ``src/``.

Engine: token-level by default; uses libclang for exact function
extents when the ``clang`` python bindings are importable (they are
not baked into the CI image, so the token engine is the reference).

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import os
import re
import sys

# Role-annotated atomic fields (DESIGN.md §13) belong to the
# path-aware tools/analyze/atomic_check.py, not this rule: that
# checker classifies every access against the field's declared
# HICAMP_ATOMIC_* role, so a relaxed load of an annotated field is
# either legal there (counter/seqlock roles) or flagged there with a
# role-specific message.  Same handoff pattern as retain-balance ->
# refcount_check.  The harvest below collects the annotated names
# once per run; an un-annotated atomic in a condition is still ours.
ATOMIC_ROLE_DECL_RE = re.compile(
    r"\bHICAMP_ATOMIC_(?:PUBLISH|CLAIM_CAS|COUNTER|SEQLOCK|EPOCH|"
    r"FLAG|PARK)\b[^;{}]*?(\w+)\s*[;={[(]")

_ATOMIC_ROLE_NAMES = None


def atomic_role_names(root):
    """Field names carrying a HICAMP_ATOMIC_* role under src/."""
    global _ATOMIC_ROLE_NAMES
    if _ATOMIC_ROLE_NAMES is None:
        names = set()
        src = os.path.join(root, "src")
        if os.path.isdir(src):
            for dirpath, _, files in os.walk(src):
                for f in sorted(files):
                    if not f.endswith((".hh", ".cc")):
                        continue
                    text = open(os.path.join(dirpath, f),
                                encoding="utf-8").read()
                    stripped = strip_comments_and_strings(text)
                    for m in ATOMIC_ROLE_DECL_RE.finditer(stripped):
                        names.add(m.group(1))
        _ATOMIC_ROLE_NAMES = names
    return _ATOMIC_ROLE_NAMES

ACQUIRE_RE = re.compile(
    r"\b(?:retain|tryRetain|incRefIfLive|incRef|addRef)\s*\(")
RELEASE_RE = re.compile(
    r"\b(?:release|releaseSeg|releaseSnapshot|releaseAll|decRef|"
    r"retire|freeLine)\s*\(")
VALUE_RETURN_RE = re.compile(r"\breturn\s+[^;]")
RETAIN_WAIVER_RE = re.compile(r"hicamp-lint:\s*retain-ok\(")
# RAII ownership vocabulary (DESIGN.md §10): bodies using it belong to
# the path-sensitive tools/analyze/refcount_check.py, not this rule.
RAII_VOCAB_RE = re.compile(
    r"\b(?:PlidRef|EntryRef|OwnedEntries)\b")
RELAXED_WAIVER_RE = re.compile(r"hicamp-lint:\s*relaxed-ok\(")
RELAXED_LOAD_RE = re.compile(
    r"\.\s*(?:load|test)\s*\(\s*std::memory_order_relaxed\s*\)")
CONTROL_HEAD_RE = re.compile(r"\b(?:if|while)\s*\($")

MUTATOR_CALL_RE = re.compile(
    r"\.\s*(?:store|exchange|compare_exchange_\w+|fetch_add|fetch_sub|"
    r"fetch_or|fetch_and|push_back|pop_back|emplace\w*|insert|erase|"
    r"clear|reset|release|swap)\s*\(")
INC_DEC_RE = re.compile(r"\+\+|--")

EPOCH_GUARD_DECL_RE = re.compile(r"\bEpochGuard\s+\w+\s*[({]")
EPOCH_LOCK_CTOR_RE = re.compile(
    r"\b(StripeExclusive|StripeShared|CapLockGuard)\s+\w+\s*[({]")
EPOCH_WAIVER_RE = re.compile(r"hicamp-lint:\s*epoch-guard-ok\(")

STAT_DECL_RE = re.compile(
    r"^\s*(?:ShardedCounter|AtomicCounter|Counter)\s+\w")
STAT_WAIVER_RE = re.compile(r"hicamp-lint:\s*stat-ok\(")
STAT_REGISTRY_RE = re.compile(
    r"\bMetricsRegistry\b|\bregisterMetrics\b|\baddCounter\b")
STAT_EXEMPT = {"src/common/stats.hh"}

DEFAULT_ORDER_DOC = "DESIGN.md"
DEFAULT_ORDER_HEADER = "src/common/thread_annotations.hh"
ORDER_DECL_RE = re.compile(r"<!--\s*hicamp-lock-order:\s*([^>]+?)\s*-->")
ANCHOR_RE = re.compile(
    r"^\s*inline\s+LockRank\s+(\w+)\s*"
    r"(?:HICAMP_ACQUIRED_AFTER\((\w+)\))?\s*;")



def _waived_at(raw_lines, lineno, waiver_re):
    """True if the waiver marker sits on the flagged line or in the
    contiguous run of // comment lines directly above it."""
    if 1 <= lineno <= len(raw_lines) and \
            waiver_re.search(raw_lines[lineno - 1]):
        return True
    ln = lineno - 1
    while 1 <= ln <= len(raw_lines) and \
            raw_lines[ln - 1].lstrip().startswith("//"):
        if waiver_re.search(raw_lines[ln - 1]):
            return True
        ln -= 1
    return False


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


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


def function_bodies_tokens(code):
    """Yield (start_line, body_text) for every top-level-ish brace
    block that follows a ``)`` — i.e. function definitions.  Brace
    matching over comment-stripped text; nested blocks stay inside
    their function's body."""
    bodies = []
    depth = 0
    i, n = 0, len(code)
    line = 1
    last_nonspace = ""
    while i < n:
        c = code[i]
        if c == "\n":
            line += 1
        elif c == "{":
            if last_nonspace == ")" and depth >= 0:
                # find the matching close brace
                j, d, l2 = i + 1, 1, line
                while j < n and d:
                    if code[j] == "\n":
                        l2 += 1
                    elif code[j] == "{":
                        d += 1
                    elif code[j] == "}":
                        d -= 1
                    j += 1
                bodies.append((line, code[i + 1:j - 1]))
                line = l2
                i = j
                last_nonspace = "}"
                continue
            depth += 1
        elif c == "}":
            depth -= 1
        if not c.isspace():
            last_nonspace = c
        i += 1
    return bodies


def function_bodies_libclang(path):
    """Exact function extents via libclang, when the bindings exist.
    Returns None (fall back to tokens) on any failure — the bindings
    are optional and absent from the CI image."""
    try:
        from clang import cindex  # type: ignore
    except Exception:
        return None
    try:
        tu = cindex.Index.create().parse(
            path, args=["-std=c++20", "-Isrc"])
        code = strip_comments_and_strings(
            open(path, encoding="utf-8").read())
        lines = code.splitlines()
        bodies = []
        for cur in tu.cursor.walk_preorder():
            if cur.kind in (cindex.CursorKind.FUNCTION_DECL,
                            cindex.CursorKind.CXX_METHOD,
                            cindex.CursorKind.FUNCTION_TEMPLATE) \
                    and cur.is_definition() \
                    and cur.location.file \
                    and cur.location.file.name == path:
                lo = cur.extent.start.line
                hi = cur.extent.end.line
                bodies.append((lo, "\n".join(lines[lo - 1:hi])))
        return bodies
    except Exception:
        return None


def line_of_offset(text, off):
    return text.count("\n", 0, off) + 1


def check_retain_balance(path, raw, code, findings):
    raw_lines = raw.splitlines()

    def waived(lineno):
        return _waived_at(raw_lines, lineno, RETAIN_WAIVER_RE)

    bodies = function_bodies_libclang(path) or \
        function_bodies_tokens(code)
    for start_line, body in bodies:
        if RAII_VOCAB_RE.search(body):
            continue  # owned by the path-sensitive refcount checker
        acquires = []
        has_negative_addref = False
        for m in ACQUIRE_RE.finditer(body):
            if m.group(0).startswith("addRef"):
                # addRef(plid, -1) is the release direction
                arg = macro_argument(body, m.end() - 1) or ""
                if re.search(r",\s*-", arg):
                    has_negative_addref = True
                    continue
            acquires.append(m)
        if not acquires:
            continue
        if has_negative_addref or RELEASE_RE.search(body) or \
                VALUE_RETURN_RE.search(body):
            continue
        for m in acquires:
            lineno = start_line + body.count("\n", 0, m.start())
            if waived(lineno):
                continue
            findings.append(Finding(
                path, lineno, "retain-balance",
                f"'{m.group(0).rstrip('(').strip()}' acquires a "
                "reference in a function with no release primitive "
                "and no ownership-transferring return; balance it or "
                "waive with // hicamp-lint: retain-ok(reason)"))


def macro_argument(code, open_paren):
    """Text between a macro's balanced parens, or None if unbalanced."""
    d = 0
    for j in range(open_paren, len(code)):
        if code[j] == "(":
            d += 1
        elif code[j] == ")":
            d -= 1
            if d == 0:
                return code[open_paren + 1:j]
    return None


def check_assert_side_effects(path, code, findings):
    for m in re.finditer(r"\bHICAMP_DEBUG_ASSERT\s*\(", code):
        arg = macro_argument(code, m.end() - 1)
        if arg is None:
            continue
        # drop the trailing ", message" argument: side effects in the
        # (never-evaluated-twice) message literal cannot exist once
        # strings are stripped, and commas inside parens are nested
        cond = arg
        depth = 0
        for k, ch in enumerate(arg):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                cond = arg[:k]
                break
        reasons = []
        if INC_DEC_RE.search(cond):
            reasons.append("++/-- operator")
        if MUTATOR_CALL_RE.search(cond):
            reasons.append("mutating member call")
        if re.search(r"(?<![=!<>+\-*/&|^])=(?!=)", cond):
            reasons.append("assignment")
        if reasons:
            findings.append(Finding(
                path, line_of_offset(code, m.start()),
                "assert-side-effect",
                "HICAMP_DEBUG_ASSERT condition has a side effect "
                f"({', '.join(reasons)}); debug asserts vanish in "
                "release builds, so the effect does too"))


def check_relaxed_control(root, path, rel, raw, code, findings):
    raw_lines = raw.splitlines()
    code_lines = code.splitlines()
    # Names the role-aware atomic checker owns: annotations harvested
    # repo-wide plus any declared in the linted file itself (fixture
    # runs outside src/ stay hermetic).
    deferred = atomic_role_names(root) | {
        m.group(1) for m in ATOMIC_ROLE_DECL_RE.finditer(code)}

    def waived(lineno):
        return _waived_at(raw_lines, lineno, RELAXED_WAIVER_RE)

    # A control condition may span lines; walk each if/while and its
    # balanced parens.
    for m in re.finditer(r"\b(if|while)\s*\(", code):
        cond = macro_argument(code, m.end() - 1)
        if cond is None:
            continue
        rm = RELAXED_LOAD_RE.search(cond)
        if not rm:
            continue
        # The loaded object's trailing identifier (subscripts
        # stripped, so liveMask_[b] resolves to liveMask_); annotated
        # fields are classified by tools/analyze/atomic_check.py.
        nm = re.search(r"(\w+)\s*(?:\[[^][]*\]\s*)*$", cond[:rm.start()])
        if nm and nm.group(1) in deferred:
            continue
        lineno = line_of_offset(code, m.end() - 1 + 1 + rm.start())
        if waived(lineno):
            continue
        findings.append(Finding(
            path, lineno, "relaxed-control",
            "relaxed atomic load feeds a control decision; use "
            "acquire, annotate the field's HICAMP_ATOMIC_* role for "
            "tools/analyze/atomic_check.py, or prove serialization "
            "and waive with // hicamp-lint: relaxed-ok(reason)"))
    _ = code_lines  # structure kept for libclang parity


def balanced_extent_end(code, open_off):
    """Offset just past the closer matching the bracket at open_off."""
    open_ch = code[open_off]
    close_ch = ")" if open_ch == "(" else "}"
    d = 0
    for j in range(open_off, len(code)):
        if code[j] == open_ch:
            d += 1
        elif code[j] == close_ch:
            d -= 1
            if d == 0:
                return j + 1
    return len(code)


def check_epoch_guard(path, raw, code, findings):
    raw_lines = raw.splitlines()
    seen = set()
    for m in EPOCH_GUARD_DECL_RE.finditer(code):
        # Skip the constructor's own argument list, then walk to the
        # close of the enclosing block: that is the guard's lifetime.
        start = balanced_extent_end(code, m.end() - 1)
        depth = 0
        end = len(code)
        for k in range(start, len(code)):
            c = code[k]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth < 0:
                    end = k
                    break
        for lm in EPOCH_LOCK_CTOR_RE.finditer(code, start, end):
            lineno = line_of_offset(code, lm.start())
            if (lineno, lm.group(1)) in seen:
                continue  # nested guards: report once
            seen.add((lineno, lm.group(1)))
            if _waived_at(raw_lines, lineno, EPOCH_WAIVER_RE):
                continue
            findings.append(Finding(
                path, lineno, "epoch-guard",
                f"'{lm.group(1)}' constructed inside an EpochGuard "
                "scope; epoch read sections are lock-free (§12, rank "
                "stripe < epoch) — close the guard first or waive "
                "with // hicamp-lint: epoch-guard-ok(reason)"))


def check_stat_registry(path, rel, raw, code, findings):
    if rel in STAT_EXEMPT or rel.startswith("src/obs/"):
        return
    # A file that participates in registration is trusted wholesale;
    # the reference must be in code, not in a comment.
    if STAT_REGISTRY_RE.search(code):
        return
    raw_lines = raw.splitlines()
    code_lines = code.splitlines()
    for idx, line in enumerate(code_lines):
        if not STAT_DECL_RE.match(line):
            continue
        lineno = idx + 1
        # One waiver comment above the first declaration covers the
        # whole contiguous declaration block.
        first = idx
        while first > 0 and STAT_DECL_RE.match(code_lines[first - 1]):
            first -= 1
        if _waived_at(raw_lines, lineno, STAT_WAIVER_RE) or \
                _waived_at(raw_lines, first + 1, STAT_WAIVER_RE):
            continue
        findings.append(Finding(
            path, lineno, "stat-registry",
            "counter member in a file with no MetricsRegistry/"
            "registerMetrics/addCounter reference; register it or "
            "waive with // hicamp-lint: stat-ok(reason)"))


def parse_anchor_chain(header_text):
    """LockRank anchors in declaration form -> ordered rank list.
    Returns (order, errors); order is outermost-first."""
    after = {}
    names = []
    for line in header_text.splitlines():
        m = ANCHOR_RE.match(line)
        if m:
            names.append(m.group(1))
            if m.group(2):
                after[m.group(1)] = m.group(2)
    errors = []
    roots = [n for n in names if n not in after]
    if len(roots) != 1:
        errors.append(f"expected exactly one root anchor, got {roots}")
        return [], errors
    order = [roots[0]]
    rest = {k: v for k, v in after.items()}
    while rest:
        nxt = [k for k, v in rest.items() if v == order[-1]]
        if len(nxt) != 1:
            errors.append(
                f"anchor chain is not a simple order after "
                f"'{order[-1]}': {sorted(rest.items())}")
            return [], errors
        order.append(nxt[0])
        del rest[nxt[0]]
    return order, errors


def check_lock_order(root, header_path, doc_path, findings):
    htext = open(header_path, encoding="utf-8").read()
    declared, errors = parse_anchor_chain(htext)
    for e in errors:
        findings.append(Finding(header_path, 1, "lock-order", e))
    dtext = open(doc_path, encoding="utf-8").read()
    dm = ORDER_DECL_RE.search(dtext)
    if not dm:
        findings.append(Finding(
            doc_path, 1, "lock-order",
            "no '<!-- hicamp-lock-order: a < b < c -->' declaration"))
        return
    doc_order = [t.strip() for t in dm.group(1).split("<")]
    doc_line = line_of_offset(dtext, dm.start())
    if declared and doc_order != declared:
        findings.append(Finding(
            doc_path, doc_line, "lock-order",
            f"documented order {' < '.join(doc_order)} does not match "
            f"the ACQUIRED_AFTER chain {' < '.join(declared)} in "
            f"{header_path}"))
    # every declared rank must be co-acquired by some guard
    src = os.path.join(root, "src")
    used = set()
    for dirpath, _, files in os.walk(src):
        for f in files:
            if f.endswith((".hh", ".cc")):
                text = open(os.path.join(dirpath, f),
                            encoding="utf-8").read()
                for r in declared:
                    if re.search(rf"\block(?:rank)?::{r}\b", text):
                        used.add(r)
    for r in declared:
        if r not in used:
            findings.append(Finding(
                header_path, 1, "lock-order",
                f"rank anchor '{r}' is declared but never co-acquired "
                "by any guard under src/"))


def lint_file(root, path, findings):
    rel = os.path.relpath(path, root).replace(os.sep, "/")
    raw = open(path, encoding="utf-8").read()
    code = strip_comments_and_strings(raw)
    check_retain_balance(path, raw, code, findings)
    check_assert_side_effects(path, code, findings)
    check_relaxed_control(root, path, rel, raw, code, findings)
    check_epoch_guard(path, raw, code, findings)
    check_stat_registry(path, rel, raw, code, findings)


def default_targets(root):
    targets = []
    for sub in ("src", "tools", "examples"):
        top = os.path.join(root, sub)
        if not os.path.isdir(top):
            continue
        for dirpath, _, files in os.walk(top):
            parts = dirpath.split(os.sep)
            if "lint" in parts or "analyze" in parts:
                continue  # fixtures are violations on purpose
            for f in sorted(files):
                if f.endswith((".hh", ".cc")):
                    targets.append(os.path.join(dirpath, f))
    return targets


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="HICAMP concurrency-protocol lint")
    ap.add_argument("files", nargs="*",
                    help="files to lint (default: src/, tools/, "
                         "examples/ under --root)")
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
        help="repository root")
    ap.add_argument("--order-header", default=None,
                    help="thread_annotations.hh to read the anchor "
                         "chain from")
    ap.add_argument("--order-doc", default=None,
                    help="markdown file carrying the "
                         "hicamp-lock-order declaration")
    ap.add_argument("--no-lock-order", action="store_true",
                    help="skip the lock-order rule (fixture runs)")
    args = ap.parse_args(argv)

    root = os.path.abspath(args.root)
    files = [os.path.abspath(f) for f in args.files] or \
        default_targets(root)
    findings = []
    for path in files:
        if not os.path.isfile(path):
            print(f"hicamp_lint: no such file: {path}",
                  file=sys.stderr)
            return 2
        lint_file(root, path, findings)

    if not args.no_lock_order:
        header = args.order_header or \
            os.path.join(root, DEFAULT_ORDER_HEADER)
        doc = args.order_doc or os.path.join(root, DEFAULT_ORDER_DOC)
        if os.path.isfile(header) and os.path.isfile(doc):
            check_lock_order(root, header, doc, findings)
        else:
            print("hicamp_lint: missing lock-order inputs "
                  f"({header}, {doc})", file=sys.stderr)
            return 2

    for f in sorted(findings, key=lambda f: (f.path, f.line)):
        print(f)
    print(f"hicamp_lint: {len(findings)} finding(s) in "
          f"{len(files)} file(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
