/**
 * @file
 * Memory-ordering role annotations for atomic fields (DESIGN.md §13).
 *
 * Every `std::atomic` member in the model participates in exactly one
 * publication protocol, and its correct memory orders follow from
 * which one.  The vocabulary below makes that role machine-readable,
 * the same way thread_annotations.hh made the §7 lock protocol and
 * ownership.hh made the §10 refcount contract machine-readable:
 *
 *  - `HICAMP_ATOMIC_PUBLISH`: the field publishes other data.  Its
 *    store side must be release (or stronger); each release store
 *    must be paired with at least one acquire-side load of the same
 *    field somewhere in the tree.  Relaxed *loads* are legal only for
 *    re-checks already serialized by a lock (waive with rationale).
 *  - `HICAMP_ATOMIC_CLAIM_CAS`: ownership is claimed by CAS (refcount
 *    resurrection, capacity reservation, record adoption).  CAS sites
 *    must use sane order pairs: failure order no stronger than the
 *    success order, and never release/acq_rel on failure.
 *  - `HICAMP_ATOMIC_COUNTER`: statistics.  All RMWs and stores must
 *    be relaxed — a stronger order here advertises synchronization
 *    that does not exist.  Reads are confined to the declaring
 *    module's accessors or the obs snapshot path (src/obs/); a read
 *    anywhere else is a quiescent-point claim that needs a waiver.
 *  - `HICAMP_ATOMIC_SEQLOCK`: a field read under the SeqCount
 *    optimistic-read protocol (DESIGN.md §7 "VSM roots are
 *    seqlock-published").  Accesses must be relaxed — the SeqCount
 *    fences provide all ordering — and every reader must sit in a
 *    retry loop that re-validates the sequence word (readBegin /
 *    validate); writers run inside writeBegin / writeEnd.
 *  - `HICAMP_ATOMIC_EPOCH`: an epoch word of the §12 reclamation
 *    protocol (a record's published epoch, the global epoch).  Only
 *    the epoch module (src/mem/epoch.*) may touch it, and never with
 *    a relaxed success order: the stable-pin handshake needs the
 *    seq_cst store/fence pairing spelled out in §12.
 *  - `HICAMP_ATOMIC_FLAG`: a standalone state word with no dependent
 *    data of its own.  All-relaxed use is legal (ordering, if any, is
 *    provided externally — say how in the declaration comment).  If
 *    it is used lock-shaped, the acquire/release pairing must be
 *    complete: `test_and_set` at least acquire, `clear` release, and
 *    a release store somewhere requires an acquire-side read.
 *  - `HICAMP_ATOMIC_PARK`: the announcement word of a spin-then-park
 *    handshake (DESIGN.md §14), the sleeper's half of a Dekker pair:
 *    the sleeper announces, fences, and re-checks its queue; the
 *    waker publishes work, fences, and checks the word.  Only
 *    `primitive()` functions may touch it.  An announce (a seq_cst
 *    store or RMW) must be followed directly by a seq_cst fence, and
 *    a waker's load directly preceded by one; relaxed retracts and
 *    claims need no fence (the wakeup syscall carries the edge).
 *
 * `tools/analyze/atomic_check.py` reads these annotations (by macro
 * name, so the checker works under any compiler), classifies every
 * atomic load/store/RMW/fence in the tree against its field's role,
 * and enforces the per-role rules above.  Bare
 * `std::atomic_thread_fence` calls and un-annotated atomic fields are
 * errors; waive a site only with a written rationale:
 * `// hicamp-atomic: waive(reason)` on the line or the comment run
 * above it.  Functions that *define* a protocol rather than use it
 * (SeqCount's own methods, the epoch advance loop) are marked
 * `// hicamp-atomic: primitive(reason)` above their head.  Under
 * clang the macros additionally expand to [[clang::annotate]]
 * attributes, so AST-level tooling sees the same vocabulary.
 */

#ifndef HICAMP_COMMON_ATOMIC_ANNOTATIONS_HH
#define HICAMP_COMMON_ATOMIC_ANNOTATIONS_HH

#if defined(__clang__) && defined(__has_cpp_attribute)
#if __has_cpp_attribute(clang::annotate)
#define HICAMP_ATOMIC_ANNOTATE(x) [[clang::annotate(x)]]
#endif
#endif
#ifndef HICAMP_ATOMIC_ANNOTATE
#define HICAMP_ATOMIC_ANNOTATE(x) // atomic role annotations: clang only
#endif

/** Field publishes other data: release stores, paired acquire loads. */
#define HICAMP_ATOMIC_PUBLISH HICAMP_ATOMIC_ANNOTATE("hicamp::atomic_publish")

/** Ownership claimed by CAS; failure order <= success, no release. */
#define HICAMP_ATOMIC_CLAIM_CAS                                             \
    HICAMP_ATOMIC_ANNOTATE("hicamp::atomic_claim_cas")

/** Statistic: relaxed RMW only; read via accessors / obs snapshots. */
#define HICAMP_ATOMIC_COUNTER HICAMP_ATOMIC_ANNOTATE("hicamp::atomic_counter")

/** Seqlock-protected word: relaxed ops inside readBegin/validate or
 *  writeBegin/writeEnd; the SeqCount fences provide the ordering. */
#define HICAMP_ATOMIC_SEQLOCK HICAMP_ATOMIC_ANNOTATE("hicamp::atomic_seqlock")

/** §12 epoch word: epoch-module-only, never relaxed on success. */
#define HICAMP_ATOMIC_EPOCH HICAMP_ATOMIC_ANNOTATE("hicamp::atomic_epoch")

/** Standalone state word: all-relaxed or complete acquire/release. */
#define HICAMP_ATOMIC_FLAG HICAMP_ATOMIC_ANNOTATE("hicamp::atomic_flag")

/** Park announcement: primitive-only, announce and check fenced. */
#define HICAMP_ATOMIC_PARK HICAMP_ATOMIC_ANNOTATE("hicamp::atomic_park")

#endif // HICAMP_COMMON_ATOMIC_ANNOTATIONS_HH
