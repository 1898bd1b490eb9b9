/**
 * @file
 * Ground-truth state of the deduplicating HICAMP main memory,
 * organized per paper Fig. 2: DRAM is divided into hash buckets (one
 * per DRAM row), each holding a signature line, a reference-count
 * line, twelve data ways and an overflow pointer area. A line lives in
 * the bucket selected by the hash of its content; its PLID is the
 * concatenation of bucket number and way.
 *
 * Concurrency model (DESIGN.md §7, §12): synchronization mirrors the
 * paper's memory organization instead of a single global lock.
 *  - A striped std::shared_mutex array covers the hash buckets for
 *    the *mutating* paths: insert-on-miss, 1→0 retirement and the
 *    overflow hash chain. Mutations in different stripes run in
 *    parallel, exactly as independent DRAM rows would service
 *    independent commands.
 *  - Reference counts are std::atomic, updated with commutative CAS
 *    loops that need no bucket lock; only the dealloc path (a count
 *    observed at zero) takes the bucket stripe exclusively, via
 *    retire(), to unpublish the line.
 *  - Lines are immutable once published (the architecture's core
 *    invariant), so the *read* paths — read(), isLive(), refCount(),
 *    incRefIfLive() and the dedup probe of find()/findOrInsert() —
 *    acquire no lock at all. Publication is a release-store of the
 *    bucket's occupancy bit after the content is written; readers
 *    acquire-load that bit before materializing. Overflow lines live
 *    in per-stripe chunked slabs whose chunk directory only grows,
 *    so they are indexable lock-free too.
 *  - What makes lock-free reads safe against slot *reuse* is epoch-
 *    based reclamation (mem/epoch.hh, ck_epoch style): retire()
 *    unpublishes a line but parks its storage in limbo, and the slot
 *    is cleared and reused only after a grace period proves no
 *    reader that could still see it remains. Content-reading paths
 *    pin an EpochGuard for their extent.
 *
 * This class is pure state plus protocol *descriptions* (which DRAM
 * rows an operation touches); traffic attribution and cache filtering
 * are the job of mem/memory.hh. Storage is flat arrays so multi-
 * million-line workloads stay compact.
 */

#ifndef HICAMP_MEM_LINE_STORE_HH
#define HICAMP_MEM_LINE_STORE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/atomic_annotations.hh"
#include "common/line.hh"
#include "common/ownership.hh"
#include "common/status.hh"
#include "common/thread_annotations.hh"
#include "common/types.hh"
#include "mem/epoch.hh"

namespace hicamp {

/** "No limit" value for the capacity knobs below. */
inline constexpr std::uint64_t kUnlimited = ~std::uint64_t{0};

/** Layout constants of a hash bucket (Fig. 2). */
struct BucketLayout {
    static constexpr unsigned kWays = 16;      ///< ways per bucket
    static constexpr unsigned kFirstData = 2;  ///< way 0 = sigs, 1 = RCs
    static constexpr unsigned kNumData = 12;   ///< data ways 2..13
    static constexpr unsigned kWayBits = 4;    ///< log2(kWays)
};

/** PLIDs above this base address the overflow area. */
inline constexpr Plid kOverflowBase = Plid{1} << 48;

/** Overflow PLID layout: stripe in bits [47:32], shard index below. */
inline constexpr unsigned kOverflowStripeShift = 32;
inline constexpr std::uint64_t kOverflowIdxMask =
    (std::uint64_t{1} << kOverflowStripeShift) - 1;

/**
 * Deduplicated line storage with per-line reference counts.
 *
 * Reference-count discipline: every PLID value held by the software
 * model (inside a committed line, in a segment-map root, or in a
 * snapshot/iterator handle) owns one reference. Lines whose count
 * reaches zero are unpublished and freed through retire(), which the
 * Memory layer drives (it also handles the recursive release of
 * children, since that requires reading line content through the
 * cache model).
 */
class LineStore
{
  public:
    /** Finite-capacity knobs (paper Fig. 2 / §3.1). */
    struct Limits {
        /// lines the overflow area can hold at once
        std::uint64_t overflowCapacity = kUnlimited;
        /// total live lines (home buckets + overflow)
        std::uint64_t maxLiveLines = kUnlimited;
        /// reference-count field width; counts saturate sticky at
        /// 2^bits - 1 (§3.1: limited-width counts, saturating)
        unsigned refcountBits = 32;
    };

    /**
     * @param num_buckets number of hash buckets (power of two)
     * @param line_words  words per line (2, 4 or 8)
     * @param limits      finite-capacity model (default: unlimited)
     * @param stripes     lock stripes over the buckets (power of two;
     *                    clamped to num_buckets)
     */
    LineStore(std::uint64_t num_buckets, unsigned line_words,
              const Limits &limits, unsigned stripes = kDefaultStripes);
    LineStore(std::uint64_t num_buckets, unsigned line_words);

    /** Drains limbo (no concurrent readers may exist) and frees the
     *  overflow slabs. */
    ~LineStore();

    static constexpr unsigned kDefaultStripes = 64;

    unsigned lineWords() const { return lineWords_; }
    std::uint64_t numBuckets() const { return numBuckets_; }
    unsigned numStripes() const { return numStripes_; }

    /** Home bucket for a content hash. */
    std::uint64_t bucketOf(std::uint64_t content_hash) const
    {
        return bucketOfHash(content_hash, numBuckets_);
    }

    /** Lock stripe covering a bucket. */
    unsigned stripeOfBucket(std::uint64_t bucket) const
    {
        return static_cast<unsigned>(bucket) & (numStripes_ - 1);
    }

    /** Home bucket of an existing line (overflow lines know theirs). */
    std::uint64_t bucketOfPlid(Plid plid) const;

    /** Result of a find-or-insert style probe. */
    struct FindResult {
        Plid plid = kZeroPlid;
        bool found = false;
        /// line landed in (or was found in) the overflow area
        bool overflow = false;
        /// OutOfMemory when an allocation was needed but the home
        /// bucket was full and the overflow area / live-line budget
        /// was exhausted (plid stays 0; the probe traffic in
        /// `candidates` was still paid)
        MemStatus status = MemStatus::Ok;
        /// PLIDs whose signature matched, in probe order (the final
        /// element is the match itself when found in the home bucket)
        std::vector<Plid> candidates;
        /// content of each candidate, captured under the bucket lock
        /// so callers can model probe traffic without re-reading
        /// slots that may concurrently be freed
        std::vector<Line> candidateLines;
    };

    /**
     * Look for @p content; if absent, allocate it (in its home bucket
     * or, when full, the overflow area). With @p take_ref the result
     * additionally owns one reference, acquired atomically inside the
     * bucket's critical section — the only way a dedup hit on a
     * dying (count zero, not yet retired) line can safely resurrect
     * it. Allocation can fail against the Limits: the result then
     * carries MemStatus::OutOfMemory, no reference is taken and no
     * state was changed.
     */
    HICAMP_REF_PRIMITIVE FindResult
    findOrInsert(const Line &content, bool take_ref = false)
        HICAMP_EXCLUDES(stripes_);

    /** Probe only; plid==0 in the result if absent. */
    FindResult find(const Line &content) const
        HICAMP_EXCLUDES(stripes_);

    /**
     * Read a line by PLID. Zero PLID returns the all-zero line.
     * Entirely lock-free: the whole copy runs inside an EpochGuard,
     * so a concurrent retire() parks the storage in limbo instead of
     * clearing it under us (§12). The caller must hold a reference
     * or be inside a guard that predates retirement — reading a PLID
     * that was already *physically* freed is undefined. Exempt from
     * the capability analysis: reads published content with no lock,
     * made sound by the liveMask_ release/acquire publication
     * protocol plus the epoch grace period (DESIGN.md §7/§12), which
     * the lock model cannot express.
     */
    Line read(Plid plid) const HICAMP_NO_THREAD_SAFETY_ANALYSIS;

    /** True if the PLID names a live line. Lock-free. */
    bool isLive(Plid plid) const HICAMP_EXCLUDES(stripes_);

    /**
     * Reference-count snapshot. Lock-free; pins an EpochGuard so the
     * counter word itself is stable storage for the duration of the
     * load. The value is *advisory* the instant it returns —
     * concurrent holders may retain/release at any time — so it must
     * only feed statistics, audits at quiescent points, or
     * heuristics, never a free decision (retire() re-checks the
     * count under the stripe lock; DESIGN.md §12).
     */
    std::uint32_t refCount(Plid plid) const HICAMP_EXCLUDES(stripes_);

    /// @name Epoch reclamation surface (DESIGN.md §12)
    /// @{
    /** This store's epoch domain (guard entry for composite read
     *  sections, metrics export, tests). */
    EpochManager &epochDomain() const { return epoch_; }

    /** Lines retired but still parked in limbo (unpublished, storage
     *  intact until grace expiry). */
    std::uint64_t
    limboLines() const
    {
        return limboLines_.load(std::memory_order_relaxed);
    }

    /**
     * Drive the epoch until every retirement deferred before the
     * call is physically freed (best effort if readers stay pinned).
     * The auditor runs this before exact-snapshot passes; returns
     * the number of deferred frees executed. Must not be called with
     * a stripe lock held.
     */
    std::size_t
    epochSynchronize() const HICAMP_EXCLUDES(stripes_)
    {
        return epoch_.synchronize();
    }

    /**
     * Visit the PLID of every line currently parked in limbo
     * (auditor support: limbo lines are retired-but-not-freed, never
     * dangling). Runs under the limbo lock; @p fn must not retire,
     * defer or advance.
     */
    void forEachLimbo(const std::function<void(Plid)> &fn) const;
    /// @}

    /// @name Stripe-lock traffic counters (the zero-lock read proof)
    /// @{
    /** Exclusive stripe-lock acquisitions since construction. */
    std::uint64_t stripeLockExclusiveOps() const;
    /** Shared stripe-lock acquisitions since construction. */
    std::uint64_t stripeLockSharedOps() const;
    /// @}

    /**
     * Adjust a refcount; returns the new value. Lock-free commutative
     * CAS loop (Balaji et al.: unordered commutative updates need no
     * serialization). Counts saturate sticky at refcountMax() (§3.1):
     * once pinned, neither increments nor decrements move the count
     * again and the line is immortal.
     */
    HICAMP_REF_PRIMITIVE std::uint32_t addRef(Plid plid, std::int32_t delta)
        HICAMP_EXCLUDES(stripes_);

    /**
     * Take a reference iff the line is currently live with a nonzero
     * (or saturated) count — the acquire path for PLIDs obtained from
     * unsynchronized channels (LLC content hits, seqlock-published
     * roots), where the line may concurrently be retired. Returns
     * false when the count was zero or the line is gone; the caller
     * must then fall back to a locked lookup.
     */
    HICAMP_REF_PRIMITIVE bool incRefIfLive(Plid plid)
        HICAMP_EXCLUDES(stripes_);

    /// @name Finite-capacity model
    /// @{
    /** Saturation ceiling implied by Limits::refcountBits. */
    std::uint32_t refcountMax() const { return refMax_; }

    /** True if this line's count is pinned at the ceiling. */
    bool
    refcountSaturated(Plid plid) const
    {
        return plid != kZeroPlid && refCount(plid) == refMax_;
    }

    /** Pin a line's count at the ceiling (fault injection). */
    HICAMP_REF_PRIMITIVE void saturateRef(Plid plid)
        HICAMP_EXCLUDES(stripes_);

    /** Lines whose counts have saturated (they can never be freed). */
    std::uint64_t
    saturatedLines() const
    {
        return saturatedLines_.load(std::memory_order_relaxed);
    }

    std::uint64_t overflowCapacity() const
    {
        return limits_.overflowCapacity;
    }
    std::uint64_t maxLiveLines() const { return limits_.maxLiveLines; }
    /// @}

    /** A line atomically unpublished by retire(). */
    struct Retired {
        Line content;
        std::uint64_t homeBucket = 0;
        bool overflow = false;
    };

    /**
     * Atomically unpublish and free @p plid if it is still live with
     * refcount zero; returns its content for the caller's recursive
     * child release. Returns nullopt when a concurrent dedup hit
     * resurrected the line (or another thread already retired it) —
     * the caller must then do nothing. This closes the classic
     * dedup-store race between a count dropping to zero and a lookup
     * re-finding the same content: both paths serialize on the
     * bucket's stripe lock, and findOrInsert(take_ref) re-increments
     * under it.
     *
     * The unpublish is immediate but the physical free is deferred:
     * the slot goes to limbo and is cleared/reused only at grace
     * expiry, so lock-free readers that entered their guard before
     * this call still see intact storage (§12). The store's one
     * reference on the content is consumed here, at retirement —
     * limbo parks storage, not ownership.
     */
    HICAMP_REF_PRIMITIVE std::optional<Retired> retire(Plid plid)
        HICAMP_EXCLUDES(stripes_);

    /**
     * Free a (zero-refcount) line slot; clears its signature.
     * Asserts the line is live with refcount zero (single-owner
     * teardown paths; concurrent code uses retire()).
     */
    HICAMP_REF_PRIMITIVE void freeLine(Plid plid)
        HICAMP_EXCLUDES(stripes_);

    /** Number of live lines (excluding the implicit zero line). */
    std::uint64_t
    liveLines() const
    {
        return liveLines_.load(std::memory_order_relaxed);
    }
    /** Bytes of live line payload. */
    std::uint64_t liveBytes() const
    {
        return liveLines() * lineWords_ * kWordBytes;
    }
    /** Lines currently resident in the overflow area. */
    std::uint64_t
    overflowLines() const
    {
        return overflowLive_.load(std::memory_order_relaxed);
    }

    /** Sum of all live reference counts (for invariant checks). */
    std::uint64_t totalRefs() const HICAMP_EXCLUDES(stripes_);

    /**
     * Fault injection (tests/benches): XOR a stored word of a live
     * home-bucket line, emulating a multi-bit DRAM error that slips
     * past per-line ECC. The paper's §3.1 content-hash-vs-bucket
     * check is expected to catch almost all such corruptions.
     */
    void corruptForTest(Plid plid, unsigned word_idx, Word xor_mask)
        HICAMP_EXCLUDES(stripes_);

    /// @name Audit support (src/analysis)
    /// @{
    /**
     * Invoke @p fn for every live line: home-bucket lines in slot
     * order, then overflow lines per stripe. Passes the PLID, the
     * materialized content and the stored reference count. Takes each
     * stripe's shared lock while scanning it; run at quiescent points
     * for an exact snapshot.
     */
    void forEachLive(
        const std::function<void(Plid, const Line &, std::uint32_t)> &fn)
        const HICAMP_EXCLUDES(stripes_);

    /** Stored signature byte of a live home-bucket line. */
    std::uint8_t storedSignature(Plid plid) const
        HICAMP_EXCLUDES(stripes_);

    /**
     * True if a live overflow line is reachable through the overflow
     * pointer chain indexed by its content hash (Fig. 2); an
     * unindexed line would never dedup against future lookups.
     */
    bool overflowChainContains(Plid plid) const
        HICAMP_EXCLUDES(stripes_);
    /// @}

    /// @name Corruption injection (tests of the auditor itself)
    /// @{
    /**
     * Duplicate a live line's content into the overflow area,
     * bypassing the find-before-insert protocol — forges a dedup
     * violation (two PLIDs for one content). Returns the new PLID,
     * live with refcount 0.
     */
    Plid forgeDuplicateForTest(Plid plid) HICAMP_EXCLUDES(stripes_);

    /**
     * Overwrite one stored word *and* its tag in place, bypassing
     * content-uniqueness — forges dangling references, DAG cycles or
     * non-canonical structure for auditor detection tests.
     */
    void poisonWordForTest(Plid plid, unsigned word_idx, Word w,
                           WordMeta m) HICAMP_EXCLUDES(stripes_);
    /// @}

  private:
    struct OverflowEntry {
        Line line;
        std::uint64_t homeBucket = 0;
        std::uint64_t hash = 0; ///< memoized content hash (satellite:
                                ///< no recompute on free/chain checks)
        HICAMP_ATOMIC_CLAIM_CAS std::atomic<std::uint32_t> refs{0};
        HICAMP_ATOMIC_PUBLISH std::atomic<bool> live{false};
        /// retired but parked in limbo: content stays intact for
        /// readers whose guard predates the retirement (§12)
        HICAMP_ATOMIC_PUBLISH std::atomic<bool> limbo{false};
    };

    /**
     * Per-stripe overflow area: a chunked slab plus the Fig. 2 hash
     * chain. The chunk directory and published size are atomic and
     * only ever grow, so entry *lookup* by index is lock-free (an
     * acquire load of the directory slot pairs with the release
     * publish in overflowGrow); entry allocation, the free list and
     * the hash-chain index are mutated under the stripe's exclusive
     * lock.
     */
    struct OverflowShard {
        /// 1024 entries per chunk, 512 chunks: 512Ki entries/shard
        static constexpr unsigned kChunkShift = 10;
        static constexpr std::uint64_t kChunkSize = std::uint64_t{1}
                                                    << kChunkShift;
        static constexpr std::uint64_t kMaxChunks = 512;

        HICAMP_ATOMIC_PUBLISH std::vector<std::atomic<OverflowEntry *>>
            chunks{kMaxChunks};
        /// published entry count
        HICAMP_ATOMIC_PUBLISH std::atomic<std::uint64_t> size{0};
        std::vector<std::uint64_t> freeList;
        /// content-hash -> entry indices (Fig. 2 overflow chains)
        std::unordered_multimap<std::uint64_t, std::uint64_t> index;

        ~OverflowShard()
        {
            for (auto &c : chunks)
                // hicamp-atomic: waive(single-threaded destruction;
                // no reader outlives the shard)
                delete[] c.load(std::memory_order_relaxed);
        }
    };

    bool isOverflow(Plid plid) const { return plid >= kOverflowBase; }

    static unsigned
    overflowStripe(Plid plid)
    {
        return static_cast<unsigned>((plid >> kOverflowStripeShift) &
                                     0xffff);
    }
    static std::uint64_t
    overflowIdx(Plid plid)
    {
        return plid & kOverflowIdxMask;
    }
    Plid
    overflowPlid(unsigned stripe, std::uint64_t idx) const
    {
        return kOverflowBase |
               (static_cast<std::uint64_t>(stripe)
                << kOverflowStripeShift) |
               idx;
    }

    /** Flat slot index of a home-bucket PLID. */
    std::uint64_t slotOf(Plid plid) const;
    bool slotLive(std::uint64_t slot) const
    {
        return (liveMask_[slot / BucketLayout::kNumData].load(
                    std::memory_order_acquire) >>
                (slot % BucketLayout::kNumData)) &
               1;
    }
    void setSlotLive(std::uint64_t slot, bool live)
        HICAMP_REQUIRES(stripes_);
    bool slotEquals(std::uint64_t slot, const Line &content) const
        HICAMP_REQUIRES_SHARED(stripes_);
    Line materialize(std::uint64_t slot) const
        HICAMP_REQUIRES_SHARED(stripes_);

    /**
     * Lock-free entry lookup by index; nullptr for out-of-range or
     * not-yet-published indices. Safe without any lock: the chunk
     * directory only grows and chunks are freed only at destruction.
     */
    const OverflowEntry *overflowEntryAcquire(unsigned stripe,
                                              std::uint64_t idx) const;
    OverflowEntry *
    overflowEntryAcquire(unsigned stripe, std::uint64_t idx)
    {
        return const_cast<OverflowEntry *>(
            std::as_const(*this).overflowEntryAcquire(stripe, idx));
    }
    /** Entry lookup under the stripe lock (index already validated
     *  by the caller's chain walk or reservation). */
    OverflowEntry &overflowEntryAt(unsigned stripe, std::uint64_t idx)
        const HICAMP_REQUIRES_SHARED(stripes_);
    /** Pop the free list or grow the slab by one published entry. */
    std::uint64_t overflowAllocSlot(OverflowShard &shard)
        HICAMP_REQUIRES(stripes_);

    /** Probe under the caller-held stripe lock. */
    FindResult findImpl(const Line &content, std::uint64_t hash) const
        HICAMP_REQUIRES_SHARED(stripes_);

    /**
     * Lock-free home-bucket probe (§12, ck_hs style): walks the
     * bucket's ways with acquire loads + signature filtering. The
     * caller must hold an EpochGuard (debug-asserted) — that is what
     * keeps a slot's content stable between the occupancy check and
     * the materialize. Exempt from the capability analysis for the
     * same reason as read().
     */
    FindResult probeHome(const Line &content, std::uint64_t hash) const
        HICAMP_NO_THREAD_SAFETY_ANALYSIS;

    /** retire() body (stripe-locked); the public wrapper runs the
     *  epoch batching step after the lock is released. */
    std::optional<Retired> retireLocked(Plid plid)
        HICAMP_EXCLUDES(stripes_);

    /// @name Limbo plumbing (§12)
    /// @{
    bool
    slotLimbo(std::uint64_t slot) const
    {
        // hicamp-atomic: waive(ordering carried by liveMask_: the
        // lock-free live-or-limbo check consults this only after
        // slotLive()'s acquire observed the release clear that
        // retire() sequences after setting limbo; all other callers
        // hold the stripe lock — see setSlotLimbo)
        return (limboMask_[slot / BucketLayout::kNumData].load(
                    std::memory_order_relaxed) >>
                (slot % BucketLayout::kNumData)) &
               1;
    }
    void setSlotLimbo(std::uint64_t slot, bool limbo)
        HICAMP_REQUIRES(stripes_);
    /** Deferred physical frees, run at grace expiry (they take the
     *  stripe lock themselves; never invoked with one held). */
    static void limboFreeHomeThunk(void *self, std::uint64_t slot);
    static void limboFreeOverflowThunk(void *self, std::uint64_t plid);
    void limboFreeHome(std::uint64_t slot) HICAMP_EXCLUDES(stripes_);
    void limboFreeOverflow(Plid plid) HICAMP_EXCLUDES(stripes_);
    /// @}

    void
    noteExcl(unsigned stripe) const
    {
        lockExcl_[stripe].fetch_add(1, std::memory_order_relaxed);
    }
    void
    noteShared(unsigned stripe) const
    {
        lockShared_[stripe].fetch_add(1, std::memory_order_relaxed);
    }

    /** Saturating commutative refcount adjust (shared CAS loop). */
    std::uint32_t adjustRef(HICAMP_ATOMIC_CLAIM_CAS
                            std::atomic<std::uint32_t> &r,
                            std::int32_t delta);
    /** Increment iff nonzero (or saturated); see incRefIfLive. */
    bool tryAcquireRef(HICAMP_ATOMIC_CLAIM_CAS std::atomic<std::uint32_t> &r);
    void saturateRefSlot(HICAMP_ATOMIC_CLAIM_CAS
                         std::atomic<std::uint32_t> &r);

    /** Reserve one live line against maxLiveLines (CAS, exact). */
    bool tryReserveLine();
    /** Reserve one overflow slot against overflowCapacity. */
    bool tryReserveOverflow();

    std::uint64_t numBuckets_;
    unsigned lineWords_;
    Limits limits_;
    unsigned numStripes_;
    std::uint32_t refMax_;
    HICAMP_ATOMIC_COUNTER std::atomic<std::uint64_t> saturatedLines_{0};

    /// Bucket-striped locks: allocation/dedup/free per stripe. The
    /// whole bank is one capability — stripes are never nested, so
    /// holding *any* stripe licenses access to that stripe's share of
    /// the guarded state below (DESIGN.md §8).
    mutable StripeBank stripes_;

    /// numBuckets * kNumData * lineWords
    std::vector<Word> words_ HICAMP_GUARDED_BY(stripes_);
    std::vector<std::uint16_t> metas_ HICAMP_GUARDED_BY(stripes_);
    /// numBuckets * kNumData
    std::vector<std::uint8_t> sigs_ HICAMP_GUARDED_BY(stripes_);
    HICAMP_ATOMIC_CLAIM_CAS std::vector<std::atomic<std::uint32_t>> refs_;
    /// per-bucket occupancy bitmask over data ways; the release-store
    /// publication point for lock-free readers
    HICAMP_ATOMIC_PUBLISH std::vector<std::atomic<std::uint16_t>> liveMask_;
    /// per-bucket limbo bitmask: retired slots whose storage is
    /// still parked for in-flight readers. Mutated only under the
    /// stripe's exclusive lock; the allocator treats live|limbo as
    /// occupied (§12). Not TSA-guarded: read lock-free by the debug
    /// live-or-limbo assertions on read paths.
    HICAMP_ATOMIC_PUBLISH std::vector<std::atomic<std::uint16_t>> limboMask_;

    /// Per-stripe overflow areas (index == stripe). Not TSA-guarded
    /// as a whole: the chunk directory and published size inside are
    /// lock-free by protocol (see OverflowShard); freeList and index
    /// are mutated only under the stripe's exclusive lock and walked
    /// under at least its shared lock (§8 exemption table).
    std::vector<OverflowShard> overflow_;
    HICAMP_ATOMIC_CLAIM_CAS std::atomic<std::uint64_t> overflowLive_{0};

    HICAMP_ATOMIC_CLAIM_CAS std::atomic<std::uint64_t> liveLines_{0};
    HICAMP_ATOMIC_COUNTER std::atomic<std::uint64_t> limboLines_{0};

    /// Epoch domain for this store's deferred reclamation (§12).
    /// mutable: const read paths pin guards. Declared after the
    /// storage it references; ~LineStore drains limbo explicitly
    /// before any member is destroyed.
    mutable EpochManager epoch_;

    /// per-stripe lock-acquisition tallies (stripeLock*Ops)
    HICAMP_ATOMIC_COUNTER mutable std::vector<std::atomic<std::uint64_t>>
        lockExcl_;
    HICAMP_ATOMIC_COUNTER mutable std::vector<std::atomic<std::uint64_t>>
        lockShared_;
};

} // namespace hicamp

#endif // HICAMP_MEM_LINE_STORE_HH
