/**
 * @file
 * The HICAMP memory system facade: deduplicating line store + two-level
 * HICAMP cache (a private L1 per thread over one shared L2) + DRAM
 * traffic attribution. All higher layers (segments, iterator
 * registers, the virtual segment map, the programming model) perform
 * their line traffic through this class so that every simulated DRAM
 * access lands in the right Figure-6 category.
 *
 * Reference-count discipline: every PLID value held by the model —
 * inside a committed line, in a segment-map root, or in a snapshot
 * handle — owns one reference. lookup()/internLine() return a PLID
 * carrying a fresh reference; decRef() releases one and reclaims the
 * line (recursively releasing its children) when the count reaches
 * zero.
 */

#ifndef HICAMP_MEM_MEMORY_HH
#define HICAMP_MEM_MEMORY_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/atomic_annotations.hh"
#include "common/backoff.hh"

#include "common/fault.hh"
#include "common/line.hh"
#include "common/ownership.hh"
#include "common/stats.hh"
#include "common/status.hh"
#include "common/thread_annotations.hh"
#include "common/types.hh"
#include "mem/dram_stats.hh"
#include "mem/hicamp_cache.hh"
#include "mem/line_store.hh"
#include "obs/metrics.hh"

namespace hicamp {

/** Memory-system configuration (paper §5 defaults). */
struct MemoryConfig {
    unsigned lineBytes = 16;           ///< 16, 32 or 64
    std::uint64_t numBuckets = 1 << 16; ///< DRAM rows (hash buckets)
    std::uint64_t l1Bytes = 32 * 1024;
    unsigned l1Ways = 4;
    std::uint64_t l2Bytes = 4 * 1024 * 1024;
    unsigned l2Ways = 16;

    /// @name Concurrency model
    /// @{
    /// lock stripes over the hash buckets (power of two; clamped to
    /// numBuckets): writers in distinct stripes proceed in parallel,
    /// as independent DRAM rows would. Reads and dedup-hit lookups
    /// take no stripe (epoch reclamation, DESIGN.md §12).
    unsigned lockStripes = 64;
    /// @}

    /// @name Finite-capacity / fault model
    /// @{
    /// lines the overflow area can hold at once (Fig. 2's overflow
    /// pointer area is a bounded DRAM region)
    std::uint64_t overflowCapacity = kUnlimited;
    /// hard budget on total live lines
    std::uint64_t maxLiveLines = kUnlimited;
    /// reference-count field width; counts saturate sticky at
    /// 2^bits - 1 (§3.1)
    unsigned refcountBits = 32;
    /// fault injection plan (off by default; the Memory constructor
    /// overlays HICAMP_FAULT_* environment variables unless
    /// faults.allowEnvOverride is cleared)
    FaultConfig faults;
    /// shape of every bounded commit-retry loop above this memory
    RetryPolicy retry;
    /// @}
};

/**
 * The complete simulated HICAMP memory system.
 *
 * Thread-safe, without a global ordering point: synchronization is
 * striped over the store's hash buckets, reference counts are atomic,
 * and reads of (immutable) published lines are lock-free — epoch
 * reclamation (§12) runs the read/lookup hot paths in epoch-pinned
 * sections that acquire no lock at all — see
 * DESIGN.md §7 for the full concurrency model and lock order. The
 * paper's architecture needs no data-line coherence because lines are
 * immutable; the sharding here is the software analogue of its
 * per-bucket DRAM parallelism. Likewise every thread reads through its
 * own L1 over the one shared L2 (DESIGN.md §4.6), and only
 * deallocation reaches into other threads' L1s, to invalidate.
 */
class Memory
{
  public:
    explicit Memory(const MemoryConfig &cfg = {});
    ~Memory();

    unsigned lineBytes() const { return cfg_.lineBytes; }
    unsigned lineWords() const { return cfg_.lineBytes / kWordBytes; }
    /** DAG fanout: child entries per interior line. */
    unsigned fanout() const { return lineWords(); }

    /** A fresh all-zero line of this machine's width. */
    Line makeLine() const { return Line(lineWords()); }

    /**
     * Lookup-by-content: find or allocate @p content, returning a PLID
     * that owns one fresh reference. All-zero content returns PLID 0.
     * @p was_new reports whether the line was freshly allocated.
     *
     * @throws MemPressureError when a fresh allocation is needed but
     * the store is at capacity (or the fault injector failed it). No
     * state is changed on the failure path.
     *
     * Excluded from rank-2 (vsm) callers: allocation can race a
     * reclamation that fires the lineFreed hook, which takes the
     * segment map's mutex (DESIGN.md §7 "hooks run unlocked").
     */
    HICAMP_RETURNS_REF Plid lookup(const Line &content,
                                   bool *was_new = nullptr)
        HICAMP_EXCLUDES(lockrank::vsm);

    /**
     * Dedup-aware interning for DAG nodes: like lookup(), but manages
     * child references. The caller must own one reference per non-zero
     * PLID word in @p content; on a dedup hit those references are
     * released (the existing line already owns its children), on a
     * fresh allocation the new line takes them over.
     *
     * @throws MemPressureError on allocation failure; the caller's
     * child references are released first (consume-on-failure), so a
     * failed intern leaks nothing.
     *
     * Excluded from rank-2 (vsm) callers: both the dedup-hit and the
     * failure path release child references, which can reclaim and
     * fire the lineFreed hook into the segment map (DESIGN.md §7).
     */
    HICAMP_RETURNS_REF Plid internLine(HICAMP_CONSUMES_REF const Line &content)
        HICAMP_EXCLUDES(lockrank::vsm);

    /** Read a line by PLID through the cache hierarchy. */
    Line readLine(Plid plid, DramCat cat = DramCat::Read);

    /** Acquire an additional reference to a line. */
    HICAMP_ACQUIRES_REF void incRef(Plid plid);

    /**
     * Conditional reference acquisition: atomically acquire a
     * reference iff @p plid currently names a live line with a
     * nonzero count. Returns false when the line is unpublished or
     * mid-reclamation — the caller must retry or fall back. This is
     * the primitive behind lock-free snapshots (DESIGN.md §7): unlike
     * incRef(), the caller need not already hold a reference proving
     * the line stays live.
     *
     * The CAS and its liveness revalidation are pinned inside one
     * epoch guard (§12), so the slot cannot be physically recycled
     * between the count update and the re-check.
     */
    HICAMP_ACQUIRES_REF bool tryRetain(Plid plid);

    /**
     * Release one reference; reclaims the line (and recursively its
     * children) if the count reaches zero.
     *
     * Excluded from rank-2 (vsm) callers — the §7 deadlock rule:
     * reclamation fires the lineFreed/vsidRelease hooks, which
     * reacquire the segment map's mutex, so a caller already holding
     * it would self-deadlock. This is the machine-checked form of
     * "never call into release/reclaim while holding mapMutex_".
     */
    HICAMP_RELEASES_REF void decRef(Plid plid)
        HICAMP_EXCLUDES(lockrank::vsm);

    /**
     * Current refcount (test/diagnostic use). An *advisory* snapshot
     * (§12): the store reads the count inside an epoch guard, but by
     * the time the caller inspects the value concurrent inc/dec may
     * have moved it. Exact totals require an epoch-quiescent point —
     * see StoreAuditor and LineStore::epochSynchronize().
     */
    std::uint32_t refCount(Plid plid) const;

    /** True if the PLID names a live line (diagnostic). */
    bool isLive(Plid plid) const;

    /**
     * Allocate a transient (non-deduplicated, per-core) line id for
     * iterator write buffering.
     */
    std::uint64_t allocTransient();

    /** Cache-modelled access to a transient line. */
    void transientAccess(std::uint64_t transient_id, bool write);

    /**
     * Drop a transient line after its content has been converted to a
     * permanent line (or the iterator aborted); a still-cached dirty
     * transient never reaches DRAM.
     */
    void invalidateTransient(std::uint64_t transient_id);

    /** Cache-modelled access to a virtual-segment-map entry. */
    void vsmAccess(Vsid vsid, bool write);

    /**
     * Hook invoked when line reclamation drops a VSID-tagged word
     * (weak-reference bookkeeping in the segment map). Hooks are
     * invoked with no memory-system lock held (DESIGN.md §7); install
     * them at quiescent points, before concurrent use begins.
     */
    void setVsidReleaseHook(std::function<void(Vsid)> hook);

    /**
     * Hook invoked for every reclaimed line (weak segment references
     * watch for their root's reclamation). Invoked with no
     * memory-system lock held; the hook may take its own locks but
     * must not re-enter reclamation (e.g. by dropping references).
     */
    void setLineFreedHook(std::function<void(Plid)> hook);

    /// @name Statistics and introspection
    /// @{
    DramStats &dram() { return dram_; }
    const DramStats &dram() const { return dram_; }
    LineStore &store() { return store_; }
    const LineStore &store() const { return store_; }

    /**
     * Per-thread L1 caches created so far: one per epoch-record slot
     * whose thread has touched memory. A slot's L1 outlives its
     * thread and passes to the next thread that claims the slot, so
     * this stays bounded by the threads alive at once.
     */
    unsigned l1Count() const;

    /**
     * How many L1 caches hold data line @p plid (diagnostic; @p plid
     * must be live or a home-bucket line).
     */
    unsigned l1Copies(Plid plid) const;

    std::uint64_t liveLines() const { return store_.liveLines(); }
    std::uint64_t liveBytes() const { return store_.liveBytes(); }

    std::uint64_t lookupOps() const { return lookupOps_.value(); }
    std::uint64_t readOps() const { return readOps_.value(); }
    std::uint64_t sigFalsePositives() const
    {
        return sigFalsePositives_.value();
    }
    std::uint64_t deallocatedLines() const { return deallocs_.value(); }

    /**
     * Memory errors detected by the §3.1 integrity check: on every
     * DRAM line fetch the content hash is recomputed and compared to
     * the hash-bucket number the line was read from; a mismatch means
     * the stored bits no longer match the content the line was
     * allocated for.
     */
    std::uint64_t errorsDetected() const { return errorsDetected_.value(); }

    /**
     * DRAM row activations (paper §3.1: all DRAM commands of a lookup
     * target the same row — the hash bucket — minimizing command
     * bandwidth and energy). Each operation counts a row at most
     * once; compare against dram().total() to see ops per activation.
     */
    std::uint64_t rowActivations() const { return rowActs_.value(); }

    /**
     * Row activations attributed to one DRAM bank (= lock stripe:
     * operations in distinct stripes target independent rows, so a
     * stripe is the unit of DRAM-level serialization). The §5.1.1
     * scaling bench uses the per-bank distribution to model
     * bank-parallel throughput: commands within one bank serialize,
     * banks overlap.
     */
    std::uint64_t
    bankActivations(unsigned stripe) const
    {
        return bankActs_[stripe].value();
    }

    /// @name Memory-pressure model
    /// @{
    /** The deterministic fault injector driving this memory. */
    FaultInjector &faults() { return faults_; }
    const FaultInjector &faults() const { return faults_; }

    /** Contention telemetry shared by all commit-retry loops. */
    ContentionStats &contention() { return contention_; }
    const ContentionStats &contention() const { return contention_; }

    /** Retry shape the container layer should use. */
    const RetryPolicy &retryPolicy() const { return cfg_.retry; }

    /**
     * Pressure / contention counters as a stats-layer group
     * (oom_events, flip recovery tallies, commit conflict counters).
     */
    const StatGroup &pressureStats() const { return pressure_; }

    /**
     * This memory system's metrics registry (DESIGN.md §9): every
     * tally above — DRAM categories, cache hit/miss, dedup hits,
     * pressure and contention counters, line-store occupancy gauges —
     * registered under one named interface with snapshot/delta
     * semantics. Components layered on this memory (the segment map)
     * register their own metrics here and remove them by prefix
     * before dying.
     */
    obs::MetricsRegistry &metrics() { return metrics_; }
    const obs::MetricsRegistry &metrics() const { return metrics_; }

    /** Dedup hits: lookups answered by an already-live line. */
    std::uint64_t dedupHits() const { return dedupHits_.value(); }
    /** Lookups that had to walk the overflow pointer area. */
    std::uint64_t overflowWalks() const { return overflowWalks_.value(); }

    /** Allocation failures surfaced as MemPressureError. */
    std::uint64_t oomEvents() const { return oomEvents_.value(); }
    /** Injected DRAM flips caught by the §3.1 check and refetched. */
    std::uint64_t flipsRecovered() const
    {
        return flipsRecovered_.value();
    }
    /** Injected flips that hashed back to the same bucket (escapes). */
    std::uint64_t flipsSilent() const { return flipsSilent_.value(); }
    /// @}

    void resetTraffic();

    /**
     * Complete all pending writebacks without counting them, then
     * clear traffic counters: the measurement baseline for kernels
     * that run on an already-materialized data structure (the
     * conventional baseline likewise pays nothing for its setup).
     */
    void
    flushAndResetTraffic()
    {
        forEachL1([](HicampCache &l1) { l1.cleanAll(); });
        l2_.cleanAll();
        resetTraffic();
    }

    /**
     * Complete all pending writebacks without counting them, leaving
     * every traffic counter intact: the snapshot/delta phase baseline
     * (bench_obs.hh). Warmup traffic stays in the cumulative
     * counters; the measured phase is a registry delta, so nothing is
     * destroyed between phases.
     */
    void
    flushTraffic()
    {
        forEachL1([](HicampCache &l1) { l1.cleanAll(); });
        l2_.cleanAll();
    }

    /**
     * Cold-start a measurement: complete pending writebacks, drop all
     * cached lines and zero the traffic counters, so the next kernel
     * pays its compulsory misses exactly like a fresh baseline run.
     */
    void
    coldResetTraffic()
    {
        forEachL1([](HicampCache &l1) { l1.invalidateAll(); });
        l2_.invalidateAll();
        resetTraffic();
    }

    /**
     * Cold-start the caches without touching the traffic counters:
     * drop all cached lines so the next kernel pays its compulsory
     * misses, and measure the kernel as a registry delta
     * (bench_obs.hh) instead of resetting between phases.
     */
    void
    coldCaches()
    {
        forEachL1([](HicampCache &l1) { l1.invalidateAll(); });
        l2_.invalidateAll();
    }
    /// @}

  private:
    HICAMP_REF_PRIMITIVE Plid lookupImpl(const Line &content, bool *was_new);
    HICAMP_REF_PRIMITIVE void decRefImpl(Plid plid)
        HICAMP_EXCLUDES(lockrank::vsm);
    HICAMP_REF_PRIMITIVE void reclaim(Plid plid)
        HICAMP_EXCLUDES(lockrank::vsm);
    /** The calling thread's private L1, created on its first access
     *  (DESIGN.md §4.6). */
    HicampCache &threadL1();

    /** Visit every per-thread L1 created so far. */
    template <class Fn>
    void
    forEachL1(Fn &&fn) const
    {
        const unsigned bound = store_.epochDomain().slotBound();
        for (unsigned s = 0; s < bound; ++s)
            if (HicampCache *c = l1s_.bySlot[s].load(
                    std::memory_order_acquire))
                fn(*c);
    }

    /** Model a line fetch through L1/L2/DRAM, with §3.1 checking. */
    void modelLineFetch(Plid plid, std::uint64_t home,
                        const Line &content, DramCat cat);
    bool countWriteback(const HicampCache::Access &a);
    /** Touch a line's RC cache line; true if DRAM was accessed. */
    bool rcTouch(Plid plid);
    /** Count @p n row activations against @p home's DRAM bank. */
    void bankTouch(std::uint64_t home, std::uint64_t n = 1);

    /**
     * One private L1 per registered thread, the paper's per-processor
     * cache, indexed by the thread's epoch-record slot in store_'s
     * domain. Only a slot's current owner fills it (with a release
     * store, on its first access), and a thread that later claims
     * the slot inherits the L1, hits and misses included. Other
     * threads reach an L1 only through this table, to fan out
     * invalidations, flush or sum the tallies. Declared before
     * metrics_ so the caches outlive the registry's callbacks.
     */
    struct L1Table {
        HICAMP_ATOMIC_PUBLISH std::atomic<HicampCache *>
            bySlot[EpochManager::kMaxRecords] = {};

        L1Table() = default;
        L1Table(const L1Table &) = delete;
        L1Table &operator=(const L1Table &) = delete;
        ~L1Table();
    };

    MemoryConfig cfg_;
    LineStore store_;
    L1Table l1s_;
    HicampCache l2_;
    DramStats dram_;
    std::function<void(Vsid)> vsidRelease_;
    std::function<void(Plid)> lineFreed_;
    HICAMP_ATOMIC_COUNTER std::atomic<std::uint64_t> nextTransient_{1};

    // hicamp-lint: stat-ok(every counter below is registered into
    // metrics_ by registerMetrics(), called from the constructor)
    ShardedCounter lookupOps_;
    ShardedCounter readOps_;
    ShardedCounter sigFalsePositives_;
    ShardedCounter deallocs_;
    ShardedCounter errorsDetected_;
    ShardedCounter rowActs_;
    ShardedCounter dedupHits_;
    ShardedCounter overflowWalks_;
    /// per-bank (= per-stripe) share of rowActs_, for the scaling model
    std::unique_ptr<ShardedCounter[]> bankActs_;

    FaultInjector faults_;
    ContentionStats contention_;
    AtomicCounter oomEvents_;
    AtomicCounter flipsRecovered_;
    AtomicCounter flipsSilent_;
    StatGroup pressure_{"mem.pressure"};

    /// Declared last: destroyed first, so registered callbacks (which
    /// capture pointers into this object) are detached from the
    /// process-wide registry list before any counter dies.
    obs::MetricsRegistry metrics_{"mem"};
    /// candidate data-line probes per lookup (registry-owned)
    obs::Log2Histogram *candHist_ = nullptr;
    /// nanoseconds each retired line spent in limbo (§12 grace
    /// latency; registry-owned, fed by the store's grace observer)
    obs::Log2Histogram *graceHist_ = nullptr;

    void registerMetrics();
};

} // namespace hicamp

#endif // HICAMP_MEM_MEMORY_HH
