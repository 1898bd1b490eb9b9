/**
 * @file
 * Epoch-based safe memory reclamation for the line store
 * (DESIGN.md §12), in the style of ck_epoch: readers pin the global
 * epoch in a per-thread record for the duration of a lock-free read
 * section; writers retire storage into per-epoch limbo lists and
 * physically free a limbo batch only once every reader is known to
 * have observed a later epoch (a *grace period*). This is what lets
 * `readLine`/`refCount`/`isLive` and the dedup probe run with zero
 * locks while 1→0 retirement still reuses slots safely.
 *
 * Protocol summary (full derivation in DESIGN.md §12):
 *
 *  - Each registered thread owns one cache-line-padded Record. A
 *    record is *parked* (quiescent) whenever its pinned epoch is 0 —
 *    idle and exited threads are parked, so they never stall a grace
 *    period.
 *  - EpochGuard pins: `rec.epoch = globalEpoch` with a seq_cst
 *    store + fence *before* any protected load. Guards nest
 *    (re-entrant per thread); only the outermost unpin parks the
 *    record (release store of 0).
 *  - Writers retire via defer(): the callback lands in the limbo
 *    bucket tagged with the current epoch. tryAdvance() bumps the
 *    global epoch only when every non-parked record has observed the
 *    current one, then runs the limbo buckets whose tag is at least
 *    kGraceEpochs behind — by then no reader can still be inside a
 *    section that began before the retirement.
 *  - The TSan-visible ordering chain: a reader's protected loads are
 *    sequenced before its release store of 0 (or of a later epoch);
 *    the grace check acquire-loads that store; the physical free runs
 *    after the check. Deferred frees therefore never race reads that
 *    began before retirement.
 */

#ifndef HICAMP_MEM_EPOCH_HH
#define HICAMP_MEM_EPOCH_HH

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/atomic_annotations.hh"
#include "common/logging.hh"
#include "common/thread_annotations.hh"

namespace hicamp {

/**
 * One memory system's epoch domain: the global epoch, the per-thread
 * record table and the per-epoch limbo lists. Also a TSA capability
 * ("epoch", §7 rank 4): EpochGuard co-acquires `lockrank::epoch`, so
 * acquiring a stripe lock inside a pinned read section is a compile
 * error under `-Wthread-safety-beta`.
 *
 * Thread-safety: everything here is safe for concurrent use except
 * setGraceObserver(), which must run before concurrent use begins
 * (it is wired up once, from Memory's metric registration).
 */
class HICAMP_CAPABILITY("epoch") EpochManager
{
  public:
    /** Deferred physical free: fn(ctx, arg). Plain function pointer +
     *  context so retiring a line allocates nothing. */
    using DeferFn = void (*)(void *, std::uint64_t);

    /** Record-table capacity: upper bound on threads concurrently
     *  *registered* in one domain (slots recycle on thread exit). */
    static constexpr unsigned kMaxRecords = 512;
    /** Epochs a retirement must age before it may drain: an item
     *  tagged g frees only once the global epoch reaches g+3, which
     *  puts at least one full grace check after any reader whose pin
     *  raced the retirement (§12 derives the bound). */
    static constexpr std::uint64_t kGraceEpochs = 3;

    explicit EpochManager(unsigned batch_size = 32)
        : batchSize_(batch_size ? batch_size : 1)
    {
        state_ = std::make_shared<State>();
        state_->serial =
            serialCounter_.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    /**
     * The owner must drain limbo (drainAllUnsafe at a point with no
     * concurrent readers) before destruction: deferred callbacks
     * reference the owning store's slots.
     */
    ~EpochManager()
    {
        HICAMP_DEBUG_ASSERT(limboDepth() == 0,
                            "EpochManager died with limbo entries; "
                            "owner must drainAllUnsafe() first");
    }

    EpochManager(const EpochManager &) = delete;
    EpochManager &operator=(const EpochManager &) = delete;

    /// @name Read side (used by EpochGuard)
    /// @{

    /**
     * Enter a read-side section: pin this thread's record at the
     * current global epoch (outermost entry only; nested entries just
     * deepen the per-thread count). Never blocks.
     */
    void
    enter()
    {
        Record &r = threadRecord();
        if (r.nesting++ != 0)
            return; // re-entrant: already pinned
        // Stable-pin loop (Fraser): publish the pin, fence, and
        // re-read until the global epoch held still across the
        // fence. On exit the pin equals an epoch observed *after*
        // the fence, which is what the §12 safety proof needs: any
        // retirement this section could still reach either parks
        // its free behind a grace check that sees this record, or
        // its unpublish is already visible to our reads. The loop
        // terminates because a half-published stale pin blocks
        // further advances as soon as a grace check sees it.
        std::uint64_t e = state_->global.load(std::memory_order_seq_cst);
        for (;;) {
            r.epoch.store(e, std::memory_order_seq_cst);
            // hicamp-atomic: waive(stable-pin fence (§12): orders the
            // pin store before the global re-read so pin and advance
            // cannot both miss each other)
            std::atomic_thread_fence(std::memory_order_seq_cst);
            const std::uint64_t cur =
                state_->global.load(std::memory_order_seq_cst);
            if (cur == e)
                break;
            e = cur; // an advance raced the pin: re-pin and retry
        }
    }

    /** Leave a read-side section; the outermost exit parks the
     *  record (release: orders the section's loads before any
     *  subsequent grace check that observes the park). */
    void
    exit()
    {
        Record &r = threadRecord();
        HICAMP_DEBUG_ASSERT(r.nesting > 0, "epoch exit() underflow");
        if (--r.nesting == 0)
            r.epoch.store(0, std::memory_order_release);
    }

    /** True while the calling thread is inside a guard on this
     *  domain (debug contract checks on lock-free read paths). */
    bool
    activeOnThisThread() const
    {
        Record *r = findThreadRecord();
        return r && r->nesting > 0;
    }

    /**
     * The calling thread's record slot, claimed on first use and
     * released at thread exit: a dense index below slotBound() that a
     * later thread reuses once this one has exited. Memory keys its
     * per-thread L1 caches by it.
     */
    unsigned
    threadSlot()
    {
        return static_cast<unsigned>(&threadRecord() -
                                     state_->recs.data());
    }

    /** Exclusive bound on every slot claimed so far. */
    unsigned
    slotBound() const
    {
        return state_->highWater.load(std::memory_order_acquire);
    }
    /// @}

    /// @name Write side
    /// @{

    /**
     * Retire storage: run `fn(ctx, arg)` once no reader that could
     * have observed the storage remains. Callbacks run on whichever
     * thread triggers the drain, with no limbo lock held — they may
     * take stripe locks but must not re-enter defer()'s domain
     * recursively on the same storage.
     */
    void
    defer(DeferFn fn, void *ctx, std::uint64_t arg)
    {
        // Retirement fence (§12): the caller's unpublish stores are
        // sequenced before this fence, and the epoch tag below is a
        // seq_cst load *after* it. A reader whose stable pin lands at
        // tag+1 or later therefore provably sees the unpublish, and a
        // reader pinned at or before the tag holds the drain back —
        // the two cases the grace bound is proved from.
        // hicamp-atomic: waive(retirement fence (§12): orders the
        // caller's unpublish stores before the epoch tag load)
        std::atomic_thread_fence(std::memory_order_seq_cst);
        const auto now = std::chrono::steady_clock::now();
        std::lock_guard<std::mutex> g(state_->limboMu);
        // The epoch tag is read under the limbo lock so an item can
        // never be tagged older than any drain decision that already
        // swept the list.
        const std::uint64_t e =
            state_->global.load(std::memory_order_seq_cst);
        state_->limbo.push_back(Deferred{fn, ctx, arg, e, now});
        depth_.fetch_add(1, std::memory_order_relaxed);
        pending_.fetch_add(1, std::memory_order_relaxed);
    }

    /**
     * One epoch step: succeeds iff every non-parked record has
     * observed the current epoch, then drains every limbo bucket at
     * least kGraceEpochs old. Never blocks; returns whether the
     * epoch moved.
     */
    bool
    tryAdvance()
    {
        std::uint64_t e =
            state_->global.load(std::memory_order_seq_cst);
        // hicamp-atomic: waive(grace-check fence (§12): orders the
        // global read before the per-record pin scan so a pin that
        // raced the read is seen by the scan)
        std::atomic_thread_fence(std::memory_order_seq_cst);
        const unsigned hwm =
            state_->highWater.load(std::memory_order_acquire);
        for (unsigned i = 0; i < hwm; ++i) {
            const std::uint64_t le =
                state_->recs[i].epoch.load(std::memory_order_acquire);
            if (le != 0 && le != e)
                return false; // a reader has not observed e yet
        }
        if (!state_->global.compare_exchange_strong(
                e, e + 1, std::memory_order_acq_rel,
                std::memory_order_relaxed))
            return false; // another writer advanced; let it drain
        advances_.fetch_add(1, std::memory_order_relaxed);
        pending_.store(0, std::memory_order_relaxed);
        drainExpired(e + 1);
        return true;
    }

    /** Batched advance: step the epoch only once batchSize_
     *  retirements have accumulated since the last advance. The
     *  caller must not hold any stripe lock (drained callbacks
     *  reacquire stripes). */
    void
    maybeAdvance()
    {
        // hicamp-lint: relaxed-ok(batching heuristic only; a stale
        // read merely delays the advance to the next retirement)
        if (pending_.load(std::memory_order_relaxed) >= batchSize_)
            tryAdvance();
    }

    /**
     * Drive the epoch far enough that every retirement deferred
     * before the call is freed — provided no reader stays pinned
     * throughout (a pinned reader legitimately holds limbo back; the
     * call then frees what it can and returns). Returns the number
     * of deferred frees executed. Safe to call from a thread that is
     * itself inside a guard: it returns after the partial drain
     * rather than spinning on its own pin.
     */
    std::size_t
    synchronize()
    {
        const std::uint64_t before =
            frees_.load(std::memory_order_relaxed);
        for (unsigned step = 0;
             step <= kGraceEpochs && limboDepth() != 0; ++step) {
            if (!tryAdvance())
                break;
        }
        return static_cast<std::size_t>(
            frees_.load(std::memory_order_relaxed) - before);
    }

    /**
     * Destruction-time drain: run every deferred callback with no
     * grace-period check. Only legal once no concurrent readers can
     * exist (the owning store's destructor, after threads joined).
     */
    void
    drainAllUnsafe()
    {
        std::vector<Deferred> work;
        {
            std::lock_guard<std::mutex> g(state_->limboMu);
            work.swap(state_->limbo);
        }
        runDeferred(work);
    }
    /// @}

    /// @name Introspection / metrics (DESIGN.md §9)
    /// @{
    std::uint64_t
    epoch() const
    {
        // hicamp-atomic: waive(metrics snapshot: a stale epoch value
        // is fine, no protocol decision is taken on it)
        return state_->global.load(std::memory_order_relaxed);
    }
    /** Successful epoch advances (`epoch.advances`). */
    std::uint64_t
    advances() const
    {
        return advances_.load(std::memory_order_relaxed);
    }
    /** Deferred callbacks executed (`epoch.deferred_frees`). */
    std::uint64_t
    deferredFrees() const
    {
        return frees_.load(std::memory_order_relaxed);
    }
    /** Retirements currently parked in limbo (`epoch.limbo_depth`). */
    std::size_t
    limboDepth() const
    {
        return depth_.load(std::memory_order_relaxed);
    }
    unsigned batchSize() const { return batchSize_; }

    /**
     * Observer for grace-period latency: called once per executed
     * deferred free with the nanoseconds the item spent in limbo.
     * Install before concurrent use (Memory's metric registration
     * wires it to the `epoch.grace_ns` histogram).
     */
    void
    setGraceObserver(std::function<void(std::uint64_t)> fn)
    {
        graceObserver_ = std::move(fn);
    }

    /**
     * Visit every retirement currently in limbo (auditor support:
     * limbo lines are live-but-retired, never dangling). The visitor
     * runs under the limbo lock — it must not defer or advance.
     */
    void
    forEachDeferred(
        const std::function<void(DeferFn, void *, std::uint64_t)> &fn)
        const
    {
        std::lock_guard<std::mutex> g(state_->limboMu);
        for (const Deferred &d : state_->limbo)
            fn(d.fn, d.ctx, d.arg);
    }
    /// @}

  private:
    friend class EpochGuard;
    friend struct EpochThreadSlots; // thread-exit slot release

    /** One thread's pin state, padded so records never share a cache
     *  line (the grace check scans them; readers write them). */
    struct alignas(64) Record {
        /** 0 = parked (quiescent); else the pinned global epoch. */
        HICAMP_ATOMIC_EPOCH std::atomic<std::uint64_t> epoch{0};
        /** Slot owner token; 0 = free. Claim/release hand-off is the
         *  acq_rel CAS, so `nesting` below needs no atomicity. */
        HICAMP_ATOMIC_CLAIM_CAS std::atomic<std::uint64_t> owner{0};
        /** Guard re-entrancy depth; touched only by the owner. */
        std::uint32_t nesting = 0;
    };

    struct Deferred {
        DeferFn fn;
        void *ctx;
        std::uint64_t arg;
        std::uint64_t epoch; ///< global epoch at retirement
        std::chrono::steady_clock::time_point retiredAt;
    };

    /**
     * Shared between the manager and thread-exit hooks: a thread's
     * cached record pointer stays releasable exactly as long as the
     * domain lives (thread-local destructors hold a weak_ptr).
     */
    struct State {
        HICAMP_ATOMIC_EPOCH std::atomic<std::uint64_t> global{1};
        HICAMP_ATOMIC_CLAIM_CAS std::atomic<unsigned> highWater{0};
        std::array<Record, kMaxRecords> recs;
        std::mutex limboMu;
        std::vector<Deferred> limbo; // guarded by limboMu
        std::uint64_t serial = 0;    ///< process-unique domain id
    };

    /** This thread's record in this domain, claiming a slot on first
     *  use (released again by the thread-exit hook). */
    Record &threadRecord();
    /** Cached record, or nullptr if this thread never entered. */
    Record *findThreadRecord() const;

    /** Drain every item tagged >= kGraceEpochs behind @p new_epoch;
     *  callbacks run outside the limbo lock. */
    void
    drainExpired(std::uint64_t new_epoch)
    {
        std::vector<Deferred> work;
        {
            std::lock_guard<std::mutex> g(state_->limboMu);
            auto &l = state_->limbo;
            auto keep = std::stable_partition(
                l.begin(), l.end(), [new_epoch](const Deferred &d) {
                    return d.epoch + kGraceEpochs > new_epoch;
                });
            work.assign(keep, l.end());
            l.erase(keep, l.end());
        }
        runDeferred(work);
    }

    void
    runDeferred(std::vector<Deferred> &work)
    {
        if (work.empty())
            return;
        const auto now = std::chrono::steady_clock::now();
        for (const Deferred &d : work) {
            d.fn(d.ctx, d.arg);
            if (graceObserver_)
                graceObserver_(static_cast<std::uint64_t>(
                    std::chrono::duration_cast<
                        std::chrono::nanoseconds>(now - d.retiredAt)
                        .count()));
        }
        depth_.fetch_sub(work.size(), std::memory_order_relaxed);
        frees_.fetch_add(work.size(), std::memory_order_relaxed);
    }

    std::shared_ptr<State> state_;
    unsigned batchSize_;
    HICAMP_ATOMIC_COUNTER std::atomic<std::uint64_t> advances_{0};
    HICAMP_ATOMIC_COUNTER std::atomic<std::uint64_t> frees_{0};
    HICAMP_ATOMIC_COUNTER std::atomic<std::size_t> depth_{0};
    HICAMP_ATOMIC_COUNTER std::atomic<std::uint64_t> pending_{0};
    std::function<void(std::uint64_t)> graceObserver_;

    HICAMP_ATOMIC_COUNTER static std::atomic<std::uint64_t> serialCounter_;
};

/**
 * RAII read-side section (§12): pins the calling thread's epoch
 * record for its extent. Re-entrant per thread and never blocking.
 * Co-acquires `lockrank::epoch` (§7 rank 4), making any stripe-lock
 * acquisition inside the section a `-Wthread-safety-beta` ordering
 * error — the machine-checked form of "read sections are lock-free".
 */
class HICAMP_SCOPED_CAPABILITY EpochGuard
{
  public:
    explicit EpochGuard(EpochManager &m)
        HICAMP_ACQUIRE_SHARED(m, lockrank::epoch)
        : mgr_(m)
    {
        mgr_.enter();
    }
    ~EpochGuard() HICAMP_RELEASE_GENERIC() { mgr_.exit(); }

    EpochGuard(const EpochGuard &) = delete;
    EpochGuard &operator=(const EpochGuard &) = delete;

  private:
    EpochManager &mgr_;
};

} // namespace hicamp

#endif // HICAMP_MEM_EPOCH_HH
