/**
 * @file
 * Clang Thread Safety Analysis as a first-class capability model for
 * the sharded memory system (DESIGN.md §7/§8).
 *
 * Three layers live here:
 *
 *  1. `HICAMP_*` annotation macros wrapping clang's thread-safety
 *     attributes. Under any compiler without the attributes (GCC,
 *     MSVC) they expand to nothing, so the annotated code is plain
 *     C++ everywhere and a *capability-checked* dialect under
 *     `clang++ -Wthread-safety -Wthread-safety-beta -Werror` (the CI
 *     `thread-safety` job and the `HICAMP_THREAD_SAFETY` CMake
 *     option).
 *
 *  2. Annotated capability wrappers around the primitives the memory
 *     system actually uses: `CapMutex` / `CapSharedMutex` (std types
 *     are not annotated when libstdc++ provides them), the striped
 *     `StripeBank` the line store's bucket locks live in, the
 *     spinlock `SpinBank` guarding cache sets, and the `SeqCount`
 *     seqlock publishing VSM descriptors. Plus the matching RAII
 *     guards (`CapLockGuard`, `StripeExclusive`, `StripeShared`,
 *     ...), which are `SCOPED_CAPABILITY` so the analysis tracks
 *     their extent.
 *
 *  3. The DESIGN.md §7 lock order as *declared edges*: never-locked
 *     `LockRank` anchor objects, one per rank, chained with
 *     `ACQUIRED_AFTER`. Every guard co-acquires its rank's anchor
 *     alongside the real lock, so acquiring a stripe lock while a
 *     leaf-rank lock is held contradicts the declared DAG and is a
 *     compile error under `-Wthread-safety-beta`. The anchors are
 *     phantom capabilities — no code ever locks one at runtime.
 *     `tools/lint/hicamp_lint.py` cross-checks the edge list declared
 *     here against the prose order in DESIGN.md §7.
 */

#ifndef HICAMP_COMMON_THREAD_ANNOTATIONS_HH
#define HICAMP_COMMON_THREAD_ANNOTATIONS_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "common/atomic_annotations.hh"

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define HICAMP_TSA(x) __attribute__((x))
#endif
#endif
#ifndef HICAMP_TSA
#define HICAMP_TSA(x) // thread-safety attributes: clang only
#endif

/** Class is a capability (lockable); @p x names its kind. */
#define HICAMP_CAPABILITY(x) HICAMP_TSA(capability(x))
/** Class is an RAII object whose lifetime holds capabilities. */
#define HICAMP_SCOPED_CAPABILITY HICAMP_TSA(scoped_lockable)

/** Field may only be accessed while holding capability @p x. */
#define HICAMP_GUARDED_BY(x) HICAMP_TSA(guarded_by(x))
/** Pointed-to data may only be accessed while holding @p x. */
#define HICAMP_PT_GUARDED_BY(x) HICAMP_TSA(pt_guarded_by(x))

/** DESIGN.md §7 lock-order edges, declared on the capability. */
#define HICAMP_ACQUIRED_BEFORE(...) HICAMP_TSA(acquired_before(__VA_ARGS__))
#define HICAMP_ACQUIRED_AFTER(...) HICAMP_TSA(acquired_after(__VA_ARGS__))

/** Caller must hold the capability exclusively / shared. */
#define HICAMP_REQUIRES(...) \
    HICAMP_TSA(requires_capability(__VA_ARGS__))
#define HICAMP_REQUIRES_SHARED(...) \
    HICAMP_TSA(requires_shared_capability(__VA_ARGS__))

/** Function acquires / releases the capability. */
#define HICAMP_ACQUIRE(...) HICAMP_TSA(acquire_capability(__VA_ARGS__))
#define HICAMP_ACQUIRE_SHARED(...) \
    HICAMP_TSA(acquire_shared_capability(__VA_ARGS__))
#define HICAMP_RELEASE(...) HICAMP_TSA(release_capability(__VA_ARGS__))
#define HICAMP_RELEASE_SHARED(...) \
    HICAMP_TSA(release_shared_capability(__VA_ARGS__))
#define HICAMP_RELEASE_GENERIC(...) \
    HICAMP_TSA(release_generic_capability(__VA_ARGS__))
#define HICAMP_TRY_ACQUIRE(...) \
    HICAMP_TSA(try_acquire_capability(__VA_ARGS__))
#define HICAMP_TRY_ACQUIRE_SHARED(...) \
    HICAMP_TSA(try_acquire_shared_capability(__VA_ARGS__))

/** Caller must NOT hold the capability (deadlock guard). */
#define HICAMP_EXCLUDES(...) HICAMP_TSA(locks_excluded(__VA_ARGS__))

/** Function returns a reference to the capability guarding it. */
#define HICAMP_RETURN_CAPABILITY(x) HICAMP_TSA(lock_returned(x))
/** Runtime assertion that the capability is held. */
#define HICAMP_ASSERT_CAPABILITY(x) HICAMP_TSA(assert_capability(x))

/**
 * Escape hatch for protocol-safe code the lock model cannot express:
 * seqlock readers and publication-ordered lock-free reads. Every use
 * must cite the DESIGN.md §7 protocol that makes it sound.
 */
#define HICAMP_NO_THREAD_SAFETY_ANALYSIS \
    HICAMP_TSA(no_thread_safety_analysis)

namespace hicamp {

/**
 * A never-locked phantom capability anchoring one rank of the
 * DESIGN.md §7 lock order. Guards co-acquire their rank's anchor so
 * rank inversions surface as `-Wthread-safety-beta` ordering errors
 * even across classes that cannot name each other's members.
 */
class HICAMP_CAPABILITY("lock_rank") LockRank
{
};

/**
 * The §7 order, outermost first (a thread may only acquire locks of
 * strictly later rank than those it holds; rank 1 is retired, and
 * the rest keep their numbers because comments cite them):
 *   rank 2  vsm    — SegmentMap::mapMutex_ (+ the per-slot seqlock
 *           write side, entered only under it)
 *   rank 3  stripe — LineStore bucket stripes
 *   rank 4  epoch  — read-side epoch guards (mem/epoch.hh). Never a
 *           blocking lock; ranked so that acquiring a stripe *inside*
 *           an epoch-pinned read section is a compile error — the §12
 *           protocol requires read sections to stay lock-free, and a
 *           stripe acquired under a pinned epoch could deadlock
 *           against a writer flushing limbo (which reacquires
 *           stripes). Taking a guard while *holding* a stripe is
 *           fine (retire pins after locking).
 *   rank 5  leaf   — cache set spinlocks, the fault-injector mutex,
 *           stats shards (lock-free; listed for completeness)
 *   rank 6  server — the serving front-end's per-connection output
 *           locks (src/server/). Terminal by design: a worker fully
 *           materializes its responses against the heap FIRST and
 *           only then locks the connection to append them, so a heap
 *           entry (which may acquire vsm/stripe/leaf locks) while a
 *           connection lock is held inverts the declared order and is
 *           a compile error — "never call into the heap under a
 *           connection lock" as a checked contract, not a comment.
 */
namespace lockrank {
inline LockRank vsm;
inline LockRank stripe HICAMP_ACQUIRED_AFTER(vsm);
inline LockRank epoch HICAMP_ACQUIRED_AFTER(stripe);
inline LockRank leaf HICAMP_ACQUIRED_AFTER(epoch);
inline LockRank server HICAMP_ACQUIRED_AFTER(leaf);
} // namespace lockrank

/** std::mutex as an annotated capability. */
class HICAMP_CAPABILITY("mutex") CapMutex
{
  public:
    void lock() HICAMP_ACQUIRE() { mu_.lock(); }
    void unlock() HICAMP_RELEASE() { mu_.unlock(); }
    bool try_lock() HICAMP_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  private:
    std::mutex mu_;
};

/** std::shared_mutex as an annotated capability. */
class HICAMP_CAPABILITY("shared_mutex") CapSharedMutex
{
  public:
    void lock() HICAMP_ACQUIRE() { mu_.lock(); }
    void unlock() HICAMP_RELEASE() { mu_.unlock(); }
    void lock_shared() HICAMP_ACQUIRE_SHARED() { mu_.lock_shared(); }
    void unlock_shared() HICAMP_RELEASE_SHARED() { mu_.unlock_shared(); }

  private:
    std::shared_mutex mu_;
};

/**
 * RAII exclusive lock over a CapMutex, co-acquiring the mutex's §7
 * rank anchor so ordering violations are visible to the analysis.
 */
class HICAMP_SCOPED_CAPABILITY CapLockGuard
{
  public:
    CapLockGuard(CapMutex &m, [[maybe_unused]] LockRank &rank)
        HICAMP_ACQUIRE(m, rank)
        : mu_(m)
    {
        mu_.lock();
    }
    ~CapLockGuard() HICAMP_RELEASE() { mu_.unlock(); }

    CapLockGuard(const CapLockGuard &) = delete;
    CapLockGuard &operator=(const CapLockGuard &) = delete;

  private:
    CapMutex &mu_;
};

/**
 * The line store's striped `shared_mutex` bank (stripe = modelled
 * DRAM bank). The analysis cannot track per-index locks, so the whole
 * bank is ONE capability: holding *any* stripe satisfies a
 * `HICAMP_REQUIRES(bank)` contract. That is sound here because the
 * store's protocol never nests two stripes and every guarded access
 * is to state of the stripe actually locked (DESIGN.md §8).
 */
class HICAMP_CAPABILITY("shared_mutex") StripeBank
{
  public:
    explicit StripeBank(unsigned n)
        : mus_(std::make_unique<std::shared_mutex[]>(n))
    {
    }

    void lock(unsigned i) HICAMP_ACQUIRE() { mus_[i].lock(); }
    void unlock(unsigned i) HICAMP_RELEASE() { mus_[i].unlock(); }
    void lockShared(unsigned i) HICAMP_ACQUIRE_SHARED()
    {
        mus_[i].lock_shared();
    }
    void unlockShared(unsigned i) HICAMP_RELEASE_SHARED()
    {
        mus_[i].unlock_shared();
    }

  private:
    std::unique_ptr<std::shared_mutex[]> mus_;
};

/** RAII exclusive hold of one stripe (rank 3 in the §7 order). */
class HICAMP_SCOPED_CAPABILITY StripeExclusive
{
  public:
    StripeExclusive(StripeBank &b, unsigned i)
        HICAMP_ACQUIRE(b, lockrank::stripe)
        : bank_(b), idx_(i)
    {
        bank_.lock(idx_);
    }
    ~StripeExclusive() HICAMP_RELEASE() { bank_.unlock(idx_); }

    StripeExclusive(const StripeExclusive &) = delete;
    StripeExclusive &operator=(const StripeExclusive &) = delete;

  private:
    StripeBank &bank_;
    unsigned idx_;
};

/** RAII shared hold of one stripe (rank 3 in the §7 order). */
class HICAMP_SCOPED_CAPABILITY StripeShared
{
  public:
    StripeShared(StripeBank &b, unsigned i)
        HICAMP_ACQUIRE_SHARED(b, lockrank::stripe)
        : bank_(b), idx_(i)
    {
        bank_.lockShared(idx_);
    }
    ~StripeShared() HICAMP_RELEASE_GENERIC() { bank_.unlockShared(idx_); }

    StripeShared(const StripeShared &) = delete;
    StripeShared &operator=(const StripeShared &) = delete;

  private:
    StripeBank &bank_;
    unsigned idx_;
};

/**
 * A bank of cache-line-padded test-and-set spinlocks (§7 rank 4,
 * leaf): the HICAMP cache's set locks. Like StripeBank, the whole
 * bank is ONE capability — set locks are leaves, never nested with
 * each other or anything below them.
 */
class HICAMP_CAPABILITY("spinlock") SpinBank
{
  public:
    explicit SpinBank(unsigned n) : locks_(new PaddedFlag[n]) {}

    void
    lock(unsigned i) HICAMP_ACQUIRE()
    {
        HICAMP_ATOMIC_FLAG std::atomic_flag &f = locks_[i].flag;
        while (f.test_and_set(std::memory_order_acquire)) {
            // Spin on a plain load (no cache-line ping-pong),
            // yielding periodically so a descheduled holder on an
            // oversubscribed core can make progress.
            unsigned spins = 0;
            while (f.test(std::memory_order_relaxed)) {
                if (++spins == 64) {
                    spins = 0;
                    std::this_thread::yield();
                }
            }
        }
    }
    void
    unlock(unsigned i) HICAMP_RELEASE()
    {
        locks_[i].flag.clear(std::memory_order_release);
    }

  private:
    struct alignas(64) PaddedFlag {
        HICAMP_ATOMIC_FLAG std::atomic_flag flag = ATOMIC_FLAG_INIT;
    };
    std::unique_ptr<PaddedFlag[]> locks_;
};

/**
 * Boehm-style seqlock sequence counter, as a capability: the write
 * side is an exclusive critical section (entered only under the
 * owning structure's writer mutex), the read side is the standard
 * optimistic read/validate pair and holds nothing. Sibling fields
 * published through the counter are `HICAMP_GUARDED_BY(seq)`; their
 * lock-free readers carry `HICAMP_NO_THREAD_SAFETY_ANALYSIS` with a
 * pointer at this protocol (DESIGN.md §7 "VSM roots are
 * seqlock-published").
 */
class HICAMP_CAPABILITY("seqlock") SeqCount
{
  public:
    /** Open the write critical section: bump to odd, fence. */
    // hicamp-atomic: primitive(seqlock write-side entry: the odd
    // bump may be relaxed because writers are externally serialized;
    // the release fence orders it before the section's field stores)
    void
    writeBegin() HICAMP_ACQUIRE()
    {
        const std::uint32_t s0 = v_.load(std::memory_order_relaxed);
        v_.store(s0 + 1, std::memory_order_relaxed);
        // hicamp-atomic: waive(seqlock protocol fence: orders the odd
        // bump before the guarded field stores for readers)
        std::atomic_thread_fence(std::memory_order_release);
    }

    /** Publish: bump back to even with release ordering. */
    // hicamp-atomic: primitive(seqlock write-side exit: the release
    // store of the even count publishes the section's field stores)
    void
    writeEnd() HICAMP_RELEASE()
    {
        v_.store(v_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_release);
    }

    /** Reader: current sequence (acquire; odd = writer in flight). */
    // hicamp-atomic: primitive(seqlock read-side entry: acquire pairs
    // with writeEnd's release so the guarded loads see a count's
    // fields; callers loop on readBegin/validate)
    std::uint32_t
    readBegin() const
    {
        return v_.load(std::memory_order_acquire);
    }

    /** Reader: true if the fields read since readBegin() are a
     *  consistent snapshot of sequence @p s1. */
    // hicamp-atomic: primitive(seqlock read-side exit: the acquire
    // fence orders the guarded loads before the re-check, so an
    // unchanged even count proves an untorn snapshot)
    bool
    validate(std::uint32_t s1) const
    {
        // hicamp-atomic: waive(seqlock protocol fence: keeps the
        // guarded field loads from sinking below the re-check)
        std::atomic_thread_fence(std::memory_order_acquire);
        return v_.load(std::memory_order_relaxed) == s1;
    }

  private:
    HICAMP_ATOMIC_SEQLOCK std::atomic<std::uint32_t> v_{0};
};

} // namespace hicamp

#endif // HICAMP_COMMON_THREAD_ANNOTATIONS_HH
