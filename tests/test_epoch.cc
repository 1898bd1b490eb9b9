/**
 * @file
 * Epoch-based reclamation tests (DESIGN.md §12): grace-period
 * protocol on a bare EpochManager, limbo semantics on the line
 * store, the Memory-level integration (metrics, tryAcquire
 * revalidation, fault-injected allocation failure with lines parked
 * in limbo) and a read/retire hammer that the CI TSan job runs to
 * prove the lock-free read paths race-free.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "analysis/auditor.hh"
#include "common/rng.hh"
#include "mem/epoch.hh"
#include "mem/line_store.hh"
#include "mem/memory.hh"
#include "mem/plid_ref.hh"

namespace hicamp {
namespace {

Line
lineOf(unsigned words, Word a, Word b = 0)
{
    Line l(words);
    l.set(0, a);
    if (words > 1)
        l.set(1, b);
    return l;
}

void
bumpCounter(void *ctx, std::uint64_t arg)
{
    static_cast<std::atomic<std::uint64_t> *>(ctx)->fetch_add(arg);
}

TEST(Epoch, DeferredFreeWaitsForGrace)
{
    EpochManager m(/*batch_size=*/1);
    std::atomic<std::uint64_t> freed{0};
    m.defer(&bumpCounter, &freed, 1);
    EXPECT_EQ(m.limboDepth(), 1u);
    EXPECT_EQ(freed.load(), 0u); // never freed synchronously

    // No reader is pinned, so a synchronize drives the epoch through
    // a full grace period and runs the callback.
    const std::size_t ran = m.synchronize();
    EXPECT_EQ(ran, 1u);
    EXPECT_EQ(freed.load(), 1u);
    EXPECT_EQ(m.limboDepth(), 0u);
    EXPECT_EQ(m.deferredFrees(), 1u);
    EXPECT_GE(m.advances(), 1u);
}

TEST(Epoch, PinnedReaderHoldsLimboBack)
{
    EpochManager m(1);
    std::atomic<std::uint64_t> freed{0};

    m.enter(); // pin this thread's record
    m.defer(&bumpCounter, &freed, 1);

    // A writer on another thread cannot complete a grace period while
    // the reader stays pinned: at most one advance (to a newer epoch)
    // succeeds, after which the stale pin blocks the next check.
    std::thread w([&] { m.synchronize(); });
    w.join();
    EXPECT_EQ(freed.load(), 0u);
    EXPECT_EQ(m.limboDepth(), 1u);

    m.exit(); // quiescent: the grace period can now expire
    m.synchronize();
    EXPECT_EQ(freed.load(), 1u);
    EXPECT_EQ(m.limboDepth(), 0u);
}

TEST(Epoch, ParkedThreadsDoNotBlockGrace)
{
    EpochManager m(1);
    std::atomic<std::uint64_t> freed{0};

    // A thread that has *registered* (entered and exited a guard) but
    // is now idle must never stall a grace period: its record is
    // parked (epoch 0) and the grace check skips it.
    std::mutex mu;
    std::condition_variable cv;
    bool registered = false, done = false;
    std::thread idle([&] {
        {
            EpochGuard g(m); // claim a record, then park
        }
        std::unique_lock<std::mutex> lk(mu);
        registered = true;
        cv.notify_all();
        cv.wait(lk, [&] { return done; });
    });
    {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return registered; });
    }

    // The idle thread is alive and registered; grace must still
    // expire entirely on this thread's synchronize.
    m.defer(&bumpCounter, &freed, 1);
    m.synchronize();
    EXPECT_EQ(freed.load(), 1u);

    {
        std::lock_guard<std::mutex> lk(mu);
        done = true;
    }
    cv.notify_all();
    idle.join();
}

TEST(Epoch, GuardReentrancy)
{
    EpochManager m;
    EXPECT_FALSE(m.activeOnThisThread());
    {
        EpochGuard outer(m);
        EXPECT_TRUE(m.activeOnThisThread());
        {
            EpochGuard inner(m); // nests: deepens, does not re-pin
            EXPECT_TRUE(m.activeOnThisThread());
        }
        // The inner exit must not have parked the record.
        EXPECT_TRUE(m.activeOnThisThread());
    }
    EXPECT_FALSE(m.activeOnThisThread());
}

TEST(Epoch, GraceObserverReportsLatency)
{
    EpochManager m(1);
    std::vector<std::uint64_t> latencies;
    m.setGraceObserver([&](std::uint64_t ns) { latencies.push_back(ns); });
    std::atomic<std::uint64_t> freed{0};
    m.defer(&bumpCounter, &freed, 1);
    m.synchronize();
    ASSERT_EQ(latencies.size(), 1u); // one executed free, one sample
}

TEST(Epoch, LimboLineSurvivesReadBegunBeforeRetirement)
{
    LineStore s(1 << 10, 2);
    const Line content = lineOf(2, 77, 88);
    auto r = s.findOrInsert(content);

    std::mutex mu;
    std::condition_variable cv;
    bool pinned = false, retired = false;
    Line before(2), after(2);

    std::thread reader([&] {
        EpochGuard g(s.epochDomain());
        before = s.read(r.plid); // read begins before retirement
        {
            std::lock_guard<std::mutex> lk(mu);
            pinned = true;
        }
        cv.notify_all();
        {
            std::unique_lock<std::mutex> lk(mu);
            cv.wait(lk, [&] { return retired; });
        }
        // The slot is now retired and (at most) in limbo; a read
        // section that began before the retirement must still see
        // the content intact — the §12 limbo invariant.
        after = s.read(r.plid);
    });

    {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return pinned; });
    }
    s.freeLine(r.plid);
    EXPECT_FALSE(s.isLive(r.plid));
    EXPECT_EQ(s.limboLines(), 1u);
    // The pinned reader holds the grace period back: the slot must
    // not be physically reclaimed by this synchronize.
    s.epochSynchronize();
    EXPECT_EQ(s.limboLines(), 1u);
    {
        std::lock_guard<std::mutex> lk(mu);
        retired = true;
    }
    cv.notify_all();
    reader.join();

    EXPECT_EQ(before, content);
    EXPECT_EQ(after, content);

    // Reader gone: grace expires, the slot returns to service.
    s.epochSynchronize();
    EXPECT_EQ(s.limboLines(), 0u);
    auto r2 = s.findOrInsert(content);
    EXPECT_FALSE(r2.found);
    EXPECT_EQ(r2.plid, r.plid); // same way, recycled after grace
}

/**
 * TSan hammer: readers traverse lock-free under guards while writers
 * insert and retire the same PLIDs. The invariant checked inside
 * each guard is self-consistency — whatever content a pinned read
 * returns must hash to the bucket the line is stored in — which
 * fails loudly if a read ever races a physical free (recycled or
 * cleared storage).
 */
TEST(EpochHammer, ConcurrentReadRetireChurn)
{
    LineStore s(1 << 8, 2);
    constexpr int kWriters = 2;
    constexpr int kReaders = 2;
    constexpr int kSlots = 64;
    constexpr int kRounds = 400;

    std::vector<std::atomic<Plid>> slots(kSlots);
    for (auto &p : slots)
        p.store(kZeroPlid);
    std::atomic<bool> stop{false};

    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
        threads.emplace_back([&, w] {
            Rng rng(900 + w);
            for (int i = 0; i < kRounds; ++i) {
                const int slot = w * (kSlots / kWriters) +
                                 static_cast<int>(
                                     rng.below(kSlots / kWriters));
                const Plid old =
                    slots[slot].exchange(kZeroPlid);
                if (old != kZeroPlid && s.addRef(old, -1) == 0)
                    s.retire(old);
                const Word v = static_cast<Word>(
                    (static_cast<Word>(w) << 32) | (i + 1));
                auto r = s.findOrInsert(lineOf(2, v, v * 3),
                                        /*take_ref=*/true);
                ASSERT_EQ(r.status, MemStatus::Ok);
                slots[slot].store(r.plid);
            }
        });
    }
    for (int t = 0; t < kReaders; ++t) {
        threads.emplace_back([&, t] {
            Rng rng(7000 + t);
            while (!stop.load(std::memory_order_acquire)) {
                EpochGuard g(s.epochDomain());
                for (int i = 0; i < 8; ++i) {
                    const Plid p = slots[rng.below(kSlots)].load();
                    if (p == kZeroPlid)
                        continue;
                    // Inside the guard the slot may retire under us
                    // but can never be recycled: the content stays
                    // coherent with its bucket.
                    if (!s.isLive(p))
                        continue;
                    const Line l = s.read(p);
                    ASSERT_EQ(s.bucketOf(l.contentHash()),
                              s.bucketOfPlid(p));
                    (void)s.refCount(p); // advisory snapshot, guarded
                }
            }
        });
    }
    for (int w = 0; w < kWriters; ++w)
        threads[w].join();
    stop.store(true, std::memory_order_release);
    for (int t = kWriters; t < kWriters + kReaders; ++t)
        threads[t].join();

    // Teardown: drop the remaining references, drain limbo, and the
    // store must be exactly empty.
    for (auto &slot : slots) {
        const Plid p = slot.load();
        if (p != kZeroPlid && s.addRef(p, -1) == 0)
            s.retire(p);
    }
    s.epochSynchronize();
    EXPECT_EQ(s.limboLines(), 0u);
    EXPECT_EQ(s.liveLines(), 0u);
    EXPECT_EQ(s.totalRefs(), 0u);
}

/**
 * Regression for the retire()/read() live-or-limbo handoff: retire
 * sets the limbo bit *before* the release clear of the live bit, and
 * a lock-free reader consults limbo (relaxed — the liveMask_
 * release/acquire pair carries the ordering for both masks, see
 * setSlotLimbo) only after its acquire load of the live mask. Unlike
 * ConcurrentReadRetireChurn above, readers here call read() without
 * an isLive() gate: a PLID obtained inside a guard must stay
 * readable through a concurrent retirement, so if the two mask
 * writes ever reorder — or the limbo load ever misses the published
 * bit — read()'s live-or-limbo debug assert fires on the transient
 * neither-live-nor-limbo state. TSan (CI job) additionally proves
 * the relaxed limbo traffic race-free.
 */
TEST(EpochHammer, ReadRacingRetireSeesLiveOrLimbo)
{
    constexpr std::uint64_t kBuckets = 1 << 10;
    LineStore s(kBuckets, 2);
    constexpr int kWriters = 2;
    constexpr int kReaders = 2;
    constexpr int kSlots = 32;
    constexpr int kRounds = 400;
    // Home-bucket PLIDs are dense (bucket << way bits | way);
    // overflow PLIDs sit above this bound and take a locked read
    // path, so writers keep them out of the shared slots.
    constexpr Plid kHomeBound = kBuckets << BucketLayout::kWayBits;

    std::vector<std::atomic<Plid>> slots(kSlots);
    for (auto &p : slots)
        p.store(kZeroPlid);
    std::atomic<bool> stop{false};

    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
        threads.emplace_back([&, w] {
            Rng rng(1700 + w);
            for (int i = 0; i < kRounds; ++i) {
                const int slot = w * (kSlots / kWriters) +
                                 static_cast<int>(
                                     rng.below(kSlots / kWriters));
                const Plid old = slots[slot].exchange(kZeroPlid);
                if (old != kZeroPlid && s.addRef(old, -1) == 0)
                    s.retire(old);
                const Word v = static_cast<Word>(
                    (static_cast<Word>(w + 11) << 32) | (i + 1));
                auto r = s.findOrInsert(lineOf(2, v, v * 5),
                                        /*take_ref=*/true);
                ASSERT_EQ(r.status, MemStatus::Ok);
                if (r.plid >= kHomeBound) {
                    // Overflow spill: retire it again rather than
                    // publish a locked-path PLID to the readers.
                    if (s.addRef(r.plid, -1) == 0)
                        s.retire(r.plid);
                    continue;
                }
                slots[slot].store(r.plid);
            }
        });
    }
    for (int t = 0; t < kReaders; ++t) {
        threads.emplace_back([&, t] {
            Rng rng(9100 + t);
            while (!stop.load(std::memory_order_acquire)) {
                EpochGuard g(s.epochDomain());
                for (int i = 0; i < 8; ++i) {
                    const Plid p = slots[rng.below(kSlots)].load();
                    if (p == kZeroPlid)
                        continue;
                    // No isLive() gate: the slot may retire under us
                    // mid-read, and read() itself must then observe
                    // limbo (parked storage), never the unallocated
                    // state, with the content still bucket-coherent.
                    const Line l = s.read(p);
                    ASSERT_EQ(s.bucketOf(l.contentHash()),
                              s.bucketOfPlid(p));
                }
            }
        });
    }
    for (int w = 0; w < kWriters; ++w)
        threads[w].join();
    stop.store(true, std::memory_order_release);
    for (int t = kWriters; t < kWriters + kReaders; ++t)
        threads[t].join();

    for (auto &slot : slots) {
        const Plid p = slot.load();
        if (p != kZeroPlid && s.addRef(p, -1) == 0)
            s.retire(p);
    }
    s.epochSynchronize();
    EXPECT_EQ(s.limboLines(), 0u);
    EXPECT_EQ(s.liveLines(), 0u);
    EXPECT_EQ(s.totalRefs(), 0u);
}

TEST(Epoch, TryAcquireRevalidatesInsideGuard)
{
    Memory mem;
    const Plid p = mem.lookup(lineOf(mem.lineWords(), 41));
    {
        PlidRef ref = PlidRef::tryAcquire(mem, p);
        ASSERT_TRUE(ref);
        EXPECT_EQ(mem.refCount(p), 2u);
    }
    mem.decRef(p); // line retires into limbo

    // A stale PLID must be refused — the slot is in limbo (storage
    // parked, identity retired), not reusable for resurrection.
    PlidRef stale = PlidRef::tryAcquire(mem, p);
    EXPECT_FALSE(stale);
    EXPECT_GE(mem.store().limboLines(), 1u);
}

TEST(Epoch, AllocFailureWhileLineInLimbo)
{
    MemoryConfig cfg;
    cfg.numBuckets = 1 << 10;
    cfg.faults.allowEnvOverride = false;
    Memory mem(cfg);

    // Park a line in limbo: one lookup reference, then release it.
    const Line doomed = lineOf(mem.lineWords(), 1001);
    const Plid p = mem.lookup(doomed);
    mem.decRef(p);
    ASSERT_GE(mem.store().limboLines(), 1u);

    // Fault injection: the next fresh allocation fails while the
    // retired line is still parked. The failure must not corrupt the
    // limbo state or leak anything.
    FaultConfig f;
    f.allocFailEvery = 1;
    mem.faults().reconfigure(f);
    // Were the lookup to succeed, its reference is released, not
    // leaked; the expected throw skips the decRef.
    EXPECT_THROW(mem.decRef(mem.lookup(lineOf(mem.lineWords(), 2002))),
                 MemPressureError);
    EXPECT_GE(mem.store().limboLines(), 1u);
    EXPECT_EQ(mem.oomEvents(), 1u);

    // Recovery: faults off, the same content allocates, limbo drains
    // at the quiescent point, and the full heap audit (which checks
    // the §12 limbo invariants first) comes back clean.
    mem.faults().reconfigure(FaultConfig{});
    const Plid q = mem.lookup(lineOf(mem.lineWords(), 2002));
    EXPECT_NE(q, kZeroPlid);

    Auditor::Options opts;
    opts.externalRefs = {q};
    AuditReport rep = Auditor::audit(mem, nullptr, opts);
    EXPECT_TRUE(rep.clean()) << rep.summary();
    EXPECT_EQ(mem.store().limboLines(), 0u); // audit synchronized
    mem.decRef(q);
}

TEST(Epoch, MemoryExportsEpochMetrics)
{
    Memory mem;
    const Plid p = mem.lookup(lineOf(mem.lineWords(), 5005));
    mem.decRef(p);
    mem.store().epochSynchronize();

    EpochManager &ep = mem.store().epochDomain();
    EXPECT_GE(ep.advances(), 1u);
    EXPECT_EQ(ep.deferredFrees(), 1u);
    EXPECT_EQ(ep.limboDepth(), 0u);
    // The grace histogram is fed through the registered observer.
    EXPECT_EQ(mem.metrics().histogram("epoch.grace_ns").count(), 1u);
}

TEST(Epoch, ReadsAndDedupHitsTakeNoStripeLock)
{
    // DESIGN.md §12 proof chain (3): readLine and a lookup that hits
    // the dedup index finish without a stripe lock, at any thread
    // count. The L2 holds a quarter of the population, so most
    // lookups miss the content cache and probe the store itself.
    MemoryConfig cfg;
    cfg.numBuckets = 1 << 14;
    cfg.lockStripes = 16;
    cfg.l2Bytes = 16 * 1024;
    cfg.faults.allowEnvOverride = false;
    Memory mem(cfg);
    constexpr int kLines = 4096;
    constexpr int kRounds = 400;
    const auto contentOf = [&](std::uint64_t i) {
        return lineOf(mem.lineWords(), 0x5a0000 + i, i * 2654435761u + 1);
    };
    std::vector<Plid> plids(kLines);
    for (int i = 0; i < kLines; ++i)
        plids[i] = mem.lookup(contentOf(i));
    // An overflow resident would send its lookups to the locked path.
    ASSERT_EQ(mem.store().overflowLines(), 0u);
    const auto lockOps = [&] {
        return mem.store().stripeLockExclusiveOps() +
               mem.store().stripeLockSharedOps();
    };

    for (int threads : {1, 4}) {
        mem.coldCaches();
        const std::uint64_t locks0 = lockOps();
        const std::uint64_t hits0 = mem.dedupHits();
        const std::uint64_t misses0 =
            mem.metrics().snapshot().counter("cache.l2.misses");
        std::vector<std::thread> ts;
        for (int t = 0; t < threads; ++t) {
            ts.emplace_back([&, t] {
                Rng rng(100 + t);
                for (int r = 0; r < kRounds; ++r) {
                    const std::uint64_t i = rng.below(kLines);
                    EXPECT_EQ(mem.readLine(plids[i]), contentOf(i));
                    const std::uint64_t j = rng.below(kLines);
                    const Plid p = mem.lookup(contentOf(j));
                    EXPECT_EQ(p, plids[j]);
                    mem.decRef(p); // the setup reference keeps it live
                }
            });
        }
        for (auto &th : ts)
            th.join();
        EXPECT_EQ(lockOps(), locks0) << threads << " threads";
        EXPECT_EQ(mem.dedupHits() - hits0,
                  static_cast<std::uint64_t>(threads) * kRounds);
        EXPECT_GT(mem.metrics().snapshot().counter("cache.l2.misses"),
                  misses0);
    }
    for (Plid p : plids)
        mem.decRef(p);
}

} // namespace
} // namespace hicamp
