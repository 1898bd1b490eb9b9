/**
 * @file
 * Per-thread L1 caches over the shared L2 (DESIGN.md §4.6), driven
 * from several threads (the suite name puts it in the TSan job):
 * reclaiming a line drops it from every thread's L1, an exited
 * thread's slot and L1 pass to the next thread, and the summed
 * cache.l1.* counters never go backwards as threads come and go.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "audit_check.hh"
#include "mem/memory.hh"

namespace hicamp {
namespace {

MemoryConfig
l1Cfg()
{
    MemoryConfig cfg;
    cfg.numBuckets = 1 << 12;
    cfg.faults.allowEnvOverride = false;
    return cfg;
}

Line
tagLine(Memory &mem, Word tag)
{
    Line l = mem.makeLine();
    l.set(0, tag);
    l.set(1, ~tag);
    return l;
}

/**
 * Checks that cache.l1.hits and cache.l1.misses never go backwards.
 * Registry reads are exact only at quiescent points (DESIGN.md §9;
 * debug builds assert it), so call check() only with every thread
 * that touches the memory joined.
 */
class L1SumsMonotone
{
  public:
    void
    check(const Memory &mem, const char *where)
    {
        const auto s = mem.metrics().snapshot();
        const std::uint64_t h = s.counter("cache.l1.hits");
        const std::uint64_t m = s.counter("cache.l1.misses");
        EXPECT_GE(h, hits_) << where;
        EXPECT_GE(m, misses_) << where;
        hits_ = h;
        misses_ = m;
    }

  private:
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

TEST(ThreadL1Concurrent, ReclaimDropsLineFromEveryThreadsL1)
{
    Memory mem(l1Cfg());
    std::vector<Plid> keep;
    for (Word t = 1; t <= 64; ++t)
        keep.push_back(mem.lookup(tagLine(mem, t)));
    const Plid p = mem.lookup(tagLine(mem, 999));
    L1SumsMonotone sums;
    sums.check(mem, "before");

    std::atomic<int> phase{0};
    std::thread b([&] {
        mem.readLine(p);
        EXPECT_EQ(mem.l1Copies(p), 1u); // B's L1 only
        phase.store(1, std::memory_order_release);
        // Keep B's L1 busy while A's reclamation fans out into it.
        do {
            for (Plid k : keep)
                mem.readLine(k);
        } while (phase.load(std::memory_order_acquire) != 2);
    });
    std::thread a([&] {
        while (phase.load(std::memory_order_acquire) != 1)
            std::this_thread::yield();
        mem.decRef(p); // the last reference
        phase.store(2, std::memory_order_release);
    });
    a.join();
    b.join();

    EXPECT_FALSE(mem.isLive(p));
    EXPECT_EQ(mem.l1Copies(p), 0u);
    EXPECT_GE(mem.l1Copies(keep[0]), 1u);
    sums.check(mem, "after the threads exited");
    for (Plid k : keep)
        mem.decRef(k);
    expectCleanAudit(mem, nullptr);
}

TEST(ThreadL1Concurrent, ExitedThreadsSlotAndL1PassToTheNextThread)
{
    Memory mem(l1Cfg());
    const Plid p = mem.lookup(tagLine(mem, 7));
    mem.readLine(p);
    L1SumsMonotone sums;
    sums.check(mem, "start");
    const unsigned base = mem.l1Count();
    ASSERT_EQ(base, 1u); // this thread's

    for (int round = 0; round < 8; ++round) {
        const std::uint64_t hits0 =
            mem.metrics().snapshot().counter("cache.l1.hits");
        std::thread t([&] { mem.readLine(p); });
        t.join();
        // The exited thread released its slot, so every round lands
        // on the same slot and inherits the previous round's L1.
        EXPECT_EQ(mem.l1Count(), base + 1) << "round " << round;
        sums.check(mem, "after a round");
        if (round > 0) {
            EXPECT_EQ(mem.metrics().snapshot().counter("cache.l1.hits"),
                      hits0 + 1)
                << "round " << round;
        }
    }
    // Threads alive at once bound the L1 count.
    std::vector<std::thread> crowd;
    for (int i = 0; i < 3; ++i)
        crowd.emplace_back([&] { mem.readLine(p); });
    for (auto &t : crowd)
        t.join();
    EXPECT_LE(mem.l1Count(), base + 3);
    sums.check(mem, "after the crowd");
    mem.decRef(p);
    expectCleanAudit(mem, nullptr);
}

} // namespace
} // namespace hicamp
