/**
 * @file
 * Concurrency tests for the sharded memory system: real std::threads
 * driving the programming-model containers (HMap, HQueue, merge-update
 * counters) through the striped-lock store, with and without injected
 * allocation failures, every scenario ending in a full cross-layer
 * heap audit — no leaked lines, no dangling references, no lost
 * updates may survive any interleaving.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "lang/harray.hh"
#include "lang/hmap.hh"
#include "lang/hqueue.hh"
#include "audit_check.hh"

namespace hicamp {
namespace {

MemoryConfig
cfg()
{
    MemoryConfig c;
    c.numBuckets = 1 << 14;
    c.faults.allowEnvOverride = false;
    return c;
}

TEST(Concurrent, MapSetsFromManyThreadsAllLand)
{
    Hicamp hc(cfg());
    constexpr int kThreads = 4;
    constexpr int kKeys = 40;
    {
        HMap map(hc);

        std::vector<std::thread> ts;
        for (int t = 0; t < kThreads; ++t) {
            ts.emplace_back([&, t] {
                Rng rng(100 + t);
                for (int i = 0; i < kKeys; ++i) {
                    map.set(HString(hc, "t" + std::to_string(t) + "-k" +
                                            std::to_string(i)),
                            HString(hc, "v" + std::to_string(i)));
                    // Interleave reads of other threads' namespaces:
                    // either absent or fully formed, never torn.
                    auto probe = map.get(HString(
                        hc, "t" + std::to_string(rng.below(kThreads)) +
                                "-k" + std::to_string(rng.below(kKeys))));
                    if (probe) {
                        EXPECT_EQ(probe->str().substr(0, 1), "v");
                    }
                }
            });
        }
        for (auto &th : ts)
            th.join();

        for (int t = 0; t < kThreads; ++t) {
            for (int i = 0; i < kKeys; ++i) {
                auto got = map.get(HString(hc, "t" + std::to_string(t) +
                                                   "-k" +
                                                   std::to_string(i)));
                ASSERT_TRUE(got.has_value()) << "t" << t << "-k" << i;
                EXPECT_EQ(got->str(), "v" + std::to_string(i));
            }
        }
    }
    expectCleanAudit(hc);
}

TEST(Concurrent, QueueProducersConsumersLoseNothing)
{
    Hicamp hc(cfg());
    constexpr int kProducers = 2;
    constexpr int kConsumers = 2;
    constexpr int kPerProducer = 50;
    {
        HQueue q(hc);
        std::atomic<int> popped{0};
        std::mutex seen_mu;
        std::multiset<std::string> seen;

        std::vector<std::thread> ts;
        for (int p = 0; p < kProducers; ++p) {
            ts.emplace_back([&, p] {
                for (int i = 0; i < kPerProducer; ++i)
                    q.push(HString(hc, "p" + std::to_string(p) + "-" +
                                           std::to_string(i)));
            });
        }
        for (int c = 0; c < kConsumers; ++c) {
            ts.emplace_back([&] {
                while (popped.load(std::memory_order_relaxed) <
                       kProducers * kPerProducer) {
                    auto v = q.pop();
                    if (!v) {
                        std::this_thread::yield();
                        continue;
                    }
                    ++popped;
                    std::lock_guard<std::mutex> g(seen_mu);
                    seen.insert(v->str());
                }
            });
        }
        for (auto &th : ts)
            th.join();

        // Every pushed item was popped exactly once.
        EXPECT_EQ(seen.size(),
                  static_cast<std::size_t>(kProducers * kPerProducer));
        for (int p = 0; p < kProducers; ++p) {
            for (int i = 0; i < kPerProducer; ++i)
                EXPECT_EQ(seen.count("p" + std::to_string(p) + "-" +
                                     std::to_string(i)),
                          1u);
        }
        EXPECT_EQ(q.size(), 0u);
    }
    expectCleanAudit(hc);
}

TEST(Concurrent, SharedCounterMergeUpdateLosesNoIncrements)
{
    Hicamp hc(cfg());
    constexpr int kThreads = 4;
    constexpr int kIncrements = 80;
    {
        // All threads increment the SAME slot: every pair of
        // overlapping commits conflicts and must be resolved by
        // merge-update (paper §3.4) without losing either increment.
        HArray<std::uint64_t> counters(
            hc, std::vector<std::uint64_t>(4, 0), kSegMergeUpdate);

        std::vector<std::thread> ts;
        for (int t = 0; t < kThreads; ++t) {
            ts.emplace_back([&] {
                IteratorRegister it(hc.mem, hc.vsm);
                for (int i = 0; i < kIncrements; ++i) {
                    for (;;) {
                        it.load(counters.vsid(), 0);
                        it.write(it.read() + 1);
                        if (it.tryCommit())
                            break;
                    }
                }
            });
        }
        for (auto &th : ts)
            th.join();

        EXPECT_EQ(counters.get(0),
                  static_cast<std::uint64_t>(kThreads * kIncrements));
    }
    expectCleanAudit(hc);
}

TEST(Concurrent, MixedWorkloadUnderInjectedAllocFailures)
{
    MemoryConfig c = cfg();
    // Deterministic allocation-failure injection while four threads
    // hammer the containers: every failure must unwind leak-free no
    // matter which thread it lands on (the audit below is the proof).
    c.faults.seed = 4242;
    c.faults.allocFailP = 0.001;
    Hicamp hc(c);
    constexpr int kThreads = 4;
    constexpr int kOps = 60;
    std::atomic<std::uint64_t> gaveUp{0};
    {
        HMap map(hc);
        HQueue q(hc);

        std::vector<std::thread> ts;
        for (int t = 0; t < kThreads; ++t) {
            ts.emplace_back([&, t] {
                Rng rng(7000 + t);
                for (int i = 0; i < kOps; ++i) {
                    try {
                        switch (rng.below(4)) {
                        case 0:
                            map.set(HString(hc, "k" + std::to_string(
                                                         rng.below(64))),
                                    HString(hc, "val-" +
                                                    std::to_string(i)));
                            break;
                        case 1:
                            map.get(HString(
                                hc, "k" + std::to_string(rng.below(64))));
                            break;
                        case 2:
                            q.push(HString(hc,
                                           "q" + std::to_string(i)));
                            break;
                        default:
                            q.pop();
                            break;
                        }
                    } catch (const MemPressureError &) {
                        // Retry budget exhausted under injected
                        // faults: acceptable, must leak nothing.
                        ++gaveUp;
                    }
                }
            });
        }
        for (auto &th : ts)
            th.join();

        while (q.pop())
            ;
    }
    // The injector must actually have fired for this test to mean
    // anything.
    EXPECT_GT(hc.mem.faults().allocFailsInjected(), 0u);
    expectCleanAudit(hc);
}

TEST(Concurrent, SnapshotsStayPinnedAcrossConcurrentCommits)
{
    Hicamp hc(cfg());
    {
        HArray<std::uint64_t> arr(
            hc, std::vector<std::uint64_t>(64, 1), kSegMergeUpdate);

        std::atomic<bool> stop{false};
        std::thread writer([&] {
            IteratorRegister it(hc.mem, hc.vsm);
            std::uint64_t i = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                it.load(arr.vsid(), i++ % 64);
                it.write(it.read() + 1);
                it.tryCommit();
            }
        });

        // Readers take lock-free snapshots and hold them across many
        // commits: each snapshot's sum must be internally consistent
        // (>= 64, one per slot) and stable while held.
        for (int round = 0; round < 200; ++round) {
            SegDesc snap = hc.vsm.snapshot(arr.vsid());
            SegReader r(hc.mem);
            std::vector<Word> w;
            std::vector<WordMeta> m;
            r.materialize(snap.root, snap.height, w, m);
            std::uint64_t sum1 = 0;
            for (std::uint64_t i = 0; i < 64; ++i)
                sum1 += w[i];
            // Re-read through the SAME snapshot: identical (snapshot
            // isolation), regardless of the writer's progress.
            w.clear();
            m.clear();
            r.materialize(snap.root, snap.height, w, m);
            std::uint64_t sum2 = 0;
            for (std::uint64_t i = 0; i < 64; ++i)
                sum2 += w[i];
            EXPECT_EQ(sum1, sum2);
            EXPECT_GE(sum1, 64u);
            hc.vsm.releaseSnapshot(snap);
        }
        stop = true;
        writer.join();
    }
    expectCleanAudit(hc);
}

} // namespace
} // namespace hicamp
