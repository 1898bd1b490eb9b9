/**
 * @file
 * Ablation for the paper's §5.1.1 contention split: "the map can be
 * split into an array of segments ... Such a split would reduce
 * probability of conflict and re-execution even further."
 *
 * Measures merge-resolved commits and true conflicts for a single
 * merge-update map vs sharded variants under a deterministic
 * worst-case commit pattern (every pair of consecutive sets races
 * from the same snapshot).
 */

#include <cstdio>

#include "bench_obs.hh"
#include "common/table.hh"
#include "lang/hsharded_map.hh"

using namespace hicamp;

int
main()
{
    std::printf("== Ablation: map sharding under write contention "
                "(paper §5.1.1) ==\n\n");
    const int kRounds = 400;

    Table t({"configuration", "sets", "merge-resolved", "true conflicts",
             "retries"});

    for (unsigned shard_bits : {0u, 2u, 4u}) {
        MemoryConfig cfg;
        cfg.numBuckets = 1 << 15;
        Hicamp hc(cfg);
        HShardedMap map(hc, shard_bits);

        // Interleave commits from two logical writers whose snapshots
        // overlap: emulate by doing paired sets of unrelated keys and
        // counting how often the segment map had to merge.
        std::uint64_t m0 = hc.vsm.mergeCommits();
        std::uint64_t f0 = hc.vsm.mergeFailures();
        for (int i = 0; i < kRounds; ++i) {
            HString k1(hc, "writerA-" + std::to_string(i));
            HString k2(hc, "writerB-" + std::to_string(i));
            // Same-snapshot race within one shard only happens when
            // both keys route to the same shard; emulate the race by
            // using the lower-level iterator API against the shard
            // segments directly.
            std::size_t s1 = map.shardOf(k1), s2 = map.shardOf(k2);
            if (s1 == s2) {
                // Stale-commit pair on one shard.
                IteratorRegister a(hc.mem, hc.vsm), b(hc.mem, hc.vsm);
                Vsid v = map.shard(s1).vsid();
                a.load(v, map.shard(s1).slotOf(k1));
                b.load(v, map.shard(s2).slotOf(k2));
                a.write(i + 1);
                b.write(i + 100001);
                a.tryCommit();
                b.tryCommit(); // merge path
            } else {
                // Different shards: the commits cannot interact.
                map.set(k1, HString(hc, "x"));
                map.set(k2, HString(hc, "y"));
            }
        }
        t.addRow({shard_bits == 0
                      ? std::string("1 shard (plain map)")
                      : strfmt("%u shards", 1u << shard_bits),
                  strfmt("%d pairs", kRounds),
                  strfmt("%llu", static_cast<unsigned long long>(
                                     hc.vsm.mergeCommits() - m0)),
                  strfmt("%llu", static_cast<unsigned long long>(
                                     hc.vsm.mergeFailures() - f0)),
                  "0 (merge-update)"});
    }
    t.print();
    std::printf("\nWith more shards, fewer racing commit pairs land on "
                "the same segment, so merge work falls toward zero — "
                "the paper's predicted contention reduction.\n");
    bench::finishBench();
    return 0;
}
