/**
 * @file
 * Multi-threaded scaling of the memory system across its three
 * concurrency modes — "global" (MemoryConfig::globalLock), "sharded"
 * (stripe locks, epochReclaim off) and "epoch" (§12 epoch-based
 * reclamation: lock-free read/lookup fast paths) — on three
 * workloads:
 *
 *  - "mixed": memcached-style 10:1 get:set over a sharded map
 *    (paper §5.1.1's workload shape);
 *  - "spmv_tiles": per-thread sparse-matrix tiles repeatedly swept
 *    through snapshot + materialize (read-dominated, the lock-free
 *    fast path);
 *  - "read_lookup": read-heavy + lookup-heavy hammer over a fixed
 *    line population (5 readLine + 5 dedup-hit lookups per round,
 *    LLC sized below the working set so probes reach the store).
 *    This is the workload the epoch conversion targets: in sharded
 *    mode every dedup probe takes a stripe lock; in epoch mode the
 *    same probe completes with zero lock acquisitions.
 *
 * Each (workload, mode, threads) cell reports wall-clock throughput
 * and *modeled* throughput. The model is the architectural claim
 * under test, two terms:
 *
 *  DRAM term (paper §3.1): every DRAM command of an operation targets
 *  the home bucket's row, buckets stripe across independent banks,
 *  commands within one bank serialize at t_RC while banks overlap.
 *  The global-lock build funnels all operations through one ordering
 *  point, so its row activations issue strictly sequentially:
 *
 *    t_global = total_row_acts * t_RC
 *    t_dram   = max(total_row_acts / threads, hottest_bank) * t_RC
 *
 *  Lock-wall term (§12 motivation): each stripe-lock acquisition is
 *  an atomic RMW on the stripe's lock word — a cache line that
 *  serializes within a stripe and ping-pongs between cores at t_lock
 *  per transfer when contended. Acquisitions spread over min(threads,
 *  stripes) independent lock words, and a transfer only costs when
 *  another core touched the same word since our last acquisition —
 *  probability ~ (threads-1)/lock_stripes under uniform striping
 *  (zero single-threaded, ~1 once threads reach the stripe count):
 *
 *    t_lock_wall = lock_ops * t_lock
 *                           * min(1, (threads-1)/lock_stripes)
 *                           / min(threads, lock_stripes)
 *
 *  The JSON reports the terms separately (model_dram_ms,
 *  lock_wall_ms) plus their total (model_ms): the DRAM term alone is
 *  the §3.1 bank-parallelism figure EXPERIMENTS.md tracks for the
 *  structure workloads (speedup_model_mixed_4t / _spmv_4t), while
 *  the total is the synchronization-aware figure the §12 headline
 *  (speedup_model_read_lookup_16t) is judged on. Epoch mode's read
 *  and lookup paths take no stripe locks, so its lock_ops column —
 *  and therefore its wall term — is ~zero; the JSON doubles as an
 *  empirical zero-locks proof alongside the TSA capability rule.
 *
 * Wall-clock numbers measure the host (meaningful on multicore
 * machines; on single-core CI they only show lock overhead); the
 * modeled numbers measure the architecture and are what
 * BENCH_mt_scaling.json tracks as the scaling trajectory.
 *
 * Usage: bench_mt_scaling [--smoke] [--json PATH]
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_obs.hh"
#include "common/cli.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "lang/harray.hh"
#include "lang/hsharded_map.hh"

using namespace hicamp;

namespace {

constexpr double kTrcNs = 50.0;   // DRAM row-cycle time (§5.1.1 model)
constexpr double kTLockNs = 250.0; // contended lock-word transfer (§12)

struct Cell {
    std::string workload;
    std::string mode; ///< "global", "sharded" or "epoch"
    int threads = 0;
    std::uint64_t ops = 0;
    double wallMs = 0.0;
    std::uint64_t rowActs = 0;
    std::uint64_t maxBankActs = 0;
    std::uint64_t lockOps = 0; ///< stripe-lock acquisitions (excl+shared)
    unsigned lockStripes = 1;
    /// measured-phase registry delta (the JSON metrics sub-object)
    obs::MetricsSnapshot metrics;

    /// §3.1 bank-parallelism term (the EXPERIMENTS.md trajectory
    /// metric for the structure workloads).
    double
    dramModelMs() const
    {
        const double serial = static_cast<double>(rowActs);
        if (mode == "global")
            return serial * kTrcNs / 1e6;
        const double perBank = static_cast<double>(maxBankActs);
        return std::max(serial / threads, perBank) * kTrcNs / 1e6;
    }

    /// §12 lock-wall term: zero for the global mode (already fully
    /// serialized by construction) and ~zero for epoch-mode
    /// read/lookup paths (no stripe acquisitions).
    double
    lockWallMs() const
    {
        if (mode == "global")
            return 0.0;
        const double contended =
            std::min(1.0, (threads - 1.0) / lockStripes);
        return static_cast<double>(lockOps) * kTLockNs * contended /
               std::min<double>(threads, lockStripes) / 1e6;
    }

    double
    modelMs() const
    {
        return dramModelMs() + lockWallMs();
    }

    double
    modelMops() const
    {
        const double ms = modelMs();
        return ms > 0.0 ? ops / ms / 1e3 : 0.0;
    }

    double
    dramModelMops() const
    {
        const double ms = dramModelMs();
        return ms > 0.0 ? ops / ms / 1e3 : 0.0;
    }

    double
    wallMops() const
    {
        return wallMs > 0.0 ? ops / wallMs / 1e3 : 0.0;
    }
};

/** Per-bank activation baseline for delta-based hottest-bank math. */
std::vector<std::uint64_t>
bankBaseline(const Memory &mem)
{
    std::vector<std::uint64_t> base(mem.store().numStripes());
    for (unsigned s = 0; s < base.size(); ++s)
        base[s] = mem.bankActivations(s);
    return base;
}

std::uint64_t
maxBankDelta(const Memory &mem, const std::vector<std::uint64_t> &base)
{
    std::uint64_t m = 0;
    for (unsigned s = 0; s < base.size(); ++s)
        m = std::max(m, mem.bankActivations(s) - base[s]);
    return m;
}

std::uint64_t
lockOpsNow(const Memory &mem)
{
    return mem.store().stripeLockExclusiveOps() +
           mem.store().stripeLockSharedOps();
}

MemoryConfig
makeConfig(const std::string &mode)
{
    MemoryConfig cfg;
    cfg.numBuckets = 1 << 16;
    cfg.globalLock = mode == "global";
    // "sharded" is the pre-§12 build: stripe locks on every store
    // operation, immediate reclamation. "epoch" keeps the defaults
    // (epochReclaim on).
    cfg.epochReclaim = mode == "epoch";
    cfg.faults.allowEnvOverride = false;
    return cfg;
}

/**
 * Memcached-style mixed workload: pre-populate, then each thread
 * issues rounds of 10 gets (whole key space) + 1 set (its own key
 * range) against a 16-shard merge-update map.
 */
Cell
runMixed(const std::string &mode, int threads, int keys, int rounds)
{
    Hicamp hc(makeConfig(mode));
    Cell cell;
    cell.workload = "mixed";
    cell.mode = mode;
    cell.threads = threads;
    cell.lockStripes = hc.mem.store().numStripes();
    {
        HShardedMap map(hc, /*shard_bits=*/4);
        for (int i = 0; i < keys; ++i)
            map.set(HString(hc, "key-" + std::to_string(i)),
                    HString(hc, "value-" + std::to_string(i)));
        // Warmup writebacks complete uncounted; counters stay
        // cumulative and the measured phase is a registry delta.
        hc.mem.flushTraffic();
        const auto bank0 = bankBaseline(hc.mem);
        const std::uint64_t lock0 = lockOpsNow(hc.mem);
        bench::Phase phase(hc.mem.metrics());

        std::vector<std::uint64_t> ops(threads, 0);
        const auto t0 = std::chrono::steady_clock::now();
        std::vector<std::thread> ts;
        for (int t = 0; t < threads; ++t) {
            ts.emplace_back([&, t] {
                Rng rng(1000 + t); // same stream in all modes
                // Counted locally and stored once: adjacent ops[]
                // slots share a host cache line.
                std::uint64_t n = 0;
                for (int r = 0; r < rounds; ++r) {
                    for (int g = 0; g < 10; ++g) {
                        map.get(HString(
                            hc,
                            "key-" + std::to_string(rng.below(keys))));
                        ++n;
                    }
                    map.set(HString(hc,
                                    "key-" +
                                        std::to_string(rng.below(keys))),
                            HString(hc, "update-" + std::to_string(t) +
                                            "-" + std::to_string(r)));
                    ++n;
                }
                ops[t] = n;
            });
        }
        for (auto &th : ts)
            th.join();
        const auto t1 = std::chrono::steady_clock::now();

        cell.wallMs =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        for (auto o : ops)
            cell.ops += o;
        cell.metrics = phase.delta();
        cell.rowActs = cell.metrics.counter("row_activations");
        cell.maxBankActs = maxBankDelta(hc.mem, bank0);
        cell.lockOps = lockOpsNow(hc.mem) - lock0;
    }
    return cell;
}

/**
 * SpMV tiles: each thread owns a sparse tile segment and sweeps it —
 * snapshot, materialize, dot-product against a dense vector, release.
 * Read-only after setup: exercises the lock-free read path.
 */
Cell
runSpmvTiles(const std::string &mode, int threads, int tile_words,
             int passes)
{
    Hicamp hc(makeConfig(mode));
    Cell cell;
    cell.workload = "spmv_tiles";
    cell.mode = mode;
    cell.threads = threads;
    cell.lockStripes = hc.mem.store().numStripes();
    {
        std::vector<std::unique_ptr<HArray<std::uint64_t>>> tiles;
        for (int t = 0; t < threads; ++t) {
            std::vector<std::uint64_t> tile(tile_words, 0);
            // ~1/7 nonzero, values unique per (thread, index) so tiles
            // dedup within but not across threads.
            for (int i = 0; i < tile_words; i += 7)
                tile[i] = 1 + t * tile_words + i;
            tiles.push_back(std::make_unique<HArray<std::uint64_t>>(
                hc, tile, kSegMergeUpdate));
        }
        // Cold caches, cumulative counters: the sweep's traffic is
        // the registry delta below.
        hc.mem.coldCaches();
        const auto bank0 = bankBaseline(hc.mem);
        const std::uint64_t lock0 = lockOpsNow(hc.mem);
        bench::Phase phase(hc.mem.metrics());

        std::vector<std::uint64_t> ops(threads, 0);
        std::vector<std::uint64_t> sums(threads, 0);
        const auto t0 = std::chrono::steady_clock::now();
        std::vector<std::thread> ts;
        for (int t = 0; t < threads; ++t) {
            ts.emplace_back([&, t] {
                SegReader reader(hc.mem);
                std::vector<Word> w;
                std::vector<WordMeta> m;
                std::uint64_t n = 0, sum = 0; // stored once, see runMixed
                for (int p = 0; p < passes; ++p) {
                    SegDesc snap = hc.vsm.snapshot(tiles[t]->vsid());
                    w.clear();
                    m.clear();
                    reader.materialize(snap.root, snap.height, w, m);
                    std::uint64_t dot = 0;
                    for (int i = 0; i < tile_words; ++i)
                        dot += w[i] * ((i & 7) + 1); // dense vector
                    sum += dot;
                    n += tile_words;
                    hc.vsm.releaseSnapshot(snap);
                }
                ops[t] = n;
                sums[t] = sum;
            });
        }
        for (auto &th : ts)
            th.join();
        const auto t1 = std::chrono::steady_clock::now();

        cell.wallMs =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        for (auto o : ops)
            cell.ops += o;
        cell.metrics = phase.delta();
        cell.rowActs = cell.metrics.counter("row_activations");
        cell.maxBankActs = maxBankDelta(hc.mem, bank0);
        cell.lockOps = lockOpsNow(hc.mem) - lock0;
    }
    return cell;
}

/**
 * Read/lookup hammer on the bare Memory: a fixed population of
 * interned lines, then each thread loops rounds of 5 readLine (random
 * PLID) + 5 lookup (dedup hit on existing content, released
 * immediately). No retirements happen during the measured phase, so
 * the three modes do identical DRAM work and the cells differ only in
 * synchronization: sharded pays one exclusive stripe lock per dedup
 * probe (and shared locks on overflow reads); epoch pays none. The
 * LLC is sized well below the population so probes miss the
 * content-addressed cache and actually reach the store.
 */
Cell
runReadLookup(const std::string &mode, int threads, int keys, int rounds)
{
    MemoryConfig cfg = makeConfig(mode);
    cfg.lockStripes = 16;      // §5.1.1 bank count; lock wall binds
    cfg.l2Bytes = 64 * 1024;   // << population: probes reach the store
    Memory mem(cfg);
    Cell cell;
    cell.workload = "read_lookup";
    cell.mode = mode;
    cell.threads = threads;
    cell.lockStripes = mem.store().numStripes();

    const auto contentOf = [&](int i) {
        Line l = mem.makeLine();
        l.set(0, 0x52444C00u + static_cast<Word>(i));
        l.set(1, static_cast<Word>(i) * 2654435761u + 1);
        return l;
    };
    std::vector<Plid> plids(keys);
    for (int i = 0; i < keys; ++i)
        plids[i] = mem.lookup(contentOf(i)); // setup refs held throughout

    mem.coldCaches();
    const auto bank0 = bankBaseline(mem);
    const std::uint64_t lock0 = lockOpsNow(mem);
    bench::Phase phase(mem.metrics());

    std::vector<std::uint64_t> ops(threads, 0);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> ts;
    for (int t = 0; t < threads; ++t) {
        ts.emplace_back([&, t] {
            Rng rng(7000 + t); // same stream in all modes
            std::uint64_t n = 0; // stored once, see runMixed
            for (int r = 0; r < rounds; ++r) {
                for (int g = 0; g < 5; ++g) {
                    (void)mem.readLine(plids[rng.below(keys)]);
                    ++n;
                }
                for (int g = 0; g < 5; ++g) {
                    const Plid p =
                        mem.lookup(contentOf(static_cast<int>(
                            rng.below(keys))));
                    mem.decRef(p); // setup ref keeps the line live
                    ++n;
                }
            }
            ops[t] = n;
        });
    }
    for (auto &th : ts)
        th.join();
    const auto t1 = std::chrono::steady_clock::now();

    cell.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    for (auto o : ops)
        cell.ops += o;
    cell.metrics = phase.delta();
    cell.rowActs = cell.metrics.counter("row_activations");
    cell.maxBankActs = maxBankDelta(mem, bank0);
    cell.lockOps = lockOpsNow(mem) - lock0;
    for (int i = 0; i < keys; ++i)
        mem.decRef(plids[i]);
    return cell;
}

enum class Metric { Wall, Dram, Total };

double
speedupAt(const std::vector<Cell> &cells, const std::string &workload,
          int threads, Metric metric, const std::string &base,
          const std::string &fast)
{
    double b = 0.0, f = 0.0;
    for (const auto &c : cells) {
        if (c.workload != workload || c.threads != threads)
            continue;
        const double v = metric == Metric::Wall ? c.wallMops()
                         : metric == Metric::Dram
                             ? c.dramModelMops()
                             : c.modelMops();
        if (c.mode == base)
            b = v;
        else if (c.mode == fast)
            f = v;
    }
    return b > 0.0 ? f / b : 0.0;
}

void
writeJson(const std::vector<Cell> &cells, const std::string &path,
          bool smoke)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\n  \"bench\": \"mt_scaling\",\n");
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(f, "  \"t_rc_ns\": %.0f,\n", kTrcNs);
    std::fprintf(f, "  \"t_lock_ns\": %.0f,\n", kTLockNs);
    std::fprintf(f, "  \"results\": [\n");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        std::fprintf(
            f,
            "    {\"workload\": \"%s\", \"mode\": \"%s\", "
            "\"threads\": %d, \"ops\": %llu, \"wall_ms\": %.3f, "
            "\"wall_mops\": %.4f, \"row_acts\": %llu, "
            "\"max_bank_acts\": %llu, \"lock_ops\": %llu, "
            "\"lock_stripes\": %u, \"model_dram_ms\": %.3f, "
            "\"lock_wall_ms\": %.3f, \"model_ms\": %.3f, "
            "\"model_mops\": %.4f, \"metrics\": %s}%s\n",
            c.workload.c_str(), c.mode.c_str(), c.threads,
            static_cast<unsigned long long>(c.ops), c.wallMs,
            c.wallMops(), static_cast<unsigned long long>(c.rowActs),
            static_cast<unsigned long long>(c.maxBankActs),
            static_cast<unsigned long long>(c.lockOps), c.lockStripes,
            c.dramModelMs(), c.lockWallMs(), c.modelMs(),
            c.modelMops(), bench::metricsJson(c.metrics).c_str(),
            i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    const int mid = smoke ? 2 : 4;
    const int hot = smoke ? 2 : 16;
    // §3.1 bank-parallelism figures (DRAM model, the EXPERIMENTS.md
    // trajectory): sharded vs global on the structure workloads.
    std::fprintf(f, "  \"speedup_model_mixed_4t\": %.3f,\n",
                 speedupAt(cells, "mixed", mid, Metric::Dram, "global",
                           "sharded"));
    std::fprintf(f, "  \"speedup_model_spmv_4t\": %.3f,\n",
                 speedupAt(cells, "spmv_tiles", mid, Metric::Dram,
                           "global", "sharded"));
    std::fprintf(f, "  \"speedup_wall_mixed_4t\": %.3f,\n",
                 speedupAt(cells, "mixed", mid, Metric::Wall, "global",
                           "sharded"));
    // The §12 acceptance number: epoch vs sharded full-model (DRAM +
    // lock wall) throughput on read/lookup at 16 threads (>= 2x).
    std::fprintf(f, "  \"speedup_model_read_lookup_16t\": %.3f,\n",
                 speedupAt(cells, "read_lookup", hot, Metric::Total,
                           "sharded", "epoch"));
    std::fprintf(f, "  \"speedup_model_read_lookup_64t\": %.3f\n",
                 speedupAt(cells, "read_lookup", smoke ? 2 : 64,
                           Metric::Total, "sharded", "epoch"));
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string json_path = "BENCH_mt_scaling.json";
    cli::FlagSet flags("bench_mt_scaling",
                       "global vs sharded vs epoch scaling sweep");
    flags.toggle("--smoke", &smoke, "smoke-sized runs (CI)");
    flags.str("--json", &json_path, "trajectory output path");
    flags.parse(argc, argv);

    // The structure-level workloads scale to 16 threads; the bare
    // read/lookup hammer — the §12 headline — goes to 64.
    const std::vector<int> thread_counts =
        smoke ? std::vector<int>{1, 2}
              : std::vector<int>{1, 2, 4, 8, 16};
    const std::vector<int> rl_thread_counts =
        smoke ? std::vector<int>{1, 2}
              : std::vector<int>{1, 2, 4, 8, 16, 32, 64};
    const int keys = smoke ? 400 : 8000;
    const int rounds = smoke ? 30 : 400;
    const int tile_words = smoke ? 512 : 4096;
    const int passes = smoke ? 4 : 40;
    const int rl_keys = smoke ? 256 : 20000;
    const int rl_rounds = smoke ? 20 : 200;

    std::printf("== Multi-threaded scaling: global lock vs stripe "
                "locks vs epoch reclamation ==\n\n");

    std::vector<Cell> cells;
    Table t({"workload", "mode", "threads", "ops", "wall ms",
             "wall Mops", "row acts", "hot bank", "lock ops",
             "model ms", "model Mops"});
    const auto record = [&](Cell c) {
        t.addRow({c.workload, c.mode, std::to_string(c.threads),
                  std::to_string(c.ops), strfmt("%.2f", c.wallMs),
                  strfmt("%.4f", c.wallMops()),
                  std::to_string(c.rowActs),
                  std::to_string(c.maxBankActs),
                  std::to_string(c.lockOps),
                  strfmt("%.3f", c.modelMs()),
                  strfmt("%.4f", c.modelMops())});
        cells.push_back(std::move(c));
    };
    const std::vector<std::string> modes{"global", "sharded", "epoch"};
    for (const char *wl : {"mixed", "spmv_tiles"})
        for (int n : thread_counts)
            for (const auto &mode : modes)
                record(std::strcmp(wl, "mixed") == 0
                           ? runMixed(mode, n, keys, rounds)
                           : runSpmvTiles(mode, n, tile_words, passes));
    for (int n : rl_thread_counts)
        for (const auto &mode : modes)
            record(runReadLookup(mode, n, rl_keys, rl_rounds));
    t.print();

    const int mid = smoke ? 2 : 4;
    const int hot = smoke ? 2 : 16;
    std::printf("\nbank-parallel (DRAM model) speedup, sharded vs "
                "global at %d threads: mixed %.2fx, spmv_tiles %.2fx "
                "(target: >= 3x mixed at 4 threads)\n",
                mid,
                speedupAt(cells, "mixed", mid, Metric::Dram, "global",
                          "sharded"),
                speedupAt(cells, "spmv_tiles", mid, Metric::Dram,
                          "global", "sharded"));
    std::printf("full-model (DRAM + lock wall) speedup, epoch vs "
                "sharded at %d threads: read_lookup %.2fx (target: "
                ">= 2x at 16 threads)\n",
                hot,
                speedupAt(cells, "read_lookup", hot, Metric::Total,
                          "sharded", "epoch"));
    writeJson(cells, json_path, smoke);
    bench::finishBench();
    return 0;
}
