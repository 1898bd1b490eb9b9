/**
 * @file
 * Multi-threaded scaling of the memory system's one concurrency
 * design — stripe locks for writers, epoch-pinned lock-free reads and
 * dedup-hit lookups (DESIGN.md §7, §12) — swept over thread counts on
 * three workloads:
 *
 *  - "mixed": memcached-style 10:1 get:set over a sharded map
 *    (paper §5.1.1's workload shape);
 *  - "spmv_tiles": per-thread sparse-matrix tiles repeatedly swept
 *    through snapshot + materialize (read-dominated, the lock-free
 *    fast path);
 *  - "read_lookup": read-heavy + lookup-heavy hammer over a fixed
 *    line population (5 readLine + 5 dedup-hit lookups per round,
 *    LLC sized below the working set so probes reach the store).
 *    Neither a read nor a dedup hit takes a stripe lock, so this
 *    workload's lock_ops column must read 0 at every thread count.
 *
 * Each (workload, threads) cell reports wall-clock throughput and the
 * *modeled* §3.1 bank-parallel figure. Every DRAM command of an
 * operation targets the home bucket's row, buckets stripe across
 * independent banks, and commands within one bank serialize at t_RC
 * while banks overlap:
 *
 *    t_serial = row_acts * t_RC
 *    t_dram   = max(row_acts / threads, hottest_bank) * t_RC
 *
 * bank_parallel = t_serial / t_dram is the speedup over a machine
 * whose one ordering point issues every row activation in sequence.
 *
 * Wall-clock numbers measure the host. Every one-thread cell lasts at
 * least a quarter second on a 4-vCPU Xeon, and each cell runs three
 * times round-robin (repeat r of every cell before repeat r+1); the
 * table and the JSON report the repeat with the median wall time.
 * The modeled numbers measure the architecture.
 *
 * SELFCHECK lines (a FAIL exits non-zero): read_lookup takes zero
 * stripe locks in every run, and (full run only) mixed reaches a
 * modeled bank-parallel speedup of at least 3x at 4 threads.
 *
 * Usage: bench_mt_scaling [--smoke] [--json PATH]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
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

constexpr double kTrcNs = 50.0; // DRAM row-cycle time (§5.1.1 model)

struct Cell {
    std::string workload;
    int threads = 0;
    std::uint64_t ops = 0;
    double wallMs = 0.0;
    /// wall time of every repeat, in run order
    std::vector<double> wallRuns;
    std::uint64_t rowActs = 0;
    std::uint64_t maxBankActs = 0;
    std::uint64_t lockOps = 0; ///< stripe-lock acquisitions (excl+shared)
    unsigned lockStripes = 1;
    /// measured-phase registry delta (the JSON metrics sub-object)
    obs::MetricsSnapshot metrics;

    /// §3.1 bank-parallel DRAM time.
    double
    modelMs() const
    {
        const double perBank = static_cast<double>(maxBankActs);
        return std::max(static_cast<double>(rowActs) / threads,
                        perBank) *
               kTrcNs / 1e6;
    }

    double
    modelMops() const
    {
        const double ms = modelMs();
        return ms > 0.0 ? ops / ms / 1e3 : 0.0;
    }

    /// Speedup of the bank-parallel model over serial row issue.
    double
    bankParallel() const
    {
        const double ms = modelMs();
        return ms > 0.0 ? rowActs * kTrcNs / 1e6 / ms : 0.0;
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
makeConfig()
{
    MemoryConfig cfg;
    cfg.numBuckets = 1 << 16;
    cfg.faults.allowEnvOverride = false;
    return cfg;
}

/**
 * Memcached-style mixed workload: pre-populate, then each thread
 * issues rounds of 10 gets (whole key space) + 1 set (its own key
 * range) against a 16-shard merge-update map.
 */
Cell
runMixed(int threads, int keys, int rounds)
{
    Hicamp hc(makeConfig());
    Cell cell;
    cell.workload = "mixed";
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
                Rng rng(1000 + t); // same stream in every repeat
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
runSpmvTiles(int threads, int tile_words, int passes)
{
    Hicamp hc(makeConfig());
    Cell cell;
    cell.workload = "spmv_tiles";
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
 * immediately). No retirements happen during the measured phase, and
 * neither a read nor a dedup hit takes a stripe lock, so the cell's
 * lock_ops must be 0. The LLC is sized well below the population so
 * probes miss the content-addressed cache and actually reach the
 * store.
 */
Cell
runReadLookup(int threads, int keys, int rounds)
{
    MemoryConfig cfg = makeConfig();
    cfg.lockStripes = 16;    // §5.1.1 bank count
    cfg.l2Bytes = 64 * 1024; // << population: probes reach the store
    Memory mem(cfg);
    Cell cell;
    cell.workload = "read_lookup";
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
            Rng rng(7000 + t); // same stream in every repeat
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

const Cell *
findCell(const std::vector<Cell> &cells, const std::string &workload,
         int threads)
{
    for (const auto &c : cells)
        if (c.workload == workload && c.threads == threads)
            return &c;
    return nullptr;
}

double
bankParallelAt(const std::vector<Cell> &cells, const std::string &workload,
               int threads)
{
    const Cell *c = findCell(cells, workload, threads);
    return c ? c->bankParallel() : 0.0;
}

/** Wall throughput at @p threads over wall throughput at 1 thread. */
double
wallScalingAt(const std::vector<Cell> &cells, const std::string &workload,
              int threads)
{
    const Cell *one = findCell(cells, workload, 1);
    const Cell *many = findCell(cells, workload, threads);
    return one && many && one->wallMops() > 0.0
               ? many->wallMops() / one->wallMops()
               : 0.0;
}

std::string
jsonList(const std::vector<double> &v)
{
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        s += strfmt(i ? ", %.3f" : "%.3f", v[i]);
    return s + "]";
}

void
writeJson(const std::vector<Cell> &cells, const std::string &path,
          bool smoke, int repeats)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\n  \"bench\": \"mt_scaling\",\n");
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(f, "  \"t_rc_ns\": %.0f,\n", kTrcNs);
    std::fprintf(f, "  \"repeats\": %d,\n", repeats);
    std::fprintf(f, "  \"results\": [\n");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        std::fprintf(
            f,
            "    {\"workload\": \"%s\", \"threads\": %d, \"ops\": %llu, "
            "\"wall_ms\": %.3f, \"wall_ms_runs\": %s, "
            "\"wall_mops\": %.4f, \"row_acts\": %llu, "
            "\"max_bank_acts\": %llu, \"lock_ops\": %llu, "
            "\"lock_stripes\": %u, \"model_ms\": %.3f, "
            "\"model_mops\": %.4f, \"bank_parallel\": %.3f, "
            "\"metrics\": %s}%s\n",
            c.workload.c_str(), c.threads,
            static_cast<unsigned long long>(c.ops), c.wallMs,
            jsonList(c.wallRuns).c_str(), c.wallMops(),
            static_cast<unsigned long long>(c.rowActs),
            static_cast<unsigned long long>(c.maxBankActs),
            static_cast<unsigned long long>(c.lockOps), c.lockStripes,
            c.modelMs(), c.modelMops(), c.bankParallel(),
            bench::metricsJson(c.metrics).c_str(),
            i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    const int mid = smoke ? 2 : 4;
    // §3.1 bank-parallel figures (the EXPERIMENTS.md trajectory) and
    // the host's wall-clock scaling, both at `mid` threads.
    std::fprintf(f, "  \"bank_parallel_mixed_4t\": %.3f,\n",
                 bankParallelAt(cells, "mixed", mid));
    std::fprintf(f, "  \"bank_parallel_spmv_4t\": %.3f,\n",
                 bankParallelAt(cells, "spmv_tiles", mid));
    std::fprintf(f, "  \"wall_scaling_mixed_4t\": %.3f,\n",
                 wallScalingAt(cells, "mixed", mid));
    std::fprintf(f, "  \"wall_scaling_spmv_4t\": %.3f,\n",
                 wallScalingAt(cells, "spmv_tiles", mid));
    std::fprintf(f, "  \"wall_scaling_read_lookup_4t\": %.3f\n",
                 wallScalingAt(cells, "read_lookup", mid));
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
                       "thread-count scaling sweep of the memory system");
    flags.toggle("--smoke", &smoke, "smoke-sized runs (CI)");
    flags.str("--json", &json_path, "trajectory output path");
    flags.parse(argc, argv);

    // The structure-level workloads scale to 16 threads; the bare
    // read/lookup hammer goes to 64.
    const std::vector<int> thread_counts =
        smoke ? std::vector<int>{1, 2}
              : std::vector<int>{1, 2, 4, 8, 16};
    const std::vector<int> rl_thread_counts =
        smoke ? std::vector<int>{1, 2}
              : std::vector<int>{1, 2, 4, 8, 16, 32, 64};
    // Full-run sizes make every one-thread cell last >= 250 ms on a
    // 4-vCPU Xeon; per-thread work is fixed, so wider cells last longer.
    const int keys = smoke ? 400 : 8000;
    const int rounds = smoke ? 30 : 2400;
    const int tile_words = smoke ? 512 : 4096;
    const int passes = smoke ? 4 : 3600;
    const int rl_keys = smoke ? 256 : 20000;
    const int rl_rounds = smoke ? 20 : 64000;
    const int repeats = smoke ? 1 : 3;

    std::printf("== Multi-threaded scaling: stripe-locked writers, "
                "epoch-pinned lock-free reads ==\n\n");

    struct Spec {
        std::string workload;
        int threads;
    };
    std::vector<Spec> specs;
    for (const char *wl : {"mixed", "spmv_tiles"})
        for (int n : thread_counts)
            specs.push_back({wl, n});
    for (int n : rl_thread_counts)
        specs.push_back({"read_lookup", n});
    const auto runSpec = [&](const Spec &s) {
        if (s.workload == "mixed")
            return runMixed(s.threads, keys, rounds);
        if (s.workload == "spmv_tiles")
            return runSpmvTiles(s.threads, tile_words, passes);
        return runReadLookup(s.threads, rl_keys, rl_rounds);
    };

    // Round-robin repeats: host drift spreads over every cell alike.
    std::vector<std::vector<Cell>> runs(specs.size());
    for (int r = 0; r < repeats; ++r)
        for (std::size_t i = 0; i < specs.size(); ++i)
            runs[i].push_back(runSpec(specs[i]));

    bool locksOk = true;
    std::vector<Cell> cells;
    for (auto &rs : runs) {
        std::vector<double> walls;
        for (const Cell &c : rs) {
            walls.push_back(c.wallMs);
            locksOk &= c.workload != "read_lookup" || c.lockOps == 0;
        }
        std::sort(rs.begin(), rs.end(), [](const Cell &a, const Cell &b) {
            return a.wallMs < b.wallMs;
        });
        cells.push_back(std::move(rs[rs.size() / 2]));
        cells.back().wallRuns = std::move(walls);
    }

    Table t({"workload", "threads", "ops", "wall ms", "wall Mops",
             "row acts", "hot bank", "lock ops", "model ms",
             "model Mops", "bank-par"});
    for (const Cell &c : cells)
        t.addRow({c.workload, std::to_string(c.threads),
                  std::to_string(c.ops), strfmt("%.2f", c.wallMs),
                  strfmt("%.4f", c.wallMops()),
                  std::to_string(c.rowActs),
                  std::to_string(c.maxBankActs),
                  std::to_string(c.lockOps), strfmt("%.3f", c.modelMs()),
                  strfmt("%.4f", c.modelMops()),
                  strfmt("%.2fx", c.bankParallel())});
    t.print();

    const int mid = smoke ? 2 : 4;
    const double mixedPar = bankParallelAt(cells, "mixed", mid);
    std::printf("\nbank-parallel (DRAM model) speedup over serial row "
                "issue at %d threads: mixed %.2fx, spmv_tiles %.2fx\n",
                mid, mixedPar, bankParallelAt(cells, "spmv_tiles", mid));
    std::printf("wall-clock %dT/1T: mixed %.2fx, spmv_tiles %.2fx, "
                "read_lookup %.2fx (median wall time of %d repeats)\n",
                mid, wallScalingAt(cells, "mixed", mid),
                wallScalingAt(cells, "spmv_tiles", mid),
                wallScalingAt(cells, "read_lookup", mid), repeats);

    bool ok = locksOk;
    std::printf("SELFCHECK read_lookup stripe-lock ops == 0 at every "
                "thread count: %s\n",
                locksOk ? "PASS" : "FAIL");
    if (!smoke) {
        const bool parOk = mixedPar >= 3.0;
        ok &= parOk;
        std::printf("SELFCHECK modeled mixed bank-parallel speedup >= 3x "
                    "at 4 threads: %s\n",
                    parOk ? "PASS" : "FAIL");
    }
    writeJson(cells, json_path, smoke, repeats);
    bench::finishBench();
    return ok ? 0 : 1;
}
