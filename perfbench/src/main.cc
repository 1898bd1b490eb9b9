/**
 * @file
 * perfbench: the repository benchmark. One run of one workload:
 *
 *   perfbench --workload kv_read|kv_write|spmv --seed N --seconds S
 *             --trace 0|1 [--out-dir DIR]
 *
 * Untraced runs print the end-to-end metrics, traced runs the per-layer
 * metrics (and write the span file into --out-dir). The last stdout
 * line is {"correct", "attempted", "failed", "metrics"}; the exit code
 * is 0 only when every output was correct. perfbench/README.md defines
 * every metric and workload.
 */

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

struct MetricDef {
    const char *name;
    const char *unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"p50_us", "us"},
    {"p90_us", "us"},
    {"peak_ops_s", "1/s"},
    {"bytes_per_user_byte", "ratio"},
    {"rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"loadgen.late_p99_us", "us"},
    {"loadgen.p99_us", "us"},
    {"loadgen.busy_frac", "ratio"},
    {"server.net.busy_frac", "ratio"},
    {"server.worker.busy_frac", "ratio"},
    {"server.batch.cmds_mean", "count"},
    {"server.backpressure.stalls_per_kop", "count/kop"},
    {"server.reqring.occupancy_mean", "count"},
    {"server.bytes.out_per_op", "B/op"},
    {"server.overhead_p50_us", "us"},
    {"store.get_p50_ns", "ns"},
    {"store.get_p99_ns", "ns"},
    {"store.set_p50_ns", "ns"},
    {"store.arith_p50_ns", "ns"},
    {"vsm.commits_per_op", "count/op"},
    {"vsm.cas_failures_per_commit", "ratio"},
    {"contention.retries_per_op", "count/op"},
    {"mem.reads_per_op", "count/op"},
    {"mem.l1_hit_ratio", "ratio"},
    {"mem.l2_hit_ratio", "ratio"},
    {"mem.stripe_lock_ops_per_op", "count/op"},
    {"mem.lookups_per_op", "count/op"},
    {"mem.dedup_hit_ratio", "ratio"},
    {"mem.row_acts_per_op", "count/op"},
    {"mem.dram_per_op", "count/op"},
    {"mem.grace_mean_ns", "ns"},
    {"mem.limbo_depth_max", "count"},
    {"spmv.multiply_p50_ms", "ms"},
    {"spmv.cpu_ns_per_nnz", "ns"},
    {"spmv.wall_over_cpu", "ratio"},
    {"trace.overhead_pct", "%"},
};

/**
 * Reorder @p o's metrics to the canonical list. A per-layer metric the
 * workload did not produce is a layer that did no work there and reads
 * 0 (server.* on spmv); a missing end-to-end metric is a bug.
 */
template <std::size_t N>
void
canonicalize(Outcome &o, const MetricDef (&defs)[N], bool zeroIfMissing)
{
    std::vector<Metric> out;
    for (const MetricDef &d : defs) {
        const Metric *found = nullptr;
        for (const Metric &m : o.metrics)
            if (m.name == d.name)
                found = &m;
        if (found)
            out.push_back(*found);
        else if (zeroIfMissing)
            out.push_back({d.name, 0.0, d.unit});
        else
            o.fail(std::string("no value for ") + d.name);
    }
    o.metrics = std::move(out);
}

} // namespace

double
histMean(const hicamp::obs::MetricsSnapshot &d, const char *name)
{
    for (const auto &[n, h] : d.histograms)
        if (n == name)
            return ratio(static_cast<double>(h.sum),
                         static_cast<double>(h.count));
    return 0.0;
}

void
addMemMetrics(Outcome &o, const hicamp::obs::MetricsSnapshot &d,
              double stripeLockOps, double ops, double limboMax)
{
    const double l1 =
        deltaOf(d, "cache.l1.hits") + deltaOf(d, "cache.l1.misses");
    const double l2 =
        deltaOf(d, "cache.l2.hits") + deltaOf(d, "cache.l2.misses");
    const double lookups = deltaOf(d, "ops.lookups");
    const double commits = deltaOf(d, "vsm.commits");
    const double dram = deltaOf(d, "dram.read") + deltaOf(d, "dram.write") +
                        deltaOf(d, "dram.lookup") +
                        deltaOf(d, "dram.dealloc") +
                        deltaOf(d, "dram.refcount");
    o.add("vsm.commits_per_op", ratio(commits, ops), "count/op");
    o.add("vsm.cas_failures_per_commit",
          ratio(deltaOf(d, "vsm.cas_failures"), commits), "ratio");
    o.add("contention.retries_per_op",
          ratio(deltaOf(d, "contention.retries"), ops), "count/op");
    o.add("mem.reads_per_op", ratio(deltaOf(d, "ops.reads"), ops),
          "count/op");
    o.add("mem.l1_hit_ratio", ratio(deltaOf(d, "cache.l1.hits"), l1),
          "ratio");
    o.add("mem.l2_hit_ratio", ratio(deltaOf(d, "cache.l2.hits"), l2),
          "ratio");
    o.add("mem.stripe_lock_ops_per_op", ratio(stripeLockOps, ops),
          "count/op");
    o.add("mem.lookups_per_op", ratio(lookups, ops), "count/op");
    o.add("mem.dedup_hit_ratio",
          ratio(deltaOf(d, "lookup.dedup_hits"), lookups), "ratio");
    o.add("mem.row_acts_per_op", ratio(deltaOf(d, "row_activations"), ops),
          "count/op");
    o.add("mem.dram_per_op", ratio(dram, ops), "count/op");
    o.add("mem.grace_mean_ns", histMean(d, "epoch.grace_ns"), "ns");
    o.add("mem.limbo_depth_max", limboMax, "count");
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunArgs a;
    unsigned trace = 0;
    hicamp::cli::FlagSet flags(
        "perfbench", "repository benchmark: one run of one workload");
    flags.str("--workload", &a.workload, "kv_read | kv_write | spmv");
    flags.u64("--seed", &a.seed, "input seed");
    flags.f64("--seconds", &a.seconds, "measured time");
    flags.u32("--trace", &trace, "1 = traced run (per-layer metrics)");
    flags.str("--out-dir", &a.outDir, "directory for the span file");
    flags.str("--git-sha", &a.gitSha, "commit being measured (stamp)");
    flags.str("--src-digest", &a.srcDigest, "source digest (stamp)");
    flags.parse(argc, argv);
    a.trace = trace != 0;
    const bool kv = a.workload == "kv_read" || a.workload == "kv_write";
    if ((!kv && a.workload != "spmv") || trace > 1 || !(a.seconds > 0.0) ||
        a.seconds > 600.0) {
        flags.usage(stderr);
        return 2;
    }

    const unsigned cpus = usableCpus(); // before any thread pins itself
    Outcome o;
    if (kv)
        runKv(a, o);
    else
        runSpmv(a, o);
    if (!a.trace)
        o.add("rss_mb", peakRssMb(), "MB");
    if (a.trace)
        canonicalize(o, kPerLayer, true);
    else
        canonicalize(o, kEndToEnd, false);
    if (o.busyThreads > cpus)
        o.warnings.push_back("runs " + std::to_string(o.busyThreads) +
                             " busy threads on " + std::to_string(cpus) +
                             " CPUs");

    std::printf("# stamp %s\n", stampJson(a, o).c_str());
    for (const Metric &m : o.metrics)
        std::printf("# %-36s %16.4f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const std::string &e : o.errors)
        std::printf("# error: %s\n", e.c_str());
    std::printf("%s\n", o.resultJson().c_str());
    std::fflush(stdout);
    return o.correct ? 0 : 1;
}
