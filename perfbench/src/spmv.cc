/**
 * @file
 * spmv: kThreads threads each compute y = A x in a loop through their
 * own QtsMatrix handle. The handles are built from one matrix in one
 * Memory, so content-unique lines make them one shared, deduplicated
 * DAG: pure concurrent reading of shared immutable lines (paper §5.2),
 * with no server in the picture. Every y is checked against
 * SparseMatrix::multiply.
 */

#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "apps/spmv/hicamp_matrix.hh"
#include "obs/export.hh"
#include "stats.hh"
#include "workloads.hh"
#include "workloads/matrixgen.hh"

namespace perfbench {

namespace {

using namespace hicamp;

constexpr unsigned kThreads = 4;
/// 2D FEM grid edge: kGrid^2 rows, ~5 nonzeros per row; its QTS DAG is
/// several times the 128 KiB modeled L2.
constexpr std::uint32_t kGrid = 96;
/// A set-up takes ~0.2 s and host noise moves a single one by a third,
/// so setup_s is the median of this many.
constexpr int kSetupReps = 15;
constexpr double kMaxRelErr = 1e-9;

/** The shared DAG: one heap, one handle per thread. */
struct SpmvRig {
    SparseMatrix a;
    std::unique_ptr<Hicamp> hc;
    std::vector<std::unique_ptr<QtsMatrix>> handles; ///< die before hc

    /** Matrix generation plus DAG build: what setup_s times. */
    static std::unique_ptr<SpmvRig>
    build(std::uint64_t seed)
    {
        auto r = std::make_unique<SpmvRig>();
        r->a = MatrixGen::fem2d(kGrid, MatrixGen::Coef::Smooth, true, seed,
                                "fem2d-smooth");
        r->hc = std::make_unique<Hicamp>(benchMemConfig());
        for (unsigned t = 0; t < kThreads; ++t)
            r->handles.push_back(
                std::make_unique<QtsMatrix>(r->hc->mem, r->a));
        return r;
    }
};

struct ThreadLog {
    std::vector<double> latUs;
    std::vector<std::pair<std::int64_t, std::int64_t>> calls;
    std::uint64_t bad = 0;
    std::int64_t cpuNs = 0, start = 0, end = 0;
    std::uint32_t tid = 0;
    std::string firstError;
};

struct Phase {
    std::vector<ThreadLog> logs;
    std::int64_t start = 0, end = 0;
    std::uint64_t multiplies = 0;
    bool pinned = false;

    double
    seconds() const
    {
        return static_cast<double>(end - start) / 1e9;
    }
};

/** ||y - ref||_inf / ||ref||_inf. */
double
relError(const std::vector<double> &y, const std::vector<double> &ref)
{
    double diff = 0.0, scale = 0.0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        diff = std::max(diff, std::abs(y[i] - ref[i]));
        scale = std::max(scale, std::abs(ref[i]));
    }
    return scale > 0.0 ? diff / scale : diff;
}

/**
 * All threads multiply until @p seconds have passed since a common
 * start; @p tick runs on the calling thread about every 100 ms.
 */
Phase
runPhase(const SpmvRig &rig, const std::vector<std::vector<double>> &xs,
         const std::vector<std::vector<double>> &refs, double seconds,
         const std::function<void(std::int64_t)> &tick = {})
{
    Phase ph;
    ph.logs.resize(kThreads);
    std::atomic<unsigned> ready{0}, finished{0}, unpinned{0};
    std::atomic<std::int64_t> deadline{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ThreadLog &lg = ph.logs[t];
            lg.tid = static_cast<std::uint32_t>(::syscall(SYS_gettid));
            if (!pinThread(t))
                unpinned.fetch_add(1);
            ready.fetch_add(1);
            std::int64_t stop = 0;
            while ((stop = deadline.load(std::memory_order_acquire)) == 0)
                std::this_thread::yield();
            const std::int64_t cpu0 = threadCpuNs();
            lg.start = nowNs();
            for (std::int64_t c0 = lg.start; c0 < stop;) {
                const std::vector<double> y = rig.handles[t]->spmv(xs[t]);
                const std::int64_t c1 = nowNs();
                lg.latUs.push_back(static_cast<double>(c1 - c0) / 1e3);
                lg.calls.emplace_back(c0, c1);
                const double err = relError(y, refs[t]);
                if (!(err <= kMaxRelErr)) {
                    ++lg.bad;
                    if (lg.firstError.empty())
                        lg.firstError = "thread " + std::to_string(t) +
                                        ": relative error " +
                                        std::to_string(err);
                }
                c0 = nowNs();
            }
            lg.end = nowNs();
            lg.cpuNs = threadCpuNs() - cpu0;
            finished.fetch_add(1);
        });
    }
    while (ready.load() < kThreads)
        std::this_thread::yield();
    ph.start = nowNs();
    const auto len = static_cast<std::int64_t>(seconds * 1e9);
    deadline.store(ph.start + len, std::memory_order_release);
    while (finished.load() < kThreads) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        if (tick)
            tick(nowNs());
    }
    for (auto &th : threads)
        th.join();
    ph.pinned = unpinned.load() == 0;
    for (const ThreadLog &lg : ph.logs) {
        ph.end = std::max(ph.end, lg.end);
        ph.multiplies += lg.latUs.size();
    }
    return ph;
}

} // namespace

void
runSpmv(const RunArgs &a, Outcome &o)
{
    o.transport = "none (in-process library calls)";
    o.busyThreads = kThreads;

    std::vector<double> setupS;
    std::unique_ptr<SpmvRig> rig;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        rig.reset();
        const std::int64_t t0 = nowNs();
        rig = SpmvRig::build(a.seed);
        setupS.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    const double nnz = static_cast<double>(rig->a.nnz());

    // Inputs and oracle: one seeded x per thread, y from CSR.
    Rng rng(a.seed * 0x9e3779b97f4a7c15ull + 29);
    std::vector<std::vector<double>> xs(kThreads), refs(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        xs[t].resize(rig->a.cols());
        for (double &v : xs[t])
            v = rng.uniform() * 2.0 - 1.0;
        refs[t] = rig->a.multiply(xs[t]);
    }

    std::uint64_t attempted = 0, failed = 0;
    const auto account = [&](const Phase &ph) {
        o.pinned = ph.pinned;
        attempted += ph.multiplies;
        for (const ThreadLog &lg : ph.logs) {
            failed += lg.bad;
            if (!lg.firstError.empty())
                o.fail(lg.firstError);
        }
    };
    const auto nnzPerS = [&](const Phase &ph) {
        return nnz * static_cast<double>(ph.multiplies) / ph.seconds();
    };
    const auto latencies = [](const Phase &ph) {
        std::vector<std::pair<std::int64_t, double>> byEnd;
        for (const ThreadLog &lg : ph.logs)
            for (std::size_t i = 0; i < lg.calls.size(); ++i)
                byEnd.emplace_back(lg.calls[i].second, lg.latUs[i]);
        std::sort(byEnd.begin(), byEnd.end());
        std::vector<double> v;
        for (const auto &e : byEnd)
            v.push_back(e.second);
        return v;
    };

    account(runPhase(*rig, xs, refs, 0.3)); // warm the modeled caches

    if (!a.trace) {
        const Phase ph = runPhase(*rig, xs, refs, a.seconds);
        account(ph);
        const std::vector<double> lat = latencies(ph);
        o.add("p50_us", percentile(lat, 0.50), "us");
        o.add("p90_us", percentile(lat, 0.90), "us");
        // One op is one nonzero multiplied (summed over the threads).
        o.add("peak_ops_s", nnzPerS(ph), "1/s");
        std::printf("# spmv: %u x %u matrix, %.0f nonzeros, %zu "
                    "multiplies\n",
                    rig->a.rows(), rig->a.cols(), nnz, lat.size());
    } else {
        SpanLog spans(nowNs());
        const Phase plain = runPhase(*rig, xs, refs, 0.45 * a.seconds);
        account(plain);

        Memory &mem = rig->hc->mem;
        obs::MetricsRegistry &reg = mem.metrics();
        const obs::MetricsSnapshot m0 = reg.snapshot();
        const double locks0 =
            static_cast<double>(mem.store().stripeLockExclusiveOps() +
                                mem.store().stripeLockSharedOps());
        double limboMax = 0.0;
        const Phase ph = runPhase(
            *rig, xs, refs, 0.45 * a.seconds, [&](std::int64_t now) {
                const double limbo = static_cast<double>(
                    reg.snapshot().gauge("epoch.limbo_depth"));
                spans.gauge("epoch.limbo_depth", now, limbo);
                limboMax = std::max(limboMax, limbo);
            });
        account(ph);
        const double locks1 =
            static_cast<double>(mem.store().stripeLockExclusiveOps() +
                                mem.store().stripeLockSharedOps());
        const obs::MetricsSnapshot md = obs::delta(m0, reg.snapshot());
        spans.mark("phase.traced.mem", ph.end, obs::toJson(md));

        double cpu = 0.0, wall = 0.0;
        std::uint64_t id = 0;
        for (const ThreadLog &lg : ph.logs) {
            cpu += static_cast<double>(lg.cpuNs);
            wall += static_cast<double>(lg.end - lg.start);
            for (const auto &[c0, c1] : lg.calls)
                spans.span("spmv.multiply", lg.tid, c0, c1, id++);
        }
        const double work = nnz * static_cast<double>(ph.multiplies);
        addMemMetrics(o, md, locks1 - locks0, work, limboMax);
        o.add("spmv.multiply_p50_ms", percentile(latencies(ph), 0.5) / 1e3,
              "ms");
        o.add("spmv.cpu_ns_per_nnz", ratio(cpu, work), "ns");
        o.add("spmv.wall_over_cpu", ratio(wall, cpu), "ratio");
        o.add("trace.overhead_pct",
              (ratio(nnzPerS(plain), nnzPerS(ph)) - 1.0) * 100.0, "%");
        const std::string path = a.outDir + "/trace-" + a.workload +
                                 "-seed" + std::to_string(a.seed) + ".json";
        if (spans.write(path, stampJson(a, o)))
            std::printf("# spans: %zu written to %s\n", spans.size(),
                        path.c_str());
        else
            o.warnings.push_back("could not write " + path);
    }

    // Quiesced end: retire limbo, weigh the DAG, then audit an empty heap.
    rig->hc->mem.store().epochSynchronize();
    if (!a.trace) {
        o.add("bytes_per_user_byte",
              static_cast<double>(rig->hc->mem.liveBytes()) /
                  static_cast<double>(rig->a.csrBytes()),
              "ratio");
        o.add("setup_s", percentile(setupS, 0.5), "s");
    }
    rig->handles.clear();
    auditInto(*rig->hc, o);
    o.attempted = attempted;
    o.failed = failed;
    if (failed > 0)
        o.fail(std::to_string(failed) + " multiplies were wrong");
}

} // namespace perfbench
