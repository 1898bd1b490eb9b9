/**
 * @file
 * The three workloads (see perfbench/README.md for why each exists and
 * what every metric means). Each fills an Outcome: end-to-end metrics
 * untraced, per-layer metrics when RunArgs::trace is set.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <string>

#include "analysis/auditor.hh"
#include "core/hicamp.hh"
#include "obs/metrics.hh"
#include "report.hh"

namespace perfbench {

/** Heap shape shared by all workloads: the bench_server memory with a
 *  128 KiB modeled L2, and no fault injection from the environment. */
inline hicamp::MemoryConfig
benchMemConfig()
{
    hicamp::MemoryConfig m;
    m.numBuckets = 1 << 16;
    m.lockStripes = 16;
    m.l2Bytes = 128 * 1024;
    m.faults.allowEnvOverride = false;
    return m;
}

/** Exit audit: a dirty heap fails the run. */
inline void
auditInto(hicamp::Hicamp &hc, Outcome &o)
{
    const hicamp::AuditReport r = hicamp::Auditor::audit(hc);
    if (!r.clean())
        o.fail("exit audit: " + r.summary());
}

/** Counter delta over a registry phase. */
inline double
deltaOf(const hicamp::obs::MetricsSnapshot &d, const char *name)
{
    return static_cast<double>(d.counter(name));
}

/** a / b, or 0 when b is 0 (a ratio over no work reads 0). */
inline double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

/** Mean of a histogram delta (exact: sum / count). */
double histMean(const hicamp::obs::MetricsSnapshot &d, const char *name);

/** Per-layer heap metrics over one phase, per @p ops units of work. */
void addMemMetrics(Outcome &o, const hicamp::obs::MetricsSnapshot &memDelta,
                   double stripeLockOps, double ops, double limboMax);

void runKv(const RunArgs &a, Outcome &o);
void runSpmv(const RunArgs &a, Outcome &o);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
