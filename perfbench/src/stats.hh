/**
 * @file
 * The benchmark's pure arithmetic: exact percentiles over raw samples,
 * open-loop schedules, latency and lateness, and windowed rates.
 * Nothing here touches the clock or the heap, so every function
 * is unit-tested on synthetic inputs with known answers
 * (tests/stats_test.cc).
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hh"

namespace perfbench {

/**
 * Nearest-rank percentile of raw samples: the smallest sample with at
 * least a fraction @p q of all samples at or below it. Exact (no
 * bucketing); takes its argument by value because it partially sorts.
 * Returns 0 for an empty set.
 */
inline double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    idx = std::min(idx, v.size() - 1);
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                     v.end());
    return v[idx];
}

/// On a shared host, other tenants take the CPUs away for a share of a
/// run that changes from run to run. The kv end-to-end metrics therefore
/// come from short windows and report the windows the host left
/// quietest: the lower quartile of per-window latencies and the upper
/// quartile of per-window rates. A change to the measured code moves
/// every window, so it moves these too.
constexpr double kQuietLatency = 0.25;
constexpr double kQuietRate = 0.75;

/**
 * Percentile that host stalls in some windows cannot swing: split the
 * samples into consecutive windows of @p window samples, take each
 * window's @p q percentile, and return the @p across percentile of
 * those. A trailing partial window is dropped; with fewer than one full
 * window this is the plain percentile. Callers size the window so each
 * holds at least ten samples beyond q.
 */
inline double
windowedPercentile(const std::vector<double> &v, std::size_t window,
                   double q, double across)
{
    if (window == 0 || v.size() < window)
        return percentile(v, q);
    std::vector<double> per;
    for (std::size_t i = 0; i + window <= v.size(); i += window)
        per.push_back(percentile(
            std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(i),
                                v.begin() +
                                    static_cast<std::ptrdiff_t>(i + window)),
            q));
    return percentile(per, across);
}

/**
 * Unit-rate Poisson inter-arrival gaps (exponential, mean 1) for @p n
 * requests. Dividing by a rate gives the schedule at that rate without
 * drawing new random numbers, so every input is fixed before timing
 * starts.
 */
inline std::vector<double>
unitPoissonGaps(std::uint64_t n, hicamp::Rng &rng)
{
    std::vector<double> g(n);
    for (auto &x : g)
        x = -std::log1p(-rng.uniform());
    return g;
}

/**
 * Walks a gap stream at a fixed rate: next() is the due time (ns after
 * the phase start) of the next request. The stream wraps, so a phase may
 * be longer than the stream. A rate of 0 makes every request due at 0
 * (a preload burst).
 */
class Schedule
{
  public:
    Schedule(const std::vector<double> &gaps, std::uint64_t first,
             double rate)
        : gaps_(gaps), pos_(first), rate_(rate)
    {
    }

    std::int64_t
    next()
    {
        if (rate_ <= 0.0)
            return 0;
        acc_ += gaps_[pos_++ % gaps_.size()];
        return static_cast<std::int64_t>(acc_ / rate_ * 1e9);
    }

  private:
    const std::vector<double> &gaps_;
    std::uint64_t pos_;
    double rate_;
    double acc_ = 0.0;
};

/** How late a request left the generator: sent - due, never negative. */
inline std::int64_t
latenessNs(std::int64_t due, std::int64_t sent)
{
    return sent > due ? sent - due : 0;
}

/** Open-loop latency: done - due, which keeps a stall's wait in the
 *  requests it delayed (no coordinated omission). */
inline std::int64_t
latencyNs(std::int64_t due, std::int64_t done)
{
    return done - due;
}

/**
 * Completions per second: the @p across percentile over consecutive
 * windows of @p windowNs in [@p start, @p end) of each window's
 * completion count (`done` < 0 = never completed). A trailing partial
 * window is dropped.
 */
inline double
windowRate(const std::vector<std::int64_t> &done, std::int64_t start,
           std::int64_t end, std::int64_t windowNs, double across)
{
    if (windowNs <= 0 || end - start < windowNs)
        return 0.0;
    std::vector<double> counts(
        static_cast<std::size_t>((end - start) / windowNs), 0.0);
    for (std::int64_t t : done) {
        if (t < start)
            continue;
        const auto w = static_cast<std::size_t>((t - start) / windowNs);
        if (w < counts.size())
            counts[w] += 1.0;
    }
    return percentile(counts, across) * 1e9 / static_cast<double>(windowNs);
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
