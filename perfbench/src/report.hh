/**
 * @file
 * What every workload shares: the run arguments, the outcome (correct /
 * attempted / failed plus named metrics), the host stamp, per-thread
 * CPU accounting from /proc/self/task/<tid>/schedstat, and the
 * in-memory span log written out as Chrome trace JSON at exit.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct RunArgs {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".";   ///< where the traced run writes its spans
    std::string gitSha = "unknown";
    std::string srcDigest = "unknown";
};

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/** One run's result: the last stdout line is its JSON form. */
struct Outcome {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> warnings;
    std::vector<std::string> errors; ///< first few correctness failures
    unsigned busyThreads = 0; ///< threads the workload keeps runnable
    bool pinned = false;      ///< each busy thread has its own CPU
    unsigned idlePollers = 0; ///< IdlePollers threads during the run
    std::string transport;    ///< how requests reached the program

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    /** Record a correctness failure (a failed op fails the run). */
    void
    fail(const std::string &why)
    {
        correct = false;
        if (errors.size() < 8)
            errors.push_back(why);
    }

    /** Final JSON line: exactly correct/attempted/failed/metrics. */
    std::string resultJson() const;
};

/** steady_clock nanoseconds. */
std::int64_t nowNs();

/** Calling thread's CPU time (ns). */
std::int64_t threadCpuNs();

/** Thread ids of this process, ascending. */
std::vector<pid_t> threadIds();

/** Time thread @p tid has spent on a CPU (schedstat field 1), ns. */
std::int64_t schedRunNs(pid_t tid);

/** CPUs this process may run on (what `nproc` prints). */
unsigned usableCpus();

/** Pin thread @p tid (0 = the calling thread) to the @p slot-th CPU
 *  this process may use; false when there is no such CPU. */
bool pinThread(unsigned slot, pid_t tid = 0);

/**
 * One SCHED_IDLE thread per CPU, each calling sched_yield() in a loop
 * until destroyed, so no vCPU halts while the program waits between
 * requests. On a virtual machine without guest halt-polling a halted
 * vCPU is woken by the hypervisor, late by up to milliseconds when the
 * host is busy; every request wakes several threads, so that delay,
 * not the program, would set the latency. A SCHED_IDLE thread gives
 * way at once to a waking normal thread, and yielding hands the CPU
 * back within microseconds to a thread that called sched_yield(). The
 * pollers' CPU time enters no metric (per-thread accounting).
 */
class IdlePollers
{
  public:
    explicit IdlePollers(unsigned cpus);
    ~IdlePollers();
    IdlePollers(const IdlePollers &) = delete;
    IdlePollers &operator=(const IdlePollers &) = delete;

    unsigned size() const { return static_cast<unsigned>(threads_.size()); }

  private:
    void stopAll();

    std::atomic<bool> stop_{false};
    std::vector<std::thread> threads_;
};

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/** Host/build/run facts as one JSON object. */
std::string stampJson(const RunArgs &a, const Outcome &o);

/**
 * Spans kept in memory during the traced run and written once at exit
 * as Chrome trace_event JSON (chrome://tracing, ui.perfetto.dev).
 * Times are steady_clock ns; the writer rebases them to the log's
 * origin and prints microseconds.
 */
class SpanLog
{
  public:
    struct Span {
        const char *name; ///< static string
        std::uint32_t tid;
        std::int64_t start, end;
        std::uint64_t id;
        std::int64_t sent = -1; ///< client.request only
    };

    explicit SpanLog(std::int64_t origin) : origin_(origin) {}

    void
    span(const char *name, std::uint32_t tid, std::int64_t start,
         std::int64_t end, std::uint64_t id, std::int64_t sent = -1)
    {
        spans_.push_back({name, tid, start, end, id, sent});
    }

    /** A sampled gauge ("C" counter event). */
    void
    gauge(std::string name, std::int64_t ts, double value)
    {
        gauges_.push_back({std::move(name), ts, value});
    }

    /** An instant event carrying a JSON object (registry deltas). */
    void
    mark(std::string name, std::int64_t ts, std::string argsJson)
    {
        marks_.push_back({std::move(name), ts, std::move(argsJson)});
    }

    std::size_t size() const { return spans_.size(); }

    /** Write the trace with @p stamp as its metadata; false on error. */
    bool write(const std::string &path, const std::string &stamp) const;

  private:
    struct Gauge {
        std::string name;
        std::int64_t ts;
        double value;
    };
    struct Mark {
        std::string name;
        std::int64_t ts;
        std::string args;
    };
    std::int64_t origin_;
    std::vector<Span> spans_;
    std::vector<Gauge> gauges_;
    std::vector<Mark> marks_;
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
