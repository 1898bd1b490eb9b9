#include "report.hh"

#include <dirent.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out.push_back(c);
        }
    }
    return out;
}

std::string
quoted(const std::string &s)
{
    return "\"" + jsonEscape(s) + "\"";
}

/** Full precision: run-to-run comparisons need every digit. */
std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

const char *
sanitizers()
{
#if defined(__SANITIZE_ADDRESS__) && defined(__SANITIZE_THREAD__)
    return "address,thread";
#elif defined(__SANITIZE_ADDRESS__)
    return "address";
#elif defined(__SANITIZE_THREAD__)
    return "thread";
#else
    return "";
#endif
}

} // namespace

std::string
Outcome::resultJson() const
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        if (i)
            out += ", ";
        out += quoted(m.name) + ": {\"value\": " + num(m.value) +
               ", \"unit\": " + quoted(m.unit) + "}";
    }
    out += "}}";
    return out;
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::vector<pid_t>
threadIds()
{
    std::vector<pid_t> ids;
    if (DIR *d = opendir("/proc/self/task")) {
        while (const dirent *e = readdir(d)) {
            if (e->d_name[0] != '.')
                ids.push_back(static_cast<pid_t>(std::atoi(e->d_name)));
        }
        closedir(d);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
}

std::int64_t
schedRunNs(pid_t tid)
{
    long long run = 0;
    const std::string path =
        "/proc/self/task/" + std::to_string(tid) + "/schedstat";
    if (std::FILE *f = std::fopen(path.c_str(), "r")) {
        if (std::fscanf(f, "%lld", &run) != 1)
            run = 0;
        std::fclose(f);
    }
    return run;
}

/** The CPUs this process may use, read once: the main thread pins
 *  itself later, and its own mask would then hide the others. */
const cpu_set_t &
processCpus()
{
    static const cpu_set_t set = [] {
        cpu_set_t s;
        CPU_ZERO(&s);
        if (sched_getaffinity(0, sizeof s, &s) != 0)
            CPU_ZERO(&s);
        return s;
    }();
    return set;
}

unsigned
usableCpus()
{
    const int n = CPU_COUNT(&processCpus());
    return n > 0 ? static_cast<unsigned>(n)
                 : std::thread::hardware_concurrency();
}

bool
pinThread(unsigned slot, pid_t tid)
{
    const cpu_set_t &allowed = processCpus();
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed) || slot-- != 0)
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        return sched_setaffinity(tid, sizeof one, &one) == 0;
    }
    return false;
}

IdlePollers::IdlePollers(unsigned cpus)
{
    try {
        for (unsigned i = 0; i < cpus; ++i)
            threads_.emplace_back([this, i] {
                pinThread(i);
                const sched_param p{};
                ::sched_setscheduler(0, SCHED_IDLE, &p);
                while (!stop_.load(std::memory_order_relaxed))
                    ::sched_yield();
            });
    } catch (...) {
        stopAll();
        throw;
    }
}

IdlePollers::~IdlePollers() { stopAll(); }

void
IdlePollers::stopAll()
{
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread &t : threads_)
        t.join();
    threads_.clear();
}

double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

std::string
stampJson(const RunArgs &a, const Outcome &o)
{
    std::ostringstream s;
    s << "{\"workload\": " << quoted(a.workload) << ", \"seed\": " << a.seed
      << ", \"seconds\": " << num(a.seconds)
      << ", \"trace\": " << (a.trace ? "true" : "false")
      << ", \"hardware_concurrency\": "
      << std::thread::hardware_concurrency()
      << ", \"nproc\": " << usableCpus()
      << ", \"cpu_model\": " << quoted(cpuModel())
      << ", \"compiler\": " << quoted(PERFBENCH_COMPILER)
      << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
#ifdef HICAMP_TRACE
      << ", \"HICAMP_TRACE\": \"ON\""
#else
      << ", \"HICAMP_TRACE\": \"OFF\""
#endif
      << ", \"HICAMP_SANITIZE\": " << quoted(sanitizers())
      << ", \"git_sha\": " << quoted(a.gitSha)
      << ", \"src_digest\": " << quoted(a.srcDigest)
      << ", \"transport\": " << quoted(o.transport)
      << ", \"busy_threads\": " << o.busyThreads
      << ", \"pinned\": " << (o.pinned ? "true" : "false")
      << ", \"idle_pollers\": " << o.idlePollers
      << ", \"warnings\": [";
    for (std::size_t i = 0; i < o.warnings.size(); ++i)
        s << (i ? ", " : "") << quoted(o.warnings[i]);
    s << "]}";
    return s.str();
}

bool
SpanLog::write(const std::string &path, const std::string &stamp) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const auto us = [this](std::int64_t t) {
        return static_cast<double>(t - origin_) / 1e3;
    };
    std::fprintf(f, "{\"otherData\": %s,\n\"traceEvents\": [\n",
                 stamp.c_str());
    bool first = true;
    const auto sep = [&] {
        if (!first)
            std::fputs(",\n", f);
        first = false;
    };
    for (const Span &sp : spans_) {
        sep();
        std::fprintf(f,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %llu",
                     sp.name, sp.tid, us(sp.start),
                     static_cast<double>(sp.end - sp.start) / 1e3,
                     static_cast<unsigned long long>(sp.id));
        if (sp.sent >= 0)
            std::fprintf(f, ", \"due_us\": %.3f, \"sent_us\": %.3f, "
                            "\"done_us\": %.3f",
                         us(sp.start), us(sp.sent), us(sp.end));
        std::fputs("}}", f);
    }
    for (const Gauge &g : gauges_) {
        sep();
        std::fprintf(f,
                     "{\"name\": %s, \"ph\": \"C\", \"pid\": 1, "
                     "\"ts\": %.3f, \"args\": {\"value\": %s}}",
                     quoted(g.name).c_str(), us(g.ts), num(g.value).c_str());
    }
    for (const Mark &m : marks_) {
        sep();
        std::fprintf(f,
                     "{\"name\": %s, \"ph\": \"i\", \"s\": \"p\", "
                     "\"pid\": 1, \"tid\": 0, \"ts\": %.3f, \"args\": %s}",
                     quoted(m.name).c_str(), us(m.ts), m.args.c_str());
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

} // namespace perfbench
