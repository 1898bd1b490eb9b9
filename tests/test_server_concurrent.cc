/**
 * @file
 * Concurrency hammer for the serving front-end (DESIGN.md §14), run
 * under TSan in CI: churning client connections race SET/GET/DELETE
 * (plus incr and noreply traffic) against a multi-worker server on
 * one shared heap, and the heap is audited after the storm. The
 * interesting races are the ring handoff (net thread vs workers),
 * the per-connection output lock, and snapshot GETs overlapping
 * merge-update SET commits.
 *
 * The spin-then-park handshakes (server/park.hh) get their own cases:
 * requests that land on fully parked threads, and stop() while every
 * thread sleeps. The ServerIdle cases measure CPU time and round trips
 * on one CPU, so they stay out of the TSan filter.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "audit_check.hh"
#include "server/server.hh"
#include "server/store.hh"

namespace hicamp::server {
namespace {

/** Blocking client; expectations are counted, not asserted, so the
 *  hammer threads stay gtest-safe (EXPECT only on the main thread). */
class RawClient
{
  public:
    explicit RawClient(std::uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            return;
        timeval tv{10, 0};
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    ~RawClient()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    bool ok() const { return fd_ >= 0; }

    bool
    send(std::string_view bytes)
    {
        std::size_t off = 0;
        while (off < bytes.size()) {
            const ssize_t n =
                ::write(fd_, bytes.data() + off, bytes.size() - off);
            if (n <= 0)
                return false;
            off += static_cast<std::size_t>(n);
        }
        return true;
    }

    /** Read until @p bytes bytes arrived (or the receive timeout). */
    std::string
    recvN(std::size_t bytes)
    {
        std::string out;
        char buf[4096];
        while (out.size() < bytes) {
            const ssize_t n = ::read(fd_, buf, sizeof buf);
            if (n <= 0)
                break;
            out.append(buf, static_cast<std::size_t>(n));
        }
        return out;
    }

    std::string
    recvUntilClose()
    {
        std::string out;
        char buf[4096];
        for (;;) {
            const ssize_t n = ::read(fd_, buf, sizeof buf);
            if (n <= 0)
                break;
            out.append(buf, static_cast<std::size_t>(n));
        }
        return out;
    }

  private:
    int fd_ = -1;
};

TEST(ServerConcurrent, ChurningConnectionsRaceSetGetDelete)
{
    MemoryConfig mc;
    mc.numBuckets = 1 << 14;
    Hicamp hc(mc);
    McStore store(hc);
    ServerConfig sc;
    sc.workers = 3;
    sc.maxConns = 64;
    sc.ringSlots = 8; // small on purpose: exercises backpressure
    McServer srv(store, sc);
    srv.start();
    const std::uint16_t port = srv.port();

    // A shared hot key set so the threads genuinely collide on the
    // same map slots (merge-update + compareAndSet retry paths).
    constexpr int kThreads = 4;
    constexpr int kConnsPerThread = 25;
    std::atomic<std::uint64_t> failures{0};
    std::atomic<std::uint64_t> responsesSeen{0};
    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        clients.emplace_back([t, port, &failures, &responsesSeen] {
            for (int conn = 0; conn < kConnsPerThread; ++conn) {
                RawClient cli(port);
                if (!cli.ok()) {
                    ++failures;
                    continue;
                }
                const std::string hot =
                    "hot" + std::to_string((t + conn) % 3);
                const std::string mine = "t" + std::to_string(t) +
                                         "c" + std::to_string(conn);
                const std::string payload(64 + conn, 'a' + t);
                std::string script;
                script += "set " + hot + " 1 0 " +
                          std::to_string(payload.size()) + "\r\n" +
                          payload + "\r\n";
                script += "set " + mine + " 0 0 4 noreply\r\nmine\r\n";
                script += "get " + hot + " " + mine + "\r\n";
                script += "delete " + hot + "\r\n";
                script += "incr ctr 1\r\n";
                script += "get " + mine + "\r\nquit\r\n";
                if (!cli.send(script)) {
                    ++failures;
                    continue;
                }
                const std::string got = cli.recvUntilClose();
                // Responses race with other threads, so content is
                // nondeterministic — but the *shape* is not: every
                // reply stream ends with the final get's END and
                // contains one STORED for the first set.
                if (got.find("STORED\r\n") == std::string::npos ||
                    got.rfind("END\r\n") !=
                        got.size() - 5) {
                    ++failures;
                    continue;
                }
                ++responsesSeen;
            }
        });
    }
    for (auto &th : clients)
        th.join();

    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(responsesSeen.load(),
              static_cast<std::uint64_t>(kThreads * kConnsPerThread));

    srv.stop();
    const auto snap = srv.metrics().snapshot();
    EXPECT_EQ(snap.counter("server.conns.accepted"),
              snap.counter("server.conns.closed"));
    EXPECT_EQ(snap.gauge("server.conns.open"), 0u);
    EXPECT_GE(snap.counter("server.cmds.set"),
              2ull * kThreads * kConnsPerThread);

    // The churn held no PLIDs outside the store: the heap must
    // account for every reference with all clients gone.
    expectCleanAudit(hc);
}

TEST(ServerConcurrent, SnapshotGetsOverlapCommitsOnOneKey)
{
    // A writer connection rewrites one key while readers hammer GETs
    // on it: snapshot isolation says every GET sees a complete old or
    // complete new value, never a torn mix — checked with
    // self-describing payloads (homogeneous byte, length keyed to the
    // byte). GETs here read iterator-register snapshots in workers
    // while the SET commits race them on the same map slot.
    MemoryConfig mc;
    mc.numBuckets = 1 << 14;
    Hicamp hc(mc);
    McStore store(hc);
    store.set("snap", 0, std::string(500, 'A'));
    ServerConfig sc;
    sc.workers = 3;
    McServer srv(store, sc);
    srv.start();
    const std::uint16_t port = srv.port();

    const auto lenFor = [](char c) {
        return c == 'A' ? std::size_t{500} : std::size_t{900};
    };
    std::atomic<std::uint64_t> badReads{0};
    std::atomic<std::uint64_t> goodReads{0};
    std::atomic<std::uint64_t> failures{0};

    std::thread writer([port, &failures, &lenFor] {
        RawClient cli(port);
        if (!cli.ok()) {
            ++failures;
            return;
        }
        std::string script;
        for (int i = 0; i < 120; ++i) {
            const char c = (i % 2) ? 'B' : 'A';
            const std::string payload(lenFor(c), c);
            script += "set snap 0 0 " +
                      std::to_string(payload.size()) +
                      " noreply\r\n" + payload + "\r\n";
        }
        script += "quit\r\n";
        if (!cli.send(script))
            ++failures;
        cli.recvUntilClose();
    });

    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r) {
        readers.emplace_back([port, &failures, &badReads, &goodReads,
                              &lenFor] {
            RawClient cli(port);
            if (!cli.ok()) {
                ++failures;
                return;
            }
            std::string script;
            for (int i = 0; i < 150; ++i)
                script += "get snap\r\n";
            script += "quit\r\n";
            if (!cli.send(script)) {
                ++failures;
                return;
            }
            const std::string got = cli.recvUntilClose();
            std::size_t pos = 0;
            while (pos < got.size()) {
                const std::size_t nl = got.find("\r\n", pos);
                if (nl == std::string::npos)
                    break;
                const std::string line = got.substr(pos, nl - pos);
                pos = nl + 2;
                if (line == "END")
                    continue;
                // "VALUE snap 0 <len>" then <len> raw bytes.
                const std::size_t lenAt = line.rfind(' ');
                const std::size_t len = static_cast<std::size_t>(
                    std::stoul(line.substr(lenAt + 1)));
                if (pos + len + 2 > got.size()) {
                    ++failures;
                    break;
                }
                const std::string_view data(got.data() + pos, len);
                pos += len + 2;
                const char c = data.empty() ? '?' : data[0];
                bool torn = lenFor(c) != len;
                for (char b : data)
                    if (b != c)
                        torn = true;
                if (torn)
                    ++badReads;
                else
                    ++goodReads;
            }
        });
    }

    writer.join();
    for (auto &th : readers)
        th.join();
    srv.stop();

    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(badReads.load(), 0u);
    EXPECT_GT(goodReads.load(), 0u);
    expectCleanAudit(hc);
}

using Clock = std::chrono::steady_clock;

constexpr std::string_view kGetK = "get k\r\n";
constexpr std::string_view kReplyK = "VALUE k 0 1\r\nv\r\nEND\r\n";

/** The park/wake cases time replies and count wakes; an injected
 *  allocation failure would only turn a reply into SERVER_ERROR, which
 *  the fault-soak tests already cover, so they run without it. */
MemoryConfig
smallHeap()
{
    MemoryConfig mc;
    mc.numBuckets = 1 << 12;
    mc.faults.allowEnvOverride = false;
    return mc;
}

TEST(ServerConcurrent, ParkedThreadsWakeForSimultaneousRequests)
{
    // Each round starts with every server thread parked (idle for 3x
    // the window), then two connections send one GET each at the same
    // moment. A lost worker wakeup strands a request until the next
    // push; a lost net-thread wakeup strands it until epoll's 100 ms
    // safety-net timeout. Either shows as a reply later than 50 ms.
    Hicamp hc(smallHeap());
    McStore store(hc);
    store.set("k", 0, "v");
    ServerConfig sc;
    sc.workers = 2;
    McServer srv(store, sc);
    srv.start();
    int wrong = 0, late = 0;
    Clock::duration worst{};
    {
        RawClient a(srv.port()), b(srv.port());
        ASSERT_TRUE(a.ok() && b.ok());
        for (int round = 0; round < 200; ++round) {
            std::this_thread::sleep_for(3 * McServer::kIdleWindow);
            const auto t0 = Clock::now();
            if (!a.send(kGetK) || !b.send(kGetK)) {
                ++wrong;
                break;
            }
            for (RawClient *c : {&a, &b}) {
                if (c->recvN(kReplyK.size()) != kReplyK)
                    ++wrong;
                const auto dt = Clock::now() - t0;
                worst = std::max(worst, dt);
                if (dt > std::chrono::milliseconds(50))
                    ++late;
            }
        }
        // Storing a large value keeps its worker busy for tens of
        // windows (~50 ms on a 4-vCPU Xeon), so the net thread parks
        // before the batch completes and the completion must come
        // through the eventfd. Distinct bytes keep the value from
        // deduplicating into a few lines.
        std::string big(512 * 1024, '\0');
        for (std::size_t i = 0; i < big.size(); ++i)
            big[i] = static_cast<char>('a' + (i * 2654435761u >> 13) % 26);
        const std::string stored = "STORED\r\n";
        if (!a.send("set big 0 0 " + std::to_string(big.size()) +
                    "\r\n" + big + "\r\n") ||
            a.recvN(stored.size()) != stored)
            ++wrong;
    }
    const auto snap = srv.metrics().snapshot();
    srv.stop();
    EXPECT_EQ(wrong, 0);
    const auto worstUs =
        std::chrono::duration_cast<std::chrono::microseconds>(worst);
    EXPECT_EQ(late, 0) << "slowest reply: " << worstUs.count() << " us";
    // Every park and wake path ran (stop()'s own eventfd write comes
    // after the snapshot).
    EXPECT_GT(snap.counter("server.worker.parks"), 0u);
    EXPECT_GT(snap.counter("server.worker.wakes"), 0u);
    EXPECT_GT(snap.counter("server.net.parks"), 0u);
    EXPECT_GT(snap.counter("server.net.eventfd_writes"), 0u);
    expectCleanAudit(hc);
}

TEST(ServerConcurrent, StopReturnsPromptlyWhileParked)
{
    Hicamp hc(smallHeap());
    McStore store(hc);
    store.set("k", 0, "v");
    ServerConfig sc;
    sc.workers = 3;
    McServer srv(store, sc);
    srv.start();
    {
        RawClient c(srv.port());
        ASSERT_TRUE(c.ok());
        ASSERT_TRUE(c.send(kGetK));
        EXPECT_EQ(c.recvN(kReplyK.size()), kReplyK);
    }
    // Long past the window: every thread has announced and blocked.
    std::this_thread::sleep_for(20 * McServer::kIdleWindow);
    const auto snap = srv.metrics().snapshot();
    EXPECT_GE(snap.counter("server.worker.parks"), sc.workers);
    EXPECT_GT(snap.counter("server.net.parks"), 0u);
    const auto t0 = Clock::now();
    srv.stop();
    EXPECT_LT(Clock::now() - t0, std::chrono::seconds(1));
    expectCleanAudit(hc);
}

/** Thread ids of this process, sorted. */
std::vector<pid_t>
threadIds()
{
    std::vector<pid_t> ids;
    if (DIR *d = ::opendir("/proc/self/task")) {
        while (const dirent *e = ::readdir(d))
            if (e->d_name[0] != '.')
                ids.push_back(static_cast<pid_t>(std::atoi(e->d_name)));
        ::closedir(d);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
}

/** Time thread @p tid has spent on a CPU (schedstat field 1), ns;
 *  -1 when the kernel does not expose it. */
long long
cpuNs(pid_t tid)
{
    long long run = -1;
    const std::string path =
        "/proc/self/task/" + std::to_string(tid) + "/schedstat";
    if (std::FILE *f = std::fopen(path.c_str(), "r")) {
        if (std::fscanf(f, "%lld", &run) != 1)
            run = -1;
        std::fclose(f);
    }
    return run;
}

TEST(ServerIdle, ThreadsSleepAfterLastReply)
{
    // An idle server must sleep: after the last reply each thread may
    // spin for one window, then parks. A loop that only yields keeps
    // its thread on a CPU and fails the 10% bound.
    Hicamp hc(smallHeap());
    McStore store(hc);
    store.set("k", 0, "v");
    ServerConfig sc;
    sc.workers = 2;
    McServer srv(store, sc);
    const std::vector<pid_t> before = threadIds();
    srv.start();
    std::vector<pid_t> serving;
    for (pid_t t : threadIds())
        if (!std::binary_search(before.begin(), before.end(), t))
            serving.push_back(t);
    ASSERT_EQ(serving.size(), sc.workers + 1u);
    {
        RawClient c(srv.port());
        ASSERT_TRUE(c.ok());
        ASSERT_TRUE(c.send(kGetK));
        EXPECT_EQ(c.recvN(kReplyK.size()), kReplyK);
    }
    constexpr auto kSpan = std::chrono::milliseconds(500);
    std::vector<long long> cpu0;
    for (pid_t t : serving)
        cpu0.push_back(cpuNs(t));
    std::this_thread::sleep_for(kSpan);
    for (std::size_t i = 0; i < serving.size(); ++i) {
        const long long cpu1 = cpuNs(serving[i]);
        ASSERT_GE(cpu0[i], 0) << "no schedstat for thread " << serving[i];
        EXPECT_LT(static_cast<double>(cpu1 - cpu0[i]),
                  0.10 * std::chrono::nanoseconds(kSpan).count())
            << "server thread " << serving[i] << " kept running while idle";
    }
    srv.stop();
    expectCleanAudit(hc);
}

TEST(ServerIdle, OneCpuRoundTripsStayFast)
{
    // Client, net thread and both workers share one CPU (server
    // threads inherit the mask of the thread that starts them). Every
    // spinning thread yields, so a request waits microseconds for the
    // next thread in line, not a scheduler slice.
    cpu_set_t saved;
    ASSERT_EQ(::sched_getaffinity(0, sizeof saved, &saved), 0);
    int cpu = 0;
    while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &saved))
        ++cpu;
    ASSERT_LT(cpu, CPU_SETSIZE);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ASSERT_EQ(::sched_setaffinity(0, sizeof one, &one), 0);
    struct RestoreMask {
        const cpu_set_t &mask;
        ~RestoreMask() { ::sched_setaffinity(0, sizeof mask, &mask); }
    } restore{saved};

    Hicamp hc(smallHeap());
    McStore store(hc);
    store.set("k", 0, "v");
    ServerConfig sc;
    sc.workers = 2;
    McServer srv(store, sc);
    srv.start();
    std::vector<double> rttUs;
    {
        RawClient c(srv.port());
        ASSERT_TRUE(c.ok());
        for (int i = 0; i < 500; ++i) {
            const auto t0 = Clock::now();
            ASSERT_TRUE(c.send(kGetK));
            ASSERT_EQ(c.recvN(kReplyK.size()), kReplyK);
            const std::chrono::duration<double, std::micro> rtt =
                Clock::now() - t0;
            rttUs.push_back(rtt.count());
        }
    }
    srv.stop();
    std::nth_element(rttUs.begin(), rttUs.begin() + rttUs.size() / 2,
                     rttUs.end());
    EXPECT_LT(rttUs[rttUs.size() / 2], 1000.0);
    expectCleanAudit(hc);
}

} // namespace
} // namespace hicamp::server
