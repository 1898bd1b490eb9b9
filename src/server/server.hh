/**
 * @file
 * McServer — the networked memcached-text-protocol front-end over the
 * HICAMP heap (DESIGN.md §14, paper §4.4).
 *
 * Thread shape: one network thread owns the epoll loop, every socket,
 * and all per-connection parse state; N worker threads own the heap
 * work. The two sides meet at a pair of bounded MPMC rings
 * (server/ring.hh):
 *
 *   net --[Batch: conn + parsed commands]--> request ring --> workers
 *   workers --[append under conn output lock; Completion]--> net
 *
 * Every serving thread spins, then parks (server/park.hh): with no
 * work it polls for kIdleWindow, yielding between polls, then
 * announces that it sleeps, re-checks, and blocks — a worker on a
 * futex word, the net thread in epoll_wait. A producer wakes the
 * other side only after seeing that announcement: the net thread
 * notifies a parked worker after a push, and a worker writes the
 * eventfd only when the net thread is parked.
 *
 * At most one batch per connection is in flight, which preserves
 * memcached's response ordering with no reorder buffer while separate
 * connections scale across workers. A full request ring is
 * backpressure, never loss: the connection's batch stays staged, its
 * socket stops being read (TCP pushes back on the client), and the
 * next completion retries the handoff.
 *
 * Workers never touch a socket and the network thread never touches
 * the heap. The only shared mutable state is each connection's output
 * buffer, guarded by a CapMutex at the terminal `lockrank::server`
 * rank: heap calls under that lock invert the declared §7 order and
 * fail the thread-safety build.
 *
 * Memory pressure degrades per-request: a MemPressureError inside a
 * command answers "SERVER_ERROR out of memory" on that request alone;
 * the connection, the batch, and the process all carry on.
 */

#ifndef HICAMP_SERVER_SERVER_HH
#define HICAMP_SERVER_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hh"
#include "obs/metrics.hh"
#include "server/park.hh"
#include "server/proto.hh"
#include "server/ring.hh"
#include "server/store.hh"

namespace hicamp::server {

struct ServerConfig {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0; ///< 0 = ephemeral (see McServer::port())
    unsigned workers = 1;
    std::size_t maxConns = 1024;
    std::size_t ringSlots = 256;  ///< request-ring capacity
    std::size_t maxBatch = 64;    ///< commands per worker handoff
    std::size_t maxPending = 1024; ///< parsed-but-unsent cap per conn
};

class McServer
{
  public:
    /** How long an idle serving thread polls before it parks. Long
     *  enough to span the gap between requests at a steady rate,
     *  short enough that an idle server sleeps. */
    static constexpr std::chrono::microseconds kIdleWindow{1000};

    /** @p store outlives the server; the heap it wraps is shared. */
    McServer(McStore &store, ServerConfig cfg = {});
    ~McServer();

    McServer(const McServer &) = delete;
    McServer &operator=(const McServer &) = delete;

    /** Bind, listen, and spawn the network + worker threads. */
    void start();

    /** Graceful: stop accepting, drain in-flight batches, flush
     *  pending responses, close every socket, join all threads.
     *  Idempotent; also run by the destructor. */
    void stop();

    /** The bound port (resolves an ephemeral request). */
    std::uint16_t port() const { return port_; }

    bool running() const
    {
        return running_.load(std::memory_order_relaxed);
    }

    /** The server's observability surface ("server." namespace). */
    obs::MetricsRegistry &metrics() { return metrics_; }

  private:
    struct Conn;
    using ConnPtr = std::shared_ptr<Conn>;

    /** One handoff unit: a slice of parsed commands for one conn. */
    struct Batch {
        ConnPtr conn;
        std::vector<McCommand> cmds;
    };

    /** Worker -> net: "this connection has fresh output". */
    struct Completion {
        ConnPtr conn;
    };

    /** Cached references to the registry-owned hot-path tallies (the
     *  registry hands out stable references; caching skips its lookup
     *  lock on every bump — per-connection stats never serialize). */
    struct Stats {
        explicit Stats(obs::MetricsRegistry &m);
        ShardedCounter &accepted, &closed, &rejected;
        ShardedCounter &cmdGet, &cmdSet, &cmdDelete, &cmdArith,
            &cmdBad;
        ShardedCounter &hits, &misses, &oom;
        ShardedCounter &bytesIn, &bytesOut, &stalls;
        ShardedCounter &workerParks, &workerWakes, &netParks,
            &eventfdWrites;
        obs::Log2Histogram &batchCmds;
    };

    void netLoop();
    void workerLoop(unsigned idx);

    void acceptReady();
    void connReadable(const ConnPtr &c);
    void connWritable(const ConnPtr &c);
    void parseAndStage(const ConnPtr &c);
    void dispatch(const ConnPtr &c);
    bool tryDispatch(const ConnPtr &c);
    void retryDeferred();
    bool drainCompletions();
    void clearWakeups();
    void flushOut(const ConnPtr &c);
    void maybeFinish(const ConnPtr &c);
    void closeConn(const ConnPtr &c);
    void updateMask(const ConnPtr &c);
    void wakeNet();
    void drainOnStop();
    bool nextBatch(Batch &b);

    /** Execute one command, appending its response to @p resp. */
    void execute(const McCommand &cmd, IteratorRegister &it,
                 std::string &resp);
    void appendStats(std::string &resp);

    McStore &store_;
    ServerConfig cfg_;
    obs::MetricsRegistry metrics_;
    Stats st_;

    /// Open-connection level, bumped by the net thread, read by the
    /// registry gauge (module-local accessor lambda).
    HICAMP_ATOMIC_COUNTER std::atomic<std::uint64_t> connsOpen_{0};

    int listenFd_ = -1;
    int epollFd_ = -1;
    int eventFd_ = -1;
    std::uint16_t port_ = 0;

    /// Lifecycle words. All-relaxed FLAG use is sound: a spinning
    /// thread reads its flag on every turn, and each clear is
    /// followed by a wake that reaches a parked thread — stop()
    /// writes the eventfd after clearing running_, and bumps the
    /// worker futex word (a seq_cst RMW the parked re-check acquires)
    /// after clearing workersRun_. Thread join provides the final
    /// happens-before at shutdown.
    HICAMP_ATOMIC_FLAG std::atomic<bool> running_{false};
    HICAMP_ATOMIC_FLAG std::atomic<bool> workersRun_{false};

    /// Park handshakes: workers park on the request ring, the net
    /// thread on its completions (server/park.hh).
    ParkingLot workerPark_;
    ParkFlag netPark_;

    std::unique_ptr<MpmcRing<Batch>> requests_;
    std::unique_ptr<MpmcRing<Completion>> completions_;

    /// Net-thread-only connection table and backpressure queue.
    std::unordered_map<int, ConnPtr> conns_;
    std::list<ConnPtr> deferred_;

    std::thread netThread_;
    std::vector<std::thread> workers_;
};

} // namespace hicamp::server

#endif // HICAMP_SERVER_SERVER_HH
