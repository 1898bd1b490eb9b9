/**
 * @file
 * McServer implementation. See server.hh for the thread shape and
 * DESIGN.md §14 for the serving architecture; the short version:
 *
 *  - The network thread owns epoll, every socket, every Conn's parse
 *    and write state, the connection table and the backpressure
 *    queue. Nothing here locks except the per-connection output
 *    buffer handoff.
 *  - Workers own the heap: they pop command batches, materialize full
 *    responses against McStore, and only then take the connection's
 *    output lock (terminal `lockrank::server` rank) to append — the
 *    lock is held for a memcpy, never across a heap call.
 *  - Idle threads spin for kIdleWindow, then park (server/park.hh).
 *    The net thread notifies a parked worker after a push; a worker
 *    writes the eventfd only when the net thread is parked. The
 *    request ring full is the only net→worker backpressure (the
 *    connection's batch stays staged and its socket stops being
 *    polled for reads).
 */

#include "server/server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/logging.hh"

namespace hicamp::server {

/**
 * Per-connection state. Owned by the network thread except `out`,
 * which workers append to under `outMu` (rank `server`, terminal).
 * The shared_ptr travels inside ring slots, so a connection that
 * closes mid-flight stays alive (as a buffer sink) until its last
 * batch completes — churn can never dangle, and since Conn holds no
 * heap references at all, churn can never leak PLIDs either.
 */
struct McServer::Conn {
    int fd = -1;
    std::uint32_t epollMask = 0;

    /// Receive side: bytes land in `in`, the parser consumes from
    /// `inOff`, and the prefix is compacted off lazily.
    std::string in;
    std::size_t inOff = 0;
    ProtoParser parser;

    /// Parsed commands not yet handed to a worker; `staged` is a
    /// batch that lost a full-ring race and waits in `deferred_`.
    std::deque<McCommand> pending;
    std::vector<McCommand> cmdStage;
    bool inFlight = false;
    bool deferred = false;

    bool quitAfter = false; ///< quit parsed: close once drained
    bool sawEof = false;
    bool broken = false; ///< socket error / fatal parse: drop now

    /// Transmit side (net thread only): flushOut() moves `out` here,
    /// then writes; a short write parks the rest for EPOLLOUT.
    std::string wbuf;
    std::size_t wOff = 0;

    CapMutex outMu;
    std::string out HICAMP_GUARDED_BY(outMu);
};

namespace {

using Clock = std::chrono::steady_clock;

/// A parked net thread's epoll timeout: a safety net only, since
/// every completion it must see wakes it through the eventfd.
constexpr int kParkTimeoutMs = 100;

/// How long stop() waits for in-flight batches before closing.
constexpr auto kDrainBound = std::chrono::seconds(2);

} // namespace

McServer::Stats::Stats(obs::MetricsRegistry &m)
    : accepted(m.counter("server.conns.accepted")),
      closed(m.counter("server.conns.closed")),
      rejected(m.counter("server.conns.rejected")),
      cmdGet(m.counter("server.cmds.get")),
      cmdSet(m.counter("server.cmds.set")),
      cmdDelete(m.counter("server.cmds.delete")),
      cmdArith(m.counter("server.cmds.arith")),
      cmdBad(m.counter("server.cmds.bad")),
      hits(m.counter("server.get.hits")),
      misses(m.counter("server.get.misses")),
      oom(m.counter("server.oom_errors")),
      bytesIn(m.counter("server.bytes.in")),
      bytesOut(m.counter("server.bytes.out")),
      stalls(m.counter("server.backpressure.stalls")),
      workerParks(m.counter("server.worker.parks")),
      workerWakes(m.counter("server.worker.wakes")),
      netParks(m.counter("server.net.parks")),
      eventfdWrites(m.counter("server.net.eventfd_writes")),
      batchCmds(m.histogram("server.batch.cmds"))
{
}

McServer::McServer(McStore &store, ServerConfig cfg)
    : store_(store), cfg_(std::move(cfg)), metrics_("server"),
      st_(metrics_)
{
    if (cfg_.workers == 0)
        cfg_.workers = 1;
    if (cfg_.maxBatch == 0)
        cfg_.maxBatch = 1;
    requests_ = std::make_unique<MpmcRing<Batch>>(cfg_.ringSlots);
    // Sized so it can never fill: at most one in-flight batch per
    // connection, and closed conns free their slot at completion.
    completions_ =
        std::make_unique<MpmcRing<Completion>>(cfg_.maxConns + 1);
    metrics_.addGauge("server.conns.open", [this] {
        return connsOpen_.load(std::memory_order_relaxed);
    });
    metrics_.addGauge("server.reqring.occupancy",
                      [this] { return requests_->sizeApprox(); });
}

McServer::~McServer() { stop(); }

void
McServer::start()
{
    HICAMP_ASSERT(!netThread_.joinable(), "server already started");

    listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK |
                                      SOCK_CLOEXEC,
                         0);
    if (listenFd_ < 0)
        HICAMP_FATAL(std::string("socket: ") + std::strerror(errno));
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(cfg_.port);
    if (::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) != 1)
        HICAMP_FATAL("bad listen host: " + cfg_.host);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0)
        HICAMP_FATAL(std::string("bind: ") + std::strerror(errno));
    if (::listen(listenFd_, 128) != 0)
        HICAMP_FATAL(std::string("listen: ") + std::strerror(errno));

    sockaddr_in got{};
    socklen_t gotLen = sizeof got;
    ::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&got),
                  &gotLen);
    port_ = ntohs(got.sin_port);

    epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
    eventFd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (epollFd_ < 0 || eventFd_ < 0)
        HICAMP_FATAL("epoll/eventfd setup failed");

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listenFd_;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFd_, &ev);
    ev.data.fd = eventFd_;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, eventFd_, &ev);

    running_.store(true, std::memory_order_relaxed);
    workersRun_.store(true, std::memory_order_relaxed);
    workers_.reserve(cfg_.workers);
    for (unsigned w = 0; w < cfg_.workers; ++w)
        workers_.emplace_back(&McServer::workerLoop, this, w);
    netThread_ = std::thread(&McServer::netLoop, this);
}

void
McServer::stop()
{
    if (!netThread_.joinable() && workers_.empty())
        return;
    running_.store(false, std::memory_order_relaxed);
    wakeNet();
    if (netThread_.joinable())
        netThread_.join();
    // The net thread drained every in-flight batch before exiting, so
    // the request ring is empty: workers wait on the stop flag only.
    // The wake's futex-word bump carries the clear to parked
    // re-checks.
    workersRun_.store(false, std::memory_order_relaxed);
    workerPark_.wakeAll();
    for (auto &w : workers_)
        if (w.joinable())
            w.join();
    workers_.clear();
    for (int *fd : {&listenFd_, &epollFd_, &eventFd_}) {
        if (*fd >= 0)
            ::close(*fd);
        *fd = -1;
    }
}

void
McServer::wakeNet()
{
    if (eventFd_ < 0)
        return;
    // Counted before the write, so a reply the write releases never
    // reaches a client ahead of its count.
    st_.eventfdWrites++;
    const std::uint64_t one = 1;
    // A full eventfd counter (impossible here) or EINTR would only
    // mean the net thread is already awake.
    [[maybe_unused]] ssize_t n = ::write(eventFd_, &one, sizeof one);
}

void
McServer::clearWakeups()
{
    std::uint64_t tick;
    while (::read(eventFd_, &tick, sizeof tick) > 0) {
    }
}

// ---------------------------------------------------------------------
// Network thread
// ---------------------------------------------------------------------

void
McServer::netLoop()
{
    constexpr int kMaxEvents = 64;
    epoll_event evs[kMaxEvents];
    auto idleFrom = Clock::now();
    while (running_.load(std::memory_order_relaxed)) {
        // Completions and deferred batches are handled on every turn;
        // the eventfd only wakes a parked loop.
        bool worked = drainCompletions();
        retryDeferred();
        // Poll without blocking through the idle window, then park:
        // announce, re-check the completion ring, and block only if
        // it is still empty. A worker that pushes after the re-check
        // sees the announcement and writes the eventfd.
        int timeoutMs = 0;
        if (!worked && Clock::now() - idleFrom >= kIdleWindow) {
            netPark_.announce();
            if (drainCompletions()) {
                netPark_.retract();
                worked = true;
            } else {
                timeoutMs = kParkTimeoutMs;
                st_.netParks++;
            }
        }
        const int n = ::epoll_wait(epollFd_, evs, kMaxEvents, timeoutMs);
        if (timeoutMs != 0)
            netPark_.retract();
        if (n < 0 && errno != EINTR)
            break;
        if (n > 0 || worked)
            idleFrom = Clock::now();
        else if (timeoutMs == 0)
            std::this_thread::yield(); // a worker may share this CPU
        for (int i = 0; i < n; ++i) {
            const int fd = evs[i].data.fd;
            if (fd == listenFd_) {
                acceptReady();
                continue;
            }
            if (fd == eventFd_) {
                clearWakeups(); // the next turn drains completions
                continue;
            }
            auto itc = conns_.find(fd);
            if (itc == conns_.end())
                continue; // closed earlier in this wait batch
            ConnPtr c = itc->second;
            if (evs[i].events & EPOLLERR)
                c->broken = true;
            if (evs[i].events & EPOLLOUT)
                connWritable(c);
            if (c->fd >= 0 && (evs[i].events & (EPOLLIN | EPOLLHUP)))
                connReadable(c);
            if (c->fd >= 0)
                maybeFinish(c);
        }
    }
    drainOnStop();
}

void
McServer::acceptReady()
{
    for (;;) {
        const int fd = ::accept4(listenFd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break; // EAGAIN or transient accept error
        }
        if (conns_.size() >= cfg_.maxConns) {
            ::close(fd);
            st_.rejected++;
            continue;
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        auto c = std::make_shared<Conn>();
        c->fd = fd;
        c->epollMask = EPOLLIN;
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev);
        conns_.emplace(fd, std::move(c));
        connsOpen_.fetch_add(1, std::memory_order_relaxed);
        st_.accepted++;
    }
}

void
McServer::connReadable(const ConnPtr &c)
{
    char buf[16384];
    for (;;) {
        const ssize_t n = ::read(c->fd, buf, sizeof buf);
        if (n > 0) {
            c->in.append(buf, static_cast<std::size_t>(n));
            st_.bytesIn += static_cast<std::uint64_t>(n);
            if (c->in.size() - c->inOff > kMaxLineBytes + kMaxValueBytes)
                break; // let the parser catch up before reading more
            continue;
        }
        if (n == 0) {
            c->sawEof = true;
            break;
        }
        if (errno == EINTR)
            continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK)
            c->broken = true;
        break;
    }
    parseAndStage(c);
    dispatch(c);
}

void
McServer::parseAndStage(const ConnPtr &c)
{
    while (!c->quitAfter && !c->broken &&
           c->pending.size() < cfg_.maxPending) {
        const std::string_view view(c->in.data() + c->inOff,
                                    c->in.size() - c->inOff);
        if (view.empty())
            break;
        std::size_t consumed = 0;
        McCommand cmd;
        const ParseResult r = c->parser.step(view, consumed, cmd);
        c->inOff += consumed;
        if (r == ParseResult::NeedMore)
            break;
        if (r == ParseResult::Fatal) {
            // Unterminated garbage beyond any resync point.
            st_.cmdBad++;
            c->broken = true;
            break;
        }
        if (cmd.op == McCommand::Op::Quit) {
            // Stop parsing: commands already pending still run and
            // their responses flush, later pipelined input is dead.
            c->quitAfter = true;
            break;
        }
        cmd.own(); // the views die with the next buffer compaction
        c->pending.push_back(std::move(cmd));
    }
    // Compact the consumed prefix once it dominates the buffer.
    if (c->inOff > 4096 && c->inOff * 2 >= c->in.size()) {
        c->in.erase(0, c->inOff);
        c->inOff = 0;
    }
}

bool
McServer::tryDispatch(const ConnPtr &c)
{
    if (c->inFlight)
        return true;
    if (c->cmdStage.empty()) {
        const std::size_t n =
            std::min(cfg_.maxBatch, c->pending.size());
        c->cmdStage.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            c->cmdStage.push_back(std::move(c->pending.front()));
            c->pending.pop_front();
        }
    }
    if (c->cmdStage.empty())
        return true;
    Batch b;
    b.conn = c;
    b.cmds = std::move(c->cmdStage);
    const auto sz = static_cast<std::uint64_t>(b.cmds.size());
    if (requests_->tryPush(std::move(b))) {
        c->inFlight = true;
        st_.batchCmds.record(sz);
        if (workerPark_.wakeOne())
            st_.workerWakes++;
        return true;
    }
    // Ring full: tryPush left the batch intact — keep it staged and
    // let the caller park the connection (backpressure, not loss).
    c->cmdStage = std::move(b.cmds);
    return false;
}

void
McServer::dispatch(const ConnPtr &c)
{
    if (c->fd >= 0 && !tryDispatch(c) && !c->deferred) {
        c->deferred = true;
        deferred_.push_back(c);
        st_.stalls++;
    }
    updateMask(c);
}

void
McServer::retryDeferred()
{
    for (auto it = deferred_.begin(); it != deferred_.end();) {
        const ConnPtr c = *it;
        if (c->fd < 0) {
            c->deferred = false;
            it = deferred_.erase(it);
            continue;
        }
        if (!tryDispatch(c))
            break; // ring still full: keep FIFO order, stop here
        c->deferred = false;
        it = deferred_.erase(it);
        updateMask(c);
    }
}

bool
McServer::drainCompletions()
{
    bool any = false;
    Completion comp;
    while (completions_->tryPop(comp)) {
        any = true;
        const ConnPtr c = std::move(comp.conn);
        c->inFlight = false;
        if (c->fd < 0)
            continue; // closed while the batch was in flight
        flushOut(c);
        // Input parsing stops at maxPending; commands still buffered
        // then arrive with no further socket read to wake the parser,
        // so resume it here, where the finished batch freed room.
        parseAndStage(c);
        dispatch(c);
        maybeFinish(c);
    }
    return any;
}

void
McServer::flushOut(const ConnPtr &c)
{
    {
        CapLockGuard g(c->outMu, lockrank::server);
        if (!c->out.empty()) {
            c->wbuf.append(c->out);
            c->out.clear();
        }
    }
    while (c->wOff < c->wbuf.size()) {
        const ssize_t n = ::write(c->fd, c->wbuf.data() + c->wOff,
                                  c->wbuf.size() - c->wOff);
        if (n > 0) {
            c->wOff += static_cast<std::size_t>(n);
            st_.bytesOut += static_cast<std::uint64_t>(n);
            continue;
        }
        if (errno == EINTR)
            continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK)
            c->broken = true;
        break;
    }
    if (c->wOff == c->wbuf.size()) {
        c->wbuf.clear();
        c->wOff = 0;
    }
    updateMask(c);
}

void
McServer::connWritable(const ConnPtr &c) { flushOut(c); }

void
McServer::updateMask(const ConnPtr &c)
{
    if (c->fd < 0)
        return;
    std::uint32_t mask = 0;
    // Reads pause under backpressure (a staged batch the ring refused
    // or a full pending queue) and once the connection is ending —
    // TCP's receive window then pushes back on the client.
    const bool paused = !c->cmdStage.empty() ||
                        c->pending.size() >= cfg_.maxPending ||
                        c->quitAfter || c->sawEof || c->broken;
    if (!paused)
        mask |= EPOLLIN;
    if (c->wOff < c->wbuf.size())
        mask |= EPOLLOUT;
    if (mask == c->epollMask)
        return;
    epoll_event ev{};
    ev.events = mask;
    ev.data.fd = c->fd;
    ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, c->fd, &ev);
    c->epollMask = mask;
}

void
McServer::maybeFinish(const ConnPtr &c)
{
    if (c->fd < 0)
        return;
    if (c->broken) {
        closeConn(c);
        return;
    }
    if (!c->quitAfter && !c->sawEof)
        return;
    if (c->inFlight || !c->cmdStage.empty() || !c->pending.empty())
        return;
    if (c->wOff < c->wbuf.size())
        return; // responses still draining to the socket
    {
        CapLockGuard g(c->outMu, lockrank::server);
        if (!c->out.empty())
            return; // a completion beat us; its drain will finish
    }
    closeConn(c);
}

void
McServer::closeConn(const ConnPtr &c)
{
    if (c->fd < 0)
        return;
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, c->fd, nullptr);
    ::close(c->fd);
    conns_.erase(c->fd);
    c->fd = -1;
    connsOpen_.fetch_sub(1, std::memory_order_relaxed);
    st_.closed++;
    // A deferred_ entry for this conn is dropped lazily by
    // retryDeferred(); the shared_ptr keeps the carcass valid.
}

void
McServer::drainOnStop()
{
    // Answer work already accepted: wait (bounded) for in-flight
    // batches, flushing as completions land. Waiting uses the main
    // loop's announce-and-re-check, so the last completion's eventfd
    // write ends the wait at once.
    const auto deadline = Clock::now() + kDrainBound;
    for (;;) {
        drainCompletions();
        bool busy = false;
        for (const auto &[fd, c] : conns_)
            if (c->inFlight) {
                busy = true;
                break;
            }
        if (!busy || Clock::now() >= deadline)
            break;
        netPark_.announce();
        if (!drainCompletions()) {
            pollfd p{eventFd_, POLLIN, 0};
            ::poll(&p, 1, kParkTimeoutMs);
        }
        netPark_.retract();
        clearWakeups();
    }
    std::vector<ConnPtr> open;
    open.reserve(conns_.size());
    for (const auto &[fd, c] : conns_)
        open.push_back(c);
    for (const ConnPtr &c : open) {
        flushOut(c);
        closeConn(c);
    }
    conns_.clear();
    deferred_.clear();
}

// ---------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------

void
McServer::workerLoop(unsigned)
{
    // Paper §4.4: one iterator register per serving thread; every GET
    // reloads it, taking a fresh snapshot that concurrent SET commits
    // cannot tear. The register's references die with this scope, so
    // worker exit leaves the heap audit-clean.
    IteratorRegister it(store_.heap().mem, store_.heap().vsm);
    for (;;) {
        Batch b;
        if (!nextBatch(b))
            break;
        std::string resp;
        for (const McCommand &cmd : b.cmds)
            execute(cmd, it, resp);
        {
            // Terminal-rank lock: held for the append only. The
            // responses above were fully materialized first — a heap
            // call here would invert the §7 order and fail the
            // thread-safety build.
            CapLockGuard g(b.conn->outMu, lockrank::server);
            b.conn->out.append(resp);
        }
        const bool pushed =
            completions_->tryPush(Completion{std::move(b.conn)});
        HICAMP_ASSERT(pushed,
                      "completion ring overflow: sized >= maxConns, "
                      "one in-flight batch per connection");
        if (netPark_.claim())
            wakeNet();
    }
}

bool
McServer::nextBatch(Batch &b)
{
    // stop() only clears the flag after the net thread has drained
    // every in-flight batch, so flag-clear implies an empty ring.
    const auto stopping = [this] {
        return !workersRun_.load(std::memory_order_relaxed);
    };
    const auto idleFrom = Clock::now();
    for (;;) {
        if (requests_->tryPop(b))
            return true;
        if (stopping())
            return false;
        if (Clock::now() - idleFrom < kIdleWindow) {
            std::this_thread::yield();
            continue;
        }
        // Park: the re-check runs after the announcement, so a push
        // it misses sees the announcement and wakes a sleeper.
        workerPark_.park([&] {
            if (requests_->tryPop(b) || stopping())
                return true;
            st_.workerParks++;
            return false;
        });
        if (b.conn)
            return true;
    }
}

void
McServer::execute(const McCommand &cmd, IteratorRegister &it,
                  std::string &resp)
{
    using Op = McCommand::Op;
    switch (cmd.op) {
      case Op::Get: {
        st_.cmdGet++;
        for (const std::string &key : cmd.ownedKeys) {
            auto v = store_.get(it, key);
            if (!v) {
                st_.misses++;
                continue;
            }
            st_.hits++;
            resp += "VALUE ";
            resp += key;
            resp += ' ';
            resp += std::to_string(v->flags);
            resp += ' ';
            resp += std::to_string(v->data.size());
            resp += "\r\n";
            resp += v->data;
            resp += "\r\n";
        }
        resp += resp::kEnd;
        break;
      }
      case Op::Set:
      case Op::Add:
      case Op::Replace: {
        st_.cmdSet++;
        std::string_view verdict;
        try {
            const std::string &key = cmd.ownedKeys.front();
            if (cmd.op == Op::Set) {
                store_.set(key, cmd.flags, cmd.ownedData);
                verdict = resp::kStored;
            } else if (cmd.op == Op::Add) {
                verdict = store_.add(key, cmd.flags, cmd.ownedData)
                              ? resp::kStored
                              : resp::kNotStored;
            } else {
                verdict =
                    store_.replace(key, cmd.flags, cmd.ownedData)
                        ? resp::kStored
                        : resp::kNotStored;
            }
        } catch (const MemPressureError &) {
            // Graceful degradation: this request failed, the
            // connection and the server carry on.
            st_.oom++;
            verdict = resp::kOom;
        }
        if (!cmd.noreply)
            resp += verdict;
        break;
      }
      case Op::Delete: {
        st_.cmdDelete++;
        std::string_view verdict;
        try {
            verdict = store_.erase(cmd.ownedKeys.front())
                          ? resp::kDeleted
                          : resp::kNotFound;
        } catch (const MemPressureError &) {
            st_.oom++;
            verdict = resp::kOom;
        }
        if (!cmd.noreply)
            resp += verdict;
        break;
      }
      case Op::Incr:
      case Op::Decr: {
        st_.cmdArith++;
        std::string line;
        try {
            std::uint64_t value = 0;
            switch (store_.arith(cmd.ownedKeys.front(), cmd.delta,
                                 cmd.op == Op::Incr, value)) {
              case McStore::ArithStatus::Ok:
                line = std::to_string(value) + "\r\n";
                break;
              case McStore::ArithStatus::NotFound:
                line = std::string(resp::kNotFound);
                break;
              case McStore::ArithStatus::NotNumber:
                line = "CLIENT_ERROR cannot increment or decrement "
                       "non-numeric value\r\n";
                break;
            }
        } catch (const MemPressureError &) {
            st_.oom++;
            line = std::string(resp::kOom);
        }
        if (!cmd.noreply)
            resp += line;
        break;
      }
      case Op::Stats:
        appendStats(resp);
        break;
      case Op::Version:
        resp += "VERSION hicamp-mc 1.0\r\n";
        break;
      case Op::Quit:
        break; // consumed at parse time; never reaches a worker
      case Op::BadLine:
        st_.cmdBad++;
        resp += cmd.error;
        break;
    }
}

void
McServer::appendStats(std::string &resp)
{
    const auto stat = [&resp](std::string_view k, std::uint64_t v) {
        resp += "STAT ";
        resp += k;
        resp += ' ';
        resp += std::to_string(v);
        resp += "\r\n";
    };
    // The memcached names come first, so existing clients still find
    // them; then every counter and gauge of the server's registry and
    // of the heap's. Values are monotone, exact only when idle.
    stat("cmd_get", st_.cmdGet.value());
    stat("cmd_set", st_.cmdSet.value());
    stat("get_hits", st_.hits.value());
    stat("get_misses", st_.misses.value());
    stat("oom_errors", st_.oom.value());
    stat("bytes_read", st_.bytesIn.value());
    stat("bytes_written", st_.bytesOut.value());
    stat("curr_connections", connsOpen_.load(std::memory_order_relaxed));
    const auto registry = [&stat](const std::string &prefix,
                                  const obs::MetricsSnapshot &snap) {
        for (const auto *values : {&snap.counters, &snap.gauges})
            for (const auto &[name, v] : *values)
                stat(prefix + name, v);
    };
    registry("", metrics_.snapshot());
    registry("mem.", store_.heap().mem.metrics().snapshot());
    resp += resp::kEnd;
}

} // namespace hicamp::server
