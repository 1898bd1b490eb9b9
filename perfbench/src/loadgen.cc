#include "loadgen.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>

#include "report.hh"
#include "stats.hh"

namespace perfbench {

namespace {

constexpr std::int64_t kTickNs = 100'000'000;
/// How long a phase waits for replies once it stops issuing; anything
/// still unanswered then has failed.
constexpr std::int64_t kDrainNs = 5'000'000'000;

bool
parseU64(std::string_view s, std::uint64_t &v)
{
    const auto r = std::from_chars(s.data(), s.data() + s.size(), v);
    return r.ec == std::errc() && r.ptr == s.data() + s.size();
}

} // namespace

std::size_t
frameReply(std::string_view buf, Shape shape, Reply &out)
{
    const std::size_t eol = buf.find("\r\n");
    if (eol == std::string_view::npos)
        return 0;
    out = Reply{};
    out.line = buf.substr(0, eol);
    if (shape == Shape::Line || out.line.rfind("VALUE ", 0) != 0)
        return eol + 2; // one line: a verdict, END, or an error
    // "VALUE <key> <flags> <bytes>": parse the last two fields.
    const std::size_t sp2 = out.line.rfind(' ');
    const std::size_t sp1 = out.line.rfind(' ', sp2 - 1);
    std::uint64_t flags = 0, len = 0;
    if (sp1 <= 5 || !parseU64(out.line.substr(sp1 + 1, sp2 - sp1 - 1),
                              flags) ||
        !parseU64(out.line.substr(sp2 + 1), len) || flags > UINT32_MAX) {
        out.line = "BAD_VALUE_HEADER";
        return eol + 2;
    }
    const std::size_t need = eol + 2 + len + 2 + 5;
    if (buf.size() < need)
        return 0;
    if (buf.substr(eol + 2 + len, 7) != "\r\nEND\r\n") {
        out.line = "BAD_VALUE_FRAMING";
        return need;
    }
    out.hit = true;
    out.flags = static_cast<std::uint32_t>(flags);
    out.data = buf.substr(eol + 2, len);
    return need;
}

LoadGen::LoadGen(std::uint16_t port, unsigned conns) : conns_(conns)
{
    for (Conn &c : conns_) {
        c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        if (c.fd < 0 ||
            ::connect(c.fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) != 0) {
            broke(std::string("connect: ") + std::strerror(errno));
            continue;
        }
        int one = 1;
        ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
    }
}

void
LoadGen::broke(const std::string &why)
{
    if (ok_)
        error_ = why;
    ok_ = false;
}

LoadGen::~LoadGen()
{
    for (Conn &c : conns_)
        if (c.fd >= 0)
            ::close(c.fd);
}

void
LoadGen::flush(Conn &c, std::int64_t now, PhaseLog &log)
{
    while (c.outOff < c.out.size()) {
        const ssize_t n = ::write(c.fd, c.out.data() + c.outOff,
                                  c.out.size() - c.outOff);
        if (n > 0) {
            c.outOff += static_cast<std::size_t>(n);
            now = nowNs();
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        // Peer gone: the unanswered requests fail in run().
        broke(std::string("write: ") + std::strerror(errno));
        break;
    }
    const std::uint64_t written = c.outBase + c.outOff;
    while (!c.unsent.empty() && c.unsent.front().second <= written) {
        log.slots[c.unsent.front().first].sent = now;
        c.unsent.pop_front();
    }
    if (c.outOff == c.out.size()) {
        c.outBase += c.out.size();
        c.out.clear();
        c.outOff = 0;
    }
}

void
LoadGen::readReplies(Conn &c, PhaseLog &log, Traffic &traffic)
{
    char buf[65536];
    bool got = false;
    for (;;) {
        const ssize_t n = ::read(c.fd, buf, sizeof buf);
        if (n > 0) {
            c.in.append(buf, static_cast<std::size_t>(n));
            got = true;
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n == 0)
            broke("server closed a connection");
        else if (errno != EAGAIN && errno != EWOULDBLOCK)
            broke(std::string("read: ") + std::strerror(errno));
        break;
    }
    if (!got)
        return;
    const std::int64_t now = nowNs();
    Reply r;
    while (!c.inflight.empty()) {
        Slot &s = log.slots[c.inflight.front()];
        const std::string_view view(c.in.data() + c.inOff,
                                    c.in.size() - c.inOff);
        const std::size_t used = frameReply(view, s.shape, r);
        if (used == 0)
            break;
        s.done = now;
        if (!traffic.check(s, r))
            ++log.failed;
        c.inOff += used;
        c.inflight.pop_front();
    }
    if (c.inflight.empty() && c.inOff < c.in.size()) {
        // Bytes nobody asked for: the stream is out of sync.
        broke("unexpected reply bytes: " +
              c.in.substr(c.inOff, std::min<std::size_t>(
                                       40, c.in.size() - c.inOff)));
        ++log.failed;
        c.inOff = c.in.size();
    }
    if (c.inOff == c.in.size()) {
        c.in.clear();
        c.inOff = 0;
    } else if (c.inOff > (1u << 16)) {
        c.in.erase(0, c.inOff);
        c.inOff = 0;
    }
}

PhaseLog
LoadGen::run(const PhaseSpec &spec, const std::vector<double> &gaps,
             Traffic &traffic)
{
    PhaseLog log;
    std::uint64_t expected = std::min<std::uint64_t>(spec.maxCount, 1 << 16);
    if (spec.rate > 0.0 && spec.sendNs > 0)
        expected = std::min<std::uint64_t>(
            spec.maxCount, static_cast<std::uint64_t>(
                               spec.rate * static_cast<double>(spec.sendNs) /
                               1e9 * 1.2) + 1024);
    log.slots.reserve(expected);

    Schedule sched(gaps, spec.first, spec.rate);
    const std::uint64_t cap = spec.inflight;
    const std::int64_t cpu0 = threadCpuNs();
    std::int64_t idleNs = 0;
    const std::int64_t t0 = nowNs() + 100'000;
    log.start = t0;
    std::int64_t nextDue = t0 + sched.next();
    std::int64_t nextTick = t0 + kTickNs;
    std::int64_t drainDeadline = -1;
    std::uint64_t answered = 0;
    bool issuing = spec.maxCount > 0;
    std::vector<pollfd> pfds(conns_.size());

    for (;;) {
        std::int64_t now = nowNs();
        while (issuing && nextDue <= now) {
            // A scheduled phase ends at its last due time, a burst (rate
            // 0, every request due at once) on the clock.
            const std::int64_t at = spec.rate > 0.0 ? nextDue : now;
            if (log.slots.size() >= spec.maxCount ||
                (spec.sendNs > 0 && at - t0 > spec.sendNs)) {
                issuing = false;
                break;
            }
            if (cap && log.slots.size() - answered >= cap)
                break;
            Slot s;
            s.pos = spec.first + log.slots.size();
            s.due = nextDue;
            const std::string_view wire = traffic.issue(s);
            Conn &c = conns_[s.conn];
            c.out.append(wire);
            const auto idx = static_cast<std::uint32_t>(log.slots.size());
            c.unsent.emplace_back(idx, c.outBase + c.out.size());
            c.inflight.push_back(idx);
            log.slots.push_back(s);
            nextDue = t0 + sched.next();
            if (spec.abortPerConn && c.inflight.size() >= spec.abortPerConn) {
                log.aborted = true;
                issuing = false;
            }
        }
        now = nowNs();
        for (Conn &c : conns_)
            if (!c.unsent.empty())
                flush(c, now, log);
        if (!ok_)
            issuing = false;
        if (!issuing) {
            if (drainDeadline < 0)
                drainDeadline = now + kDrainNs;
            if (answered == log.slots.size() || now > drainDeadline ||
                !ok_)
                break;
        }
        if (spec.tick && now >= nextTick) {
            spec.tick(now);
            nextTick += kTickNs;
        }

        // Busy-poll: on a virtual machine a halted vCPU is woken late,
        // and that delay is not the server's. Polls that find nothing
        // count as idle time.
        const timespec ts{0, 0};
        for (std::size_t i = 0; i < conns_.size(); ++i) {
            pfds[i].fd = conns_[i].fd;
            pfds[i].events = static_cast<short>(
                POLLIN | (conns_[i].unsent.empty() ? 0 : POLLOUT));
            pfds[i].revents = 0;
        }
        const std::int64_t pollAt = nowNs();
        const int n = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
        if (n <= 0) {
            idleNs += nowNs() - pollAt;
            continue;
        }
        for (std::size_t i = 0; i < conns_.size(); ++i) {
            if (!(pfds[i].revents & (POLLIN | POLLERR | POLLHUP)))
                continue;
            Conn &c = conns_[i];
            const std::size_t before = c.inflight.size();
            readReplies(c, log, traffic);
            answered += before - c.inflight.size();
        }
    }
    log.end = nowNs();
    log.genBusyNs = threadCpuNs() - cpu0 - idleNs;
    for (const Slot &s : log.slots)
        if (s.done < 0)
            ++log.failed;
    // Never-answered requests leave the per-conn queues for good: the
    // connection is unusable once a reply went missing.
    for (Conn &c : conns_) {
        if (!c.inflight.empty())
            broke(std::to_string(c.inflight.size()) +
                  " requests never answered");
        c.inflight.clear();
        c.unsent.clear();
    }
    return log;
}

} // namespace perfbench
