/**
 * @file
 * Open-loop memcached load generator: ONE thread drives several
 * pipelined loopback connections from a precomputed Poisson schedule.
 * A request is sent when it is due, whatever is still outstanding, and
 * its latency runs from the time it was due (not the time it left), so
 * a stall is charged to every request it delayed. The generator
 * busy-polls its sockets between due times; its CPU time minus the
 * polls that found nothing is the validity check loadgen.busy_frac.
 *
 * What to send and how to judge each reply is the Traffic's business;
 * the generator only frames replies and keeps time.
 */

#ifndef PERFBENCH_LOADGEN_HH
#define PERFBENCH_LOADGEN_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/** How a reply is framed. */
enum class Shape : std::uint8_t {
    Line, ///< one CRLF line (STORED, DELETED, a number, ...)
    Get,  ///< optional "VALUE key flags len" + block, then END
};

/** One framed reply; the views die with the next read. */
struct Reply {
    std::string_view line; ///< first line, CRLF stripped
    bool hit = false;      ///< a VALUE block was present
    std::uint32_t flags = 0;
    std::string_view data;
};

/** One request's record in a phase. */
struct Slot {
    std::int64_t due = 0;   ///< absolute steady-clock ns
    std::int64_t sent = -1; ///< last byte handed to the socket
    std::int64_t done = -1; ///< reply framed; -1 = never answered
    std::uint64_t pos = 0;  ///< position in the traffic's stream
    std::int32_t expect = 0; ///< traffic-defined expectation
    std::uint8_t conn = 0;
    std::uint8_t op = 0;
    Shape shape = Shape::Line;
};

/** The request stream and its oracle. */
class Traffic
{
  public:
    virtual ~Traffic() = default;
    /** Fill @p s (conn, op, shape, expect) for stream position
     *  s.pos and return its wire bytes. Called at send time, in send
     *  order, so a model updated here matches the server's per-
     *  connection execution order. */
    virtual std::string_view issue(Slot &s) = 0;
    /** Judge the reply to @p s; false counts as a failed op. */
    virtual bool check(const Slot &s, const Reply &r) = 0;
};

struct PhaseSpec {
    double rate = 0.0;         ///< req/s; 0 = all due at once
    std::uint64_t first = 0;   ///< stream position of the first request
    std::uint64_t maxCount = 0; ///< request cap
    std::int64_t sendNs = 0;   ///< issue for this long (0 = no limit)
    /// Requests in flight over all connections together (0 = no cap):
    /// with a cap the phase is a closed loop.
    unsigned inflight = 0;
    /// Stop issuing once one connection has this many requests
    /// outstanding (0 = never): the phase is overloaded by then.
    std::uint64_t abortPerConn = 0;
    std::function<void(std::int64_t)> tick; ///< called ~every 100 ms
};

struct PhaseLog {
    std::vector<Slot> slots;
    std::int64_t start = 0;   ///< t0: first due time
    std::int64_t end = 0;
    /// generator thread CPU over the phase, less empty polls
    std::int64_t genBusyNs = 0;
    std::uint64_t failed = 0;  ///< bad replies + never answered
    bool aborted = false;      ///< a connection passed abortPerConn

    std::uint64_t sentCount() const { return slots.size(); }
};

class LoadGen
{
  public:
    /** Connect @p conns sockets to 127.0.0.1:@p port. */
    LoadGen(std::uint16_t port, unsigned conns);
    ~LoadGen();

    LoadGen(const LoadGen &) = delete;
    LoadGen &operator=(const LoadGen &) = delete;

    bool ok() const { return ok_; }
    /** Why ok() turned false (first failure only). */
    const std::string &error() const { return error_; }

    /** Run one phase over the precomputed unit-rate gaps. */
    PhaseLog run(const PhaseSpec &spec, const std::vector<double> &gaps,
                 Traffic &traffic);

  private:
    struct Conn {
        int fd = -1;
        std::string out;
        std::size_t outOff = 0;
        std::uint64_t outBase = 0; ///< stream bytes erased from `out`
        std::string in;
        std::size_t inOff = 0;
        /// (slot, stream offset of its last byte) not yet written
        std::deque<std::pair<std::uint32_t, std::uint64_t>> unsent;
        std::deque<std::uint32_t> inflight; ///< awaiting a reply
    };

    void flush(Conn &c, std::int64_t now, PhaseLog &log);
    void broke(const std::string &why);
    void readReplies(Conn &c, PhaseLog &log, Traffic &traffic);

    std::vector<Conn> conns_;
    bool ok_ = true;
    std::string error_;
};

/** Frame one reply of @p shape at the start of @p buf. Returns bytes
 *  consumed, 0 when the reply is still incomplete. */
std::size_t frameReply(std::string_view buf, Shape shape, Reply &out);

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_HH
