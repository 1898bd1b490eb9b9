/**
 * @file
 * kv_read / kv_write: an in-process McServer (1 net thread, 2 workers)
 * on 127.0.0.1, driven open-loop by one generator thread over 4
 * pipelined connections (4 busy threads in all).
 *
 * Every input is generated before timing: the WebCorpus items, a pool
 * of kVariants self-verifying values per key, the wire bytes of every
 * request, the op/key stream and the unit-rate Poisson gaps. Keys are
 * pinned to a connection, and the server runs one connection's
 * commands in order, so a model updated at send time predicts every
 * GET exactly. Hot counters are incremented from every connection;
 * their replies must chain from the preload value without a gap (no
 * lost update), and the final value must equal preload plus the sum of
 * acknowledged deltas.
 */

#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdio>
#include <memory>
#include <numeric>

#include "loadgen.hh"
#include "obs/export.hh"
#include "server/server.hh"
#include "server/store.hh"
#include "stats.hh"
#include "workloads.hh"
#include "workloads/webcorpus.hh"

namespace perfbench {

namespace {

using namespace hicamp;

enum Op : std::uint8_t { kGet, kSet, kDelete, kIncr, kCtrSet, kCtrGet };

struct KvMix {
    const char *name;
    double get, set, del, incr; ///< op fractions, summing to 1
    std::uint32_t hotKeys;      ///< keys drawn from the first N of the
                                ///< popularity order (0 = all)
    unsigned counters;          ///< hot incr counters
    double fixedRate;           ///< offered req/s for the latency metrics
};

// The fixed rates are frozen so later changes are compared at the same
// offered load: about a quarter (kv_read) and 30% (kv_write) of each
// workload's peak_ops_s on the code this benchmark was defined on, low
// enough that the generator does not run late behind TCP pushback.
constexpr KvMix kMixes[] = {
    {"kv_read", 0.95, 0.05, 0.00, 0.00, 0, 0, 8000.0},
    {"kv_write", 0.10, 0.55, 0.05, 0.30, 128, 64, 3600.0},
};

constexpr unsigned kItems = 4000;
constexpr unsigned kVariants = 4;
constexpr unsigned kConns = 4;
constexpr unsigned kWorkers = 2;
constexpr unsigned kMaxDelta = 9;
constexpr double kZipfS = 0.95;
constexpr std::uint64_t kStreamLen = 1 << 20;
/// p50 and p90 are taken per window of this many requests and reported
/// as the lower quartile over the windows; so is the traced run's
/// loadgen.p99_us (ten samples beyond p99).
constexpr std::size_t kLatWindow = 1000;
/// peak_ops_s: requests kept outstanding over the 4 connections, and the
/// window whose completion counts give the upper-quartile rate.
constexpr unsigned kPeakInflight = 64;
constexpr std::int64_t kRateWindowNs = 250'000'000;
constexpr int kSetupReps = 5;
/// Requests outstanding during the preload and the read-back sweep.
constexpr unsigned kBurstInflight = 128;
constexpr std::uint64_t kCtrBase = 1'000'000;
constexpr std::uint64_t kCorpusSeed = 1;
/// Outstanding requests on one connection that end an overloaded
/// fixed-rate phase. The server parses at most ServerConfig::maxPending
/// (1024) commands per connection and resumes only on a new socket
/// read, so a client that queues more and then goes quiet strands the
/// rest; staying far below that cap keeps every request answered.
constexpr std::uint64_t kAbortPerConn = 256;

std::uint64_t
fnv1a(std::string_view s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::uint32_t
valueFlags(std::uint32_t key, unsigned variant)
{
    return static_cast<std::uint32_t>(
        mix64((std::uint64_t{key} << 8) | variant));
}

/**
 * A self-verifying value: "@<key>.<variant>@" overwrites the start of
 * the corpus payload and the FNV-1a hash of everything before them
 * fills the last 16 bytes as hex. Length-preserving, so the corpus's
 * line-aligned redundancy survives.
 */
std::string
stampValue(std::string body, std::uint32_t key, unsigned variant)
{
    const std::string head =
        "@" + std::to_string(key) + "." + std::to_string(variant) + "@";
    std::copy(head.begin(), head.end(), body.begin());
    const std::size_t n = body.size() - 16;
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a(std::string_view(body).substr(0, n))));
    std::copy(hex, hex + 16, body.begin() + static_cast<std::ptrdiff_t>(n));
    return body;
}

/** "" when @p data is the self-consistent value of @p key / @p want. */
std::string
verifyValue(std::string_view data, std::uint32_t flags, std::uint32_t key,
            int want)
{
    std::uint64_t tag = 0, ver = 0;
    const char *p = data.data();
    const char *end = data.data() + data.size();
    if (data.size() < 32 || *p != '@')
        return "value without header";
    auto r = std::from_chars(p + 1, end, tag);
    if (r.ec != std::errc() || r.ptr == end || *r.ptr != '.')
        return "bad key tag";
    r = std::from_chars(r.ptr + 1, end, ver);
    if (r.ec != std::errc() || r.ptr == end || *r.ptr != '@')
        return "bad version";
    const std::size_t n = data.size() - 16;
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(fnv1a(data.substr(0, n))));
    if (data.substr(n) != std::string_view(hex, 16))
        return "checksum mismatch";
    if (tag != key)
        return "value of key " + std::to_string(tag);
    if (static_cast<int>(ver) != want)
        return "version " + std::to_string(ver) + " want " +
               std::to_string(want);
    if (flags != valueFlags(key, static_cast<unsigned>(ver)))
        return "flags did not round-trip";
    return "";
}

struct Req {
    std::uint8_t op;
    std::uint8_t arg; ///< variant (set) or delta (incr)
    std::uint32_t key;
};

/** Everything the server will ever receive, built before timing. */
struct KvInputs {
    std::vector<std::string> keys, getWire, delWire;
    std::vector<std::string> setWire; ///< [key * kVariants + variant]
    std::vector<std::uint64_t> valueBytes; ///< same index
    std::vector<std::string> ctrKeys, ctrSetWire, ctrGetWire;
    std::vector<std::string> incrWire; ///< [ctr * kMaxDelta + delta - 1]
    std::vector<Req> stream;
    std::vector<double> gaps;

    /** The value bytes inside a SET's wire form. */
    std::string_view
    value(std::uint32_t key, unsigned variant) const
    {
        const std::size_t idx = key * kVariants + variant;
        const std::string_view w = setWire[idx];
        return w.substr(w.find("\r\n") + 2, valueBytes[idx]);
    }

    std::uint32_t ctrFlags(unsigned j) const { return 0xC0DE0000u | j; }
    std::uint64_t ctrInit(unsigned j) const { return kCtrBase * (j + 1); }
};

KvInputs
makeInputs(const KvMix &mix, std::uint64_t seed)
{
    KvInputs in;
    // The corpus is a fixed dataset (its dedup structure would otherwise
    // move bytes_per_user_byte from seed to seed); the seed draws the
    // value variants, the op stream and the arrivals.
    WebCorpus::Params cp;
    cp.seed = kCorpusSeed;
    cp.numItems = kItems;
    cp.minBytes = 128;
    cp.maxBytes = 2048;
    cp.keyPrefix = "kv:";
    const auto items = WebCorpus::generate(cp);
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
    for (std::uint32_t i = 0; i < kItems; ++i) {
        const std::string &key = items[i].key;
        in.keys.push_back(key);
        in.getWire.push_back("get " + key + "\r\n");
        in.delWire.push_back("delete " + key + "\r\n");
        for (unsigned v = 0; v < kVariants; ++v) {
            std::string body = items[i].payload;
            for (unsigned e = 0; e < v; ++e)
                body = WebCorpus::mutate(body, rng);
            const std::string val = stampValue(std::move(body), i, v);
            in.valueBytes.push_back(val.size());
            in.setWire.push_back("set " + key + " " +
                                 std::to_string(valueFlags(i, v)) + " 0 " +
                                 std::to_string(val.size()) + "\r\n" + val +
                                 "\r\n");
        }
    }
    for (unsigned j = 0; j < mix.counters; ++j) {
        const std::string key = "ctr:" + std::to_string(j);
        const std::string val = std::to_string(in.ctrInit(j));
        in.ctrKeys.push_back(key);
        in.ctrSetWire.push_back("set " + key + " " +
                                std::to_string(in.ctrFlags(j)) + " 0 " +
                                std::to_string(val.size()) + "\r\n" + val +
                                "\r\n");
        in.ctrGetWire.push_back("get " + key + "\r\n");
        for (unsigned d = 1; d <= kMaxDelta; ++d)
            in.incrWire.push_back("incr " + key + " " + std::to_string(d) +
                                  "\r\n");
    }

    // Popularity order: rank r gets the item at size quantile
    // bitreverse(r), so every seed puts the same size mix at the head
    // of the Zipf curve (the top key alone draws ~9% of requests; a
    // seed-drawn size there would move the results more than noise).
    std::vector<std::uint32_t> bySize(kItems);
    std::iota(bySize.begin(), bySize.end(), 0u);
    std::stable_sort(bySize.begin(), bySize.end(),
                     [&](std::uint32_t x, std::uint32_t y) {
                         return items[x].payload.size() <
                                items[y].payload.size();
                     });
    const unsigned bits = std::bit_width(kItems - 1);
    std::vector<std::uint32_t> perm;
    for (std::uint32_t r = 0; r < (1u << bits); ++r) {
        std::uint32_t q = 0;
        for (unsigned b = 0; b < bits; ++b)
            q |= ((r >> b) & 1u) << (bits - 1 - b);
        if (q < kItems)
            perm.push_back(bySize[q]);
    }
    const Zipf zipf(mix.hotKeys ? mix.hotKeys : kItems, kZipfS);
    in.stream.resize(kStreamLen);
    for (Req &r : in.stream) {
        const double u = rng.uniform();
        if (u < mix.incr) {
            r = {kIncr, static_cast<std::uint8_t>(rng.range(1, kMaxDelta)),
                 static_cast<std::uint32_t>(rng.below(mix.counters))};
            continue;
        }
        const std::uint32_t key = perm[zipf.sample(rng)];
        if (u < mix.incr + mix.get)
            r = {kGet, 0, key};
        else if (u < mix.incr + mix.get + mix.set)
            r = {kSet, static_cast<std::uint8_t>(rng.below(kVariants)), key};
        else
            r = {kDelete, 0, key};
    }
    in.gaps = unitPoissonGaps(kStreamLen, rng);
    return in;
}

/** What the server must hold: the send-time model. */
struct KvModel {
    std::vector<int> state; ///< variant per key, -1 = absent
    std::vector<std::uint64_t> ctrAcked; ///< sum of acknowledged deltas
    /// (reply value, delta) per counter, for the no-gap chain check
    std::vector<std::vector<std::pair<std::uint64_t, unsigned>>> ctrReplies;

    KvModel(unsigned counters)
        : state(kItems, -1), ctrAcked(counters, 0), ctrReplies(counters)
    {
    }
};

/**
 * The request stream. Positions below preloadLen() are the preload
 * (variant 0 of every key, then every counter); later positions walk
 * the generated op stream; sweep mode GETs every key and counter.
 */
class KvTraffic : public Traffic
{
  public:
    enum class Mode { Preload, Stream, Sweep };

    KvTraffic(const KvInputs &in, KvModel &m, Outcome &o)
        : in_(in), m_(m), o_(o)
    {
    }

    void setMode(Mode mode) { mode_ = mode; }

    std::string_view
    issue(Slot &s) override
    {
        if (mode_ != Mode::Stream) {
            const bool ctr = s.pos >= kItems;
            const auto k = static_cast<std::uint32_t>(
                ctr ? s.pos - kItems : s.pos);
            s.conn = static_cast<std::uint8_t>(k % kConns);
            s.expect = static_cast<std::int32_t>(k);
            if (mode_ == Mode::Preload) {
                s.op = ctr ? kCtrSet : kSet;
                s.shape = Shape::Line;
                if (ctr)
                    return in_.ctrSetWire[k];
                m_.state[k] = 0;
                return in_.setWire[k * kVariants];
            }
            s.op = ctr ? kCtrGet : kGet;
            s.shape = Shape::Get;
            if (ctr)
                return in_.ctrGetWire[k];
            s.expect = m_.state[k]; // sweeps start at 0: pos is the key
            return in_.getWire[k];
        }
        const Req &r = in_.stream[s.pos % kStreamLen];
        s.op = r.op;
        s.conn = static_cast<std::uint8_t>(r.key % kConns);
        s.shape = Shape::Line;
        switch (r.op) {
          case kGet:
            s.shape = Shape::Get;
            s.expect = m_.state[r.key];
            return in_.getWire[r.key];
          case kSet:
            m_.state[r.key] = r.arg;
            return in_.setWire[r.key * kVariants + r.arg];
          case kDelete:
            s.expect = m_.state[r.key] >= 0 ? 1 : 0;
            m_.state[r.key] = -1;
            return in_.delWire[r.key];
          default: // kIncr: any connection, so counters race for real
            s.conn = static_cast<std::uint8_t>(s.pos % kConns);
            return in_.incrWire[r.key * kMaxDelta + r.arg - 1];
        }
    }

    bool
    check(const Slot &s, const Reply &r) override
    {
        std::string why;
        const Req &q = in_.stream[s.pos % kStreamLen];
        switch (s.op) {
          case kGet: {
            const auto key = static_cast<std::uint32_t>(
                mode_ == Mode::Stream ? q.key : s.pos);
            if (s.expect < 0)
                why = r.hit || r.line != "END" ? "GET of a deleted key hit"
                                               : "";
            else if (!r.hit)
                why = "GET missed: " + std::string(r.line);
            else
                why = verifyValue(r.data, r.flags, key, s.expect);
            if (!why.empty())
                why = "key " + std::to_string(key) + ": " + why;
            break;
          }
          case kSet:
          case kCtrSet:
            if (r.line != "STORED")
                why = "set answered " + std::string(r.line);
            break;
          case kDelete:
            if (r.line != (s.expect ? "DELETED" : "NOT_FOUND"))
                why = "delete answered " + std::string(r.line);
            break;
          case kIncr: {
            std::uint64_t v = 0;
            const auto res = std::from_chars(
                r.line.data(), r.line.data() + r.line.size(), v);
            if (res.ec != std::errc() ||
                res.ptr != r.line.data() + r.line.size()) {
                why = "incr answered " + std::string(r.line);
                break;
            }
            m_.ctrAcked[q.key] += q.arg;
            m_.ctrReplies[q.key].emplace_back(v, q.arg);
            break;
          }
          case kCtrGet: {
            const auto j = static_cast<unsigned>(s.expect);
            const std::string want =
                std::to_string(in_.ctrInit(j) + m_.ctrAcked[j]);
            if (!r.hit || r.data != want || r.flags != in_.ctrFlags(j))
                why = "counter " + std::to_string(j) + " ended at " +
                      std::string(r.data) + ", want " + want;
            break;
          }
        }
        if (why.empty())
            return true;
        o_.fail(why);
        return false;
    }

  private:
    const KvInputs &in_;
    KvModel &m_;
    Outcome &o_;
    Mode mode_ = Mode::Stream;
};

/** No-gap check: each counter's replies, sorted, step by their own
 *  deltas from the preload value. Returns the number of bad links. */
std::uint64_t
checkCounterChains(const KvInputs &in, KvModel &m, Outcome &o)
{
    std::uint64_t bad = 0;
    for (unsigned j = 0; j < m.ctrReplies.size(); ++j) {
        auto &rep = m.ctrReplies[j];
        std::sort(rep.begin(), rep.end());
        std::uint64_t prev = in.ctrInit(j);
        for (const auto &[v, d] : rep) {
            if (v != prev + d) {
                ++bad;
                o.fail("counter " + std::to_string(j) + ": reply " +
                       std::to_string(v) + " does not follow " +
                       std::to_string(prev) + " + " + std::to_string(d));
            }
            prev = v;
        }
    }
    return bad;
}

/** One server instance with its preloaded store and client sockets. */
struct Rig {
    Hicamp hc;
    server::McStore store;
    server::McServer srv;
    std::vector<pid_t> workerTids;
    pid_t netTid = 0;
    bool pinned = false;
    std::unique_ptr<LoadGen> gen;

    Rig() : hc(benchMemConfig()), store(hc), srv(store, serverConfig()) {}

    static server::ServerConfig
    serverConfig()
    {
        server::ServerConfig c;
        c.workers = kWorkers;
        return c;
    }

    /** Start the server; its threads are the tids that appear across
     *  start(): the workers first, then the net thread. Each busy
     *  thread gets a CPU of its own (generator, net, workers), so the
     *  kernel cannot stack two of them on one CPU for a whole run. */
    bool
    start()
    {
        const auto before = threadIds();
        srv.start();
        std::vector<pid_t> fresh;
        for (pid_t t : threadIds())
            if (!std::binary_search(before.begin(), before.end(), t))
                fresh.push_back(t);
        if (fresh.size() == kWorkers + 1) {
            workerTids.assign(fresh.begin(), fresh.end() - 1);
            netTid = fresh.back();
        }
        pinned = pinThread(0) && pinThread(1, netTid);
        for (unsigned i = 0; i < workerTids.size(); ++i)
            pinned = pinThread(2 + i, workerTids[i]) && pinned;
        gen = std::make_unique<LoadGen>(srv.port(), kConns);
        return !workerTids.empty();
    }

    /** Close the client side, then stop the server (joins threads). */
    void
    stop()
    {
        gen.reset();
        srv.stop();
    }
};

/** Latencies (us, from the due time) of answered requests. */
std::vector<double>
latenciesUs(const PhaseLog &log)
{
    std::vector<double> v;
    v.reserve(log.slots.size());
    for (const Slot &s : log.slots)
        if (s.done >= 0)
            v.push_back(static_cast<double>(latencyNs(s.due, s.done)) / 1e3);
    return v;
}

struct Counters {
    std::uint64_t attempted = 0, failed = 0;

    void
    add(const PhaseLog &log)
    {
        attempted += log.sentCount();
        failed += log.failed;
    }
};

/** CPU time (ns) of the server's threads so far. */
struct ServerCpu {
    double workers = 0.0; ///< summed over the workers
    double net = 0.0;

    static ServerCpu
    of(const Rig &rig)
    {
        ServerCpu c;
        for (pid_t t : rig.workerTids)
            c.workers += static_cast<double>(schedRunNs(t));
        c.net = static_cast<double>(schedRunNs(rig.netTid));
        return c;
    }
};

/**
 * Replay of the stream from the preload state straight into a fresh
 * in-process McStore; calls from @p timedFrom on are timed (the traced
 * phase's requests) and become store.* spans.
 */
struct Replay {
    std::vector<double> ns[4]; ///< per op: get, set, delete, incr
    std::vector<double> all;
};

Replay
replayIntoStore(const KvInputs &in, const KvMix &mix, std::uint64_t timedFrom,
                std::uint64_t end, SpanLog &spans, Outcome &o)
{
    Hicamp hc(benchMemConfig());
    server::McStore store(hc);
    Replay rep;
    std::vector<int> state(kItems, 0);
    const auto tid = static_cast<std::uint32_t>(::syscall(SYS_gettid));
    {
        IteratorRegister it(hc.mem, hc.vsm);
        for (std::uint32_t i = 0; i < kItems; ++i)
            store.set(in.keys[i], valueFlags(i, 0), in.value(i, 0));
        for (unsigned j = 0; j < mix.counters; ++j)
            store.set(in.ctrKeys[j], in.ctrFlags(j),
                      std::to_string(in.ctrInit(j)));
        static const char *kNames[] = {"store.get", "store.set",
                                       "store.delete", "store.arith"};
        for (std::uint64_t pos = 0; pos < end; ++pos) {
            const Req &r = in.stream[pos % kStreamLen];
            const std::int64_t t0 = nowNs();
            switch (r.op) {
              case kGet: {
                const auto v = store.get(it, in.keys[r.key]);
                const std::int64_t t1 = nowNs();
                const std::string why =
                    state[r.key] < 0
                        ? (v ? "replayed GET of a deleted key hit" : "")
                    : !v ? "replayed GET missed"
                         : verifyValue(v->data, v->flags, r.key,
                                       state[r.key]);
                if (!why.empty())
                    o.fail(why);
                if (pos >= timedFrom)
                    rep.ns[0].push_back(static_cast<double>(t1 - t0));
                break;
              }
              case kSet:
                store.set(in.keys[r.key], valueFlags(r.key, r.arg),
                          in.value(r.key, r.arg));
                state[r.key] = r.arg;
                if (pos >= timedFrom)
                    rep.ns[1].push_back(static_cast<double>(nowNs() - t0));
                break;
              case kDelete:
                store.erase(in.keys[r.key]);
                state[r.key] = -1;
                if (pos >= timedFrom)
                    rep.ns[2].push_back(static_cast<double>(nowNs() - t0));
                break;
              default: {
                std::uint64_t out = 0;
                store.arith(in.ctrKeys[r.key], r.arg, true, out);
                if (pos >= timedFrom)
                    rep.ns[3].push_back(static_cast<double>(nowNs() - t0));
                break;
              }
            }
            if (pos >= timedFrom)
                spans.span(kNames[std::min<unsigned>(r.op, 3)], tid, t0,
                            nowNs(), pos);
        }
    }
    for (const auto &v : rep.ns)
        rep.all.insert(rep.all.end(), v.begin(), v.end());
    auditInto(hc, o);
    return rep;
}

} // namespace

void
runKv(const RunArgs &a, Outcome &o)
{
    const KvMix &mix =
        a.workload == "kv_read" ? kMixes[0] : kMixes[1];
    o.transport = "tcp loopback 127.0.0.1, 4 pipelined connections";
    o.busyThreads = 1 + 1 + kWorkers; // generator, net, workers

    const KvInputs in = makeInputs(mix, a.seed);
    const std::uint64_t preloadLen = kItems + mix.counters;
    // Keep every CPU out of halt for the whole run (see IdlePollers).
    const IdlePollers pollers(usableCpus());
    o.idlePollers = pollers.size();

    // --- setup: server start + preload, kSetupReps times; keep the last
    std::unique_ptr<Rig> rig;
    std::unique_ptr<KvModel> model;
    std::unique_ptr<KvTraffic> traffic;
    std::vector<double> setupS;
    Counters ops;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        if (rig)
            rig->stop();
        traffic.reset();
        model.reset();
        rig.reset();
        const std::int64_t t0 = nowNs();
        rig = std::make_unique<Rig>();
        const bool started = rig->start();
        o.pinned = rig->pinned;
        model = std::make_unique<KvModel>(mix.counters);
        traffic = std::make_unique<KvTraffic>(in, *model, o);
        traffic->setMode(KvTraffic::Mode::Preload);
        PhaseSpec ps;
        ps.maxCount = preloadLen;
        ps.inflight = kBurstInflight;
        const PhaseLog log = rig->gen->run(ps, in.gaps, *traffic);
        setupS.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        ops.add(log);
        if (!rig->gen->ok() || !started) {
            o.fail("server setup failed");
            o.attempted = ops.attempted;
            o.failed = ops.failed + 1;
            return;
        }
    }
    traffic->setMode(KvTraffic::Mode::Stream);
    std::uint64_t cursor = 0; // stream position
    const auto runAt = [&](double rate, double seconds,
                           std::function<void(std::int64_t)> tick = {}) {
        PhaseSpec ps;
        ps.rate = rate;
        ps.first = cursor;
        ps.maxCount = ~std::uint64_t{0};
        ps.sendNs = static_cast<std::int64_t>(seconds * 1e9);
        ps.abortPerConn = kAbortPerConn;
        ps.tick = std::move(tick);
        PhaseLog log = rig->gen->run(ps, in.gaps, *traffic);
        cursor += log.sentCount();
        ops.add(log);
        return log;
    };

    // Warm caches, the line store and the workers' idle loops.
    runAt(mix.fixedRate, 0.5);

    if (!a.trace) {
        const PhaseLog fixed = runAt(mix.fixedRate, 0.6 * a.seconds);
        const std::vector<double> lat = latenciesUs(fixed);
        if (lat.size() < 10000)
            o.warnings.push_back("fixed-rate phase has only " +
                                 std::to_string(lat.size()) + " samples");
        if (fixed.aborted)
            o.warnings.push_back("the fixed rate overloaded the server");

        // Capacity: a closed loop keeping kPeakInflight requests in
        // flight over the connections.
        PhaseSpec ps;
        ps.first = cursor;
        ps.maxCount = ~std::uint64_t{0};
        ps.sendNs = static_cast<std::int64_t>(0.35 * a.seconds * 1e9);
        ps.inflight = kPeakInflight;
        const PhaseLog peak = rig->gen->run(ps, in.gaps, *traffic);
        cursor += peak.sentCount();
        ops.add(peak);
        std::vector<std::int64_t> done;
        for (const Slot &sl : peak.slots)
            done.push_back(sl.done);
        const double peakRate =
            windowRate(done, peak.start, peak.start + ps.sendNs,
                       kRateWindowNs, kQuietRate);
        o.add("p50_us",
              windowedPercentile(lat, kLatWindow, 0.50, kQuietLatency),
              "us");
        o.add("p90_us",
              windowedPercentile(lat, kLatWindow, 0.90, kQuietLatency),
              "us");
        o.add("peak_ops_s", peakRate, "1/s");
        std::printf("# %s: %zu latency samples at %.0f req/s; %zu requests "
                    "at peak\n",
                    mix.name, lat.size(), mix.fixedRate, peak.sentCount());
    } else {
        SpanLog spans(nowNs());
        const PhaseLog plain = runAt(mix.fixedRate, 0.3 * a.seconds);
        const double p50Plain = percentile(latenciesUs(plain), 0.5);

        // Traced phase: registry deltas, sampled gauges, thread CPU.
        obs::MetricsRegistry &memReg = rig->hc.mem.metrics();
        obs::MetricsRegistry &srvReg = rig->srv.metrics();
        const obs::MetricsSnapshot mem0 = memReg.snapshot();
        const obs::MetricsSnapshot srv0 = srvReg.snapshot();
        const LineStore &ls = rig->hc.mem.store();
        const double locks0 = static_cast<double>(
            ls.stripeLockExclusiveOps() + ls.stripeLockSharedOps());
        const ServerCpu cpu0 = ServerCpu::of(*rig);
        double occSum = 0.0, limboMax = 0.0;
        int samples = 0;
        const std::uint64_t tracedFrom = cursor;
        const PhaseLog traced =
            runAt(mix.fixedRate, 0.3 * a.seconds, [&](std::int64_t now) {
                const double occ = static_cast<double>(
                    srvReg.snapshot().gauge("server.reqring.occupancy"));
                const double limbo = static_cast<double>(
                    memReg.snapshot().gauge("epoch.limbo_depth"));
                spans.gauge("server.reqring.occupancy", now, occ);
                spans.gauge("epoch.limbo_depth", now, limbo);
                occSum += occ;
                limboMax = std::max(limboMax, limbo);
                ++samples;
            });
        const ServerCpu cpu1 = ServerCpu::of(*rig);
        const double locks1 = static_cast<double>(
            ls.stripeLockExclusiveOps() + ls.stripeLockSharedOps());
        const obs::MetricsSnapshot memD = obs::delta(mem0, memReg.snapshot());
        const obs::MetricsSnapshot srvD = obs::delta(srv0, srvReg.snapshot());
        spans.mark("phase.traced.mem", traced.end, obs::toJson(memD));
        spans.mark("phase.traced.server", traced.end, obs::toJson(srvD));

        const auto genTid =
            static_cast<std::uint32_t>(::syscall(SYS_gettid));
        std::vector<double> late;
        std::uint64_t served = 0;
        for (const Slot &s : traced.slots) {
            late.push_back(
                static_cast<double>(latenessNs(s.due, s.sent)) / 1e3);
            if (s.done >= 0) {
                ++served;
                spans.span("client.request", genTid, s.due, s.done,
                           s.pos, s.sent);
            }
        }
        const std::vector<double> lat = latenciesUs(traced);
        const double p50 = percentile(lat, 0.5);
        const double wall = static_cast<double>(traced.end - traced.start);
        const double n = static_cast<double>(served);

        // Judged on the same quiet windows as the latency metrics.
        o.add("loadgen.late_p99_us",
              windowedPercentile(late, kLatWindow, 0.99, kQuietLatency),
              "us");
        o.add("loadgen.p99_us",
              windowedPercentile(lat, kLatWindow, 0.99, kQuietLatency),
              "us");
        o.add("loadgen.busy_frac",
              static_cast<double>(traced.genBusyNs) / wall, "ratio");
        o.add("server.net.busy_frac", (cpu1.net - cpu0.net) / wall, "ratio");
        o.add("server.worker.busy_frac",
              (cpu1.workers - cpu0.workers) / wall /
                  static_cast<double>(kWorkers),
              "ratio");
        o.add("server.batch.cmds_mean", histMean(srvD, "server.batch.cmds"),
              "count");
        o.add("server.backpressure.stalls_per_kop",
              ratio(deltaOf(srvD, "server.backpressure.stalls") * 1e3, n),
              "count/kop");
        o.add("server.reqring.occupancy_mean", ratio(occSum, samples),
              "count");
        o.add("server.bytes.out_per_op",
              ratio(deltaOf(srvD, "server.bytes.out"), n), "B/op");
        addMemMetrics(o, memD, locks1 - locks0, n, limboMax);

        const Replay rep =
            replayIntoStore(in, mix, tracedFrom,
                            tracedFrom + traced.sentCount(), spans, o);
        o.add("server.overhead_p50_us", p50 - percentile(rep.all, 0.5) / 1e3,
              "us");
        o.add("store.get_p50_ns", percentile(rep.ns[0], 0.5), "ns");
        o.add("store.get_p99_ns", percentile(rep.ns[0], 0.99), "ns");
        o.add("store.set_p50_ns", percentile(rep.ns[1], 0.5), "ns");
        o.add("store.arith_p50_ns", percentile(rep.ns[3], 0.5), "ns");
        o.add("trace.overhead_pct", (ratio(p50, p50Plain) - 1.0) * 100.0,
              "%");
        const std::string path = a.outDir + "/trace-" + a.workload +
                                 "-seed" + std::to_string(a.seed) + ".json";
        if (spans.write(path, stampJson(a, o)))
            std::printf("# spans: %zu written to %s\n", spans.size(),
                        path.c_str());
        else
            o.warnings.push_back("could not write " + path);
    }

    // Quiesced end: read back every key and counter, then the gap check.
    traffic->setMode(KvTraffic::Mode::Sweep);
    PhaseSpec sweep;
    sweep.maxCount = preloadLen;
    sweep.inflight = kBurstInflight;
    ops.add(rig->gen->run(sweep, in.gaps, *traffic));
    ops.failed += checkCounterChains(in, *model, o);
    if (!rig->gen->ok())
        o.fail("load generator: " + rig->gen->error());
    rig->stop();
    auditInto(rig->hc, o);

    if (!a.trace) {
        // User bytes: every live key and value, counters included.
        double user = 0.0;
        for (std::uint32_t i = 0; i < kItems; ++i)
            if (model->state[i] >= 0)
                user += static_cast<double>(
                    in.keys[i].size() +
                    in.valueBytes[i * kVariants + model->state[i]]);
        for (unsigned j = 0; j < mix.counters; ++j)
            user += static_cast<double>(
                in.ctrKeys[j].size() +
                std::to_string(in.ctrInit(j) + model->ctrAcked[j]).size());
        o.add("bytes_per_user_byte",
              static_cast<double>(rig->hc.mem.liveBytes()) / user, "ratio");
        o.add("setup_s", percentile(setupS, 0.5), "s");
    }
    o.attempted = ops.attempted;
    o.failed = ops.failed;
    if (ops.failed > 0)
        o.fail(std::to_string(ops.failed) + " failed ops");
}

} // namespace perfbench
