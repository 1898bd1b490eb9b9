/**
 * @file
 * McStore — the server's storage engine: memcached item semantics
 * (value + 32-bit client flags) over the sharded HICAMP map.
 *
 * The paper's §4.4 memcached sketch maps directly: each item is a
 * content-unique HString, the key space is an HShardedMap (per-shard
 * VSIDs, so commits to different shards never contend), GETs read a
 * point-in-time snapshot through an iterator register the calling
 * worker owns, and SETs commit through merge-update. The client's
 * opaque flags word rides as a fixed 4-byte prefix on the value
 * segment — equal payloads with equal flags still dedup to one
 * segment, and the prefix costs one line at most.
 *
 * Memory pressure is the caller's protocol concern: set/add/replace
 * propagate MemPressureError (after HMap's leak-free unwind) and the
 * server maps it to a per-request "SERVER_ERROR out of memory",
 * never a crash.
 */

#ifndef HICAMP_SERVER_STORE_HH
#define HICAMP_SERVER_STORE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/backoff.hh"
#include "lang/hsharded_map.hh"

namespace hicamp::server {

/** A decoded item: client flags + payload bytes. */
struct McValue {
    std::uint32_t flags = 0;
    std::string data;
};

class McStore
{
  public:
    explicit McStore(Hicamp &hc, unsigned shard_bits = 4)
        : hc_(hc), map_(hc, shard_bits)
    {
    }

    /** Unconditional store. Throws MemPressureError when the heap
     *  cannot take the item (caller answers SERVER_ERROR). */
    void
    set(std::string_view key, std::uint32_t flags,
        std::string_view data)
    {
        HString k(hc_, key);
        HString v = encode(flags, data);
        map_.shard(map_.shardOf(k)).set(k, v);
    }

    /** memcached "add": store only if absent. */
    bool
    add(std::string_view key, std::uint32_t flags,
        std::string_view data)
    {
        HString k(hc_, key);
        HString v = encode(flags, data);
        return map_.shard(map_.shardOf(k)).add(k, v);
    }

    /** memcached "replace": store only if present. */
    bool
    replace(std::string_view key, std::uint32_t flags,
            std::string_view data)
    {
        HString k(hc_, key);
        HString v = encode(flags, data);
        return map_.shard(map_.shardOf(k)).replace(k, v);
    }

    /**
     * Snapshot read through the caller's iterator register (paper
     * §4.4: one register per client-serving thread; the register
     * reloads per command, taking a fresh snapshot that concurrent
     * SET commits cannot tear).
     */
    std::optional<McValue>
    get(IteratorRegister &it, std::string_view key)
    {
        HString k(hc_, key);
        auto v = map_.shard(map_.shardOf(k)).getWith(it, k);
        if (!v)
            return std::nullopt;
        return decode(*v);
    }

    bool
    erase(std::string_view key)
    {
        HString k(hc_, key);
        return map_.shard(map_.shardOf(k)).erase(k);
    }

    enum class ArithStatus : std::uint8_t { Ok, NotFound, NotNumber };

    /**
     * memcached incr/decr: the value must be an ASCII uint64. Incr
     * wraps at 2^64 (protocol behaviour), decr saturates at zero.
     * Atomic via value-conditional commit: losing a race with a
     * concurrent writer backs off, re-reads and retries, so no update
     * is lost. The memory's RetryPolicy bounds the retries and
     * ContentionStats counts them; a spent budget throws
     * MemPressureError (TooManyConflicts) with the value untouched.
     */
    ArithStatus
    arith(std::string_view key, std::uint64_t delta, bool incr,
          std::uint64_t &result)
    {
        HString k(hc_, key);
        HMap &shard = map_.shard(map_.shardOf(k));
        CommitRetry retry(hc_.mem.retryPolicy(), &hc_.mem.contention());
        for (;;) {
            auto cur = shard.get(k);
            if (!cur)
                return ArithStatus::NotFound;
            McValue mv = decode(*cur);
            std::uint64_t n = 0;
            if (!parseNumber(mv.data, n))
                return ArithStatus::NotNumber;
            const std::uint64_t nv =
                incr ? n + delta : (n < delta ? 0 : n - delta);
            HString next = encode(mv.flags, std::to_string(nv));
            if (shard.compareAndSet(k, *cur, next)) {
                result = nv;
                return ArithStatus::Ok;
            }
            // Value moved under us (or was deleted): re-read.
            if (!retry.onConflict())
                throwRetriesExhausted(MemStatus::Ok,
                                      "McStore::arith value race");
        }
    }

    std::uint64_t itemCount() { return map_.size(); }

    Hicamp &heap() { return hc_; }

  private:
    /** Value segment layout: 4-byte little-endian flags, then data. */
    HString
    encode(std::uint32_t flags, std::string_view data)
    {
        std::string raw;
        raw.reserve(4 + data.size());
        for (int i = 0; i < 4; ++i)
            raw.push_back(static_cast<char>((flags >> (8 * i)) & 0xff));
        raw.append(data);
        return HString(hc_, raw);
    }

    static McValue
    decode(const HString &v)
    {
        std::string raw = v.str();
        HICAMP_ASSERT(raw.size() >= 4, "undersized mc value segment");
        McValue mv;
        for (int i = 0; i < 4; ++i)
            mv.flags |= static_cast<std::uint32_t>(
                            static_cast<unsigned char>(raw[i]))
                        << (8 * i);
        mv.data = raw.substr(4);
        return mv;
    }

    static bool
    parseNumber(std::string_view s, std::uint64_t &out)
    {
        if (s.empty() || s.size() > 20)
            return false;
        std::uint64_t n = 0;
        for (char c : s) {
            if (c < '0' || c > '9')
                return false;
            n = n * 10 + static_cast<std::uint64_t>(c - '0');
        }
        out = n;
        return true;
    }

    Hicamp &hc_;
    HShardedMap map_;
};

} // namespace hicamp::server

#endif // HICAMP_SERVER_STORE_HH
