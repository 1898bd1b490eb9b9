/**
 * @file
 * Memcached model tests: conventional baseline correctness (hit/miss,
 * replace, delete, chain handling, DRAM traffic plausibility) and the
 * HICAMP store the server runs, `server::McStore` (correctness, dedup
 * of repeated values, category traffic, atomic incr), plus the
 * workload generators.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "apps/memcached/conv_memcached.hh"
#include "server/store.hh"
#include "workloads/memcached_workload.hh"

namespace hicamp {
namespace {

TEST(WebCorpus, DeterministicAndSized)
{
    WebCorpus::Params p;
    p.numItems = 50;
    p.minBytes = 100;
    p.maxBytes = 5000;
    auto a = WebCorpus::generate(p);
    auto b = WebCorpus::generate(p);
    ASSERT_EQ(a.size(), 50u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].payload, b[i].payload);
        EXPECT_GE(a[i].payload.size(), 100u);
        EXPECT_LE(a[i].payload.size(), 5000u);
    }
}

TEST(WebCorpus, TextItemsShareContentImagesDoNot)
{
    WebCorpus::Params pages;
    pages.kind = WebCorpus::Kind::Pages;
    pages.numItems = 30;
    pages.minBytes = 2000;
    pages.maxBytes = 4000;
    auto html = WebCorpus::generate(pages);

    WebCorpus::Params imgs = pages;
    imgs.kind = WebCorpus::Kind::Images;
    imgs.seed = 7;
    // All-distinct blobs isolate the intra-file (non-)dedup property;
    // whole-file duplication is a separate knob.
    imgs.uniqueImageFraction = 1.0;
    auto bin = WebCorpus::generate(imgs);

    // Dedup rate through a real HICAMP store: text must compact,
    // images must not.
    MemoryConfig cfg;
    cfg.numBuckets = 1 << 15;
    auto dedup_ratio = [&](const std::vector<WebItem> &items) {
        Memory mem(cfg);
        SegBuilder b(mem);
        std::vector<SegDesc> keep;
        std::uint64_t raw = 0;
        for (const auto &it : items) {
            keep.push_back(
                b.buildBytes(it.payload.data(), it.payload.size()));
            raw += it.payload.size();
        }
        return static_cast<double>(raw) /
               static_cast<double>(mem.liveBytes());
    };
    EXPECT_GT(dedup_ratio(html), 1.3);
    EXPECT_LT(dedup_ratio(bin), 1.05);
}

TEST(WebCorpus, MutatePreservesLength)
{
    Rng rng(1);
    std::string s(500, 'a');
    std::string t = WebCorpus::mutate(s, rng);
    EXPECT_EQ(t.size(), s.size());
    EXPECT_NE(t, s);
}

TEST(McWorkload, RespectsMix)
{
    WebCorpus::Params p;
    p.numItems = 100;
    auto items = WebCorpus::generate(p);
    McWorkloadParams wp;
    wp.numRequests = 5000;
    auto reqs = generateMcRequests(items, wp);
    ASSERT_EQ(reqs.size(), 5000u);
    std::uint64_t gets = 0, sets = 0, dels = 0;
    for (const auto &r : reqs) {
        switch (r.op) {
          case McRequest::Op::Get:
            ++gets;
            break;
          case McRequest::Op::Set:
            ++sets;
            EXPECT_FALSE(r.newValue.empty());
            break;
          case McRequest::Op::Delete:
            ++dels;
            break;
        }
    }
    EXPECT_NEAR(static_cast<double>(gets) / 5000.0, 0.90, 0.03);
    EXPECT_GT(sets, 0u);
    EXPECT_GT(dels, 0u);
}

TEST(ConvMemcached, SetGetDelete)
{
    ConvMemcached mc(16, 100);
    EXPECT_FALSE(mc.get("absent"));
    mc.set("k1", 500);
    EXPECT_TRUE(mc.get("k1"));
    mc.set("k1", 700); // replace
    EXPECT_EQ(mc.itemCount(), 1u);
    EXPECT_TRUE(mc.del("k1"));
    EXPECT_FALSE(mc.get("k1"));
    EXPECT_FALSE(mc.del("k1"));
}

TEST(ConvMemcached, ManyKeysWithChains)
{
    ConvMemcached mc(16, 64); // small table forces chains
    for (int i = 0; i < 500; ++i)
        mc.set("key" + std::to_string(i), 100 + i % 50);
    EXPECT_EQ(mc.itemCount(), 500u);
    for (int i = 0; i < 500; ++i)
        EXPECT_TRUE(mc.get("key" + std::to_string(i)));
    for (int i = 0; i < 500; i += 3)
        EXPECT_TRUE(mc.del("key" + std::to_string(i)));
    for (int i = 0; i < 500; ++i) {
        EXPECT_EQ(mc.get("key" + std::to_string(i)), i % 3 != 0)
            << "key" << i;
    }
}

TEST(ConvMemcached, TrafficScalesWithValueSize)
{
    ConvMemcached mc(16, 100);
    mc.set("small", 64);
    mc.set("large", 64 * 1024);
    std::uint64_t before = mc.hierarchy().dramTotal();
    // Large value misses dwarf small value misses.
    mc.get("large");
    std::uint64_t large_cost = mc.hierarchy().dramTotal() - before;
    before = mc.hierarchy().dramTotal();
    mc.get("small");
    std::uint64_t small_cost = mc.hierarchy().dramTotal() - before;
    EXPECT_GT(large_cost, small_cost * 10);
}

TEST(ConvMemcached, SlabMemoryIsReused)
{
    ConvMemcached mc(16, 100);
    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 20; ++i)
            mc.set("cycle" + std::to_string(i), 1000);
        for (int i = 0; i < 20; ++i)
            mc.del("cycle" + std::to_string(i));
    }
    // Reserved slab memory stays bounded by one round's worth.
    EXPECT_LT(mc.residentBytes(), 16u * (1 << 20));
}

struct HicampMcFixture : ::testing::Test {
    HicampMcFixture() : hc(cfg()), mc(hc), reg(hc.mem, hc.vsm) {}
    static MemoryConfig
    cfg()
    {
        MemoryConfig c;
        c.numBuckets = 1 << 14;
        return c;
    }

    /** Payload stored under @p key, read through the test's register. */
    std::optional<std::string>
    get(const std::string &key)
    {
        auto v = mc.get(reg, key);
        if (!v)
            return std::nullopt;
        return v->data;
    }

    Hicamp hc;
    server::McStore mc;
    IteratorRegister reg;
};

TEST_F(HicampMcFixture, SetGetDelete)
{
    EXPECT_FALSE(get("absent").has_value());
    mc.set("k1", 0, std::string(300, 'v'));
    EXPECT_EQ(get("k1"), std::string(300, 'v'));
    EXPECT_TRUE(mc.erase("k1"));
    EXPECT_FALSE(get("k1").has_value());
    EXPECT_FALSE(mc.erase("k1"));
}

TEST_F(HicampMcFixture, RepeatedValuesDeduplicate)
{
    // A value with distinct lines (not self-deduplicating).
    std::string common;
    Rng rng(9);
    for (int i = 0; i < 500; ++i) {
        std::uint64_t w = rng.next();
        common.append(reinterpret_cast<const char *>(&w), 8);
    }
    mc.set("a", 0, common);
    std::uint64_t after_one = hc.mem.liveBytes();
    EXPECT_GT(after_one, common.size()); // leaves + DAG overhead
    for (int i = 0; i < 10; ++i)
        mc.set("dup" + std::to_string(i), 0, common);
    // Ten more copies of the same value add only map/pair overhead —
    // a few hundred bytes each, nothing like ten more value bodies.
    EXPECT_LT(hc.mem.liveBytes(), after_one + 10 * 600);
}

TEST_F(HicampMcFixture, GetGeneratesNoWriteTraffic)
{
    mc.set("ro", 0, std::string(2000, 'r'));
    hc.mem.resetTraffic();
    EXPECT_TRUE(get("ro").has_value());
    EXPECT_EQ(hc.mem.dram().writes(), 0u);
    EXPECT_EQ(hc.mem.dram().deallocs(), 0u);
}

TEST_F(HicampMcFixture, AddOnlyIfAbsent)
{
    EXPECT_TRUE(mc.add("fresh", 0, "v1"));
    EXPECT_FALSE(mc.add("fresh", 0, "v2")); // already present
    EXPECT_EQ(get("fresh"), "v1");
    mc.erase("fresh");
    EXPECT_TRUE(mc.add("fresh", 0, "v3")); // absent again after delete
}

TEST_F(HicampMcFixture, ReplaceOnlyIfPresent)
{
    EXPECT_FALSE(mc.replace("ghost", 0, "x"));
    mc.set("ghost", 0, "v1");
    EXPECT_TRUE(mc.replace("ghost", 0, "v2"));
    EXPECT_EQ(get("ghost"), "v2");
}

TEST_F(HicampMcFixture, IncrDecrSemantics)
{
    using Status = server::McStore::ArithStatus;
    std::uint64_t v = 0;
    EXPECT_EQ(mc.arith("counter", 1, true, v), Status::NotFound);
    mc.set("counter", 7, "100");
    ASSERT_EQ(mc.arith("counter", 5, true, v), Status::Ok);
    EXPECT_EQ(v, 105u);
    ASSERT_EQ(mc.arith("counter", 30, false, v), Status::Ok);
    EXPECT_EQ(v, 75u);
    ASSERT_EQ(mc.arith("counter", 100, false, v), Status::Ok);
    EXPECT_EQ(v, 0u); // decr saturates at zero
    EXPECT_EQ(mc.get(reg, "counter")->flags, 7u); // flags survive
    mc.set("counter", 0, "18446744073709551615");
    ASSERT_EQ(mc.arith("counter", 1, true, v), Status::Ok);
    EXPECT_EQ(v, 0u); // incr wraps at 2^64
    EXPECT_EQ(get("counter"), "0");
    mc.set("notanumber", 0, "abc");
    EXPECT_EQ(mc.arith("notanumber", 1, true, v), Status::NotNumber);
}

TEST(McStore, ConcurrentIncrLosesNoUpdate)
{
    // Four threads incr one key. A value race backs off, re-reads and
    // retries; a spent retry budget throws MemPressureError (the
    // server's SERVER_ERROR) without touching the value. Either way
    // the final count is exactly the increments that answered Ok.
    MemoryConfig cfg;
    cfg.numBuckets = 1 << 14;
    Hicamp hc(cfg);
    server::McStore mc(hc);
    mc.set("hits", 0, "0");
    constexpr int kThreads = 4, kIncs = 40;
    std::atomic<std::uint64_t> applied{0};
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&] {
            for (int i = 0; i < kIncs; ++i) {
                std::uint64_t v = 0;
                try {
                    if (mc.arith("hits", 1, true, v) ==
                        server::McStore::ArithStatus::Ok)
                        ++applied;
                } catch (const MemPressureError &) {
                    // Spent retry budget: not applied, checked below.
                }
            }
        });
    }
    for (auto &t : ts)
        t.join();
    IteratorRegister reg(hc.mem, hc.vsm);
    auto end = mc.get(reg, "hits");
    ASSERT_TRUE(end.has_value());
    EXPECT_EQ(end->data, std::to_string(applied.load()));
    EXPECT_EQ(applied.load(), std::uint64_t{kThreads * kIncs});
}

TEST_F(HicampMcFixture, ValueCasDetectsInterference)
{
    HMap map(hc);
    HString k(hc, "cas-key");
    map.set(k, HString(hc, "v1"));
    // CAS with the right expected value succeeds...
    EXPECT_TRUE(
        map.compareAndSet(k, HString(hc, "v1"), HString(hc, "v2")));
    // ...with a stale expected value fails...
    EXPECT_FALSE(
        map.compareAndSet(k, HString(hc, "v1"), HString(hc, "v3")));
    EXPECT_EQ(map.get(k)->str(), "v2");
    // ...and on a missing key fails.
    EXPECT_FALSE(map.compareAndSet(HString(hc, "absent"),
                                   HString(hc, "a"), HString(hc, "b")));
}

TEST_F(HicampMcFixture, WorkloadEndToEnd)
{
    WebCorpus::Params p;
    p.numItems = 60;
    p.minBytes = 200;
    p.maxBytes = 3000;
    auto items = WebCorpus::generate(p);
    for (const auto &it : items)
        mc.set(it.key, 0, it.payload);

    McWorkloadParams wp;
    wp.numRequests = 500;
    auto reqs = generateMcRequests(items, wp);
    std::uint64_t hits = 0, misses = 0;
    for (const auto &r : reqs) {
        const std::string &key = items[r.itemIndex].key;
        switch (r.op) {
          case McRequest::Op::Get:
            get(key).has_value() ? ++hits : ++misses;
            break;
          case McRequest::Op::Set:
            mc.set(key, 0, r.newValue);
            break;
          case McRequest::Op::Delete:
            mc.erase(key);
            break;
        }
    }
    EXPECT_GT(hits, misses); // only deleted keys can miss
    EXPECT_GT(hc.mem.dram().lookups(), 0u);
    EXPECT_GT(hc.mem.dram().refcounts(), 0u);
}

} // namespace
} // namespace hicamp
