/**
 * @file
 * Tests for HTable/HView (the §4.4 in-memory-database sketch) and
 * HShardedMap (the §5.1.1 contention split): CRUD, snapshot-consistent
 * views that survive concurrent mutation, zero-copy view references,
 * concurrent appends, and shard routing.
 */

#include <gtest/gtest.h>

#include <thread>

#include "lang/hsharded_map.hh"
#include "lang/htable.hh"

namespace hicamp {
namespace {

MemoryConfig
smallCfg()
{
    MemoryConfig c;
    c.numBuckets = 1 << 14;
    return c;
}

struct TableFixture : ::testing::Test {
    TableFixture() : hc(smallCfg()), table(hc) {}
    Hicamp hc;
    HTable table;
};

TEST_F(TableFixture, InsertGetUpdateErase)
{
    std::uint64_t a = table.insert(HString(hc, "row-a"));
    std::uint64_t b = table.insert(HString(hc, "row-b"));
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(table.get(a)->str(), "row-a");
    EXPECT_TRUE(table.update(a, HString(hc, "row-a2")));
    EXPECT_EQ(table.get(a)->str(), "row-a2");
    EXPECT_TRUE(table.erase(b));
    EXPECT_FALSE(table.get(b).has_value());
    EXPECT_FALSE(table.erase(b));
    EXPECT_EQ(table.rowCount(), 2u);
}

TEST_F(TableFixture, SelectFiltersRows)
{
    for (int i = 0; i < 30; ++i) {
        table.insert(HString(
            hc, (i % 3 == 0 ? "urgent:" : "normal:") +
                    std::to_string(i)));
    }
    HView v = table.select([](const HString &row) {
        return row.str().rfind("urgent:", 0) == 0;
    });
    EXPECT_EQ(v.size(), 10u);
    for (std::uint64_t i = 0; i < v.size(); ++i)
        EXPECT_EQ(v.row(i).str().substr(0, 7), "urgent:");
}

TEST_F(TableFixture, ViewSurvivesLaterMutation)
{
    for (int i = 0; i < 10; ++i)
        table.insert(HString(hc, "balance:" + std::to_string(i * 100)));
    HView audit = table.select([](const HString &) { return true; });
    ASSERT_EQ(audit.size(), 10u);

    // Mutate the table heavily after the view was taken.
    for (std::uint64_t i = 0; i < 10; ++i)
        table.update(i, HString(hc, "changed"));
    table.erase(3);

    // The view still reads the original rows — it references the
    // original row segments, which its references keep alive.
    for (std::uint64_t i = 0; i < audit.size(); ++i)
        EXPECT_EQ(audit.row(i).str(),
                  "balance:" + std::to_string(i * 100));
}

TEST_F(TableFixture, ViewIsZeroCopy)
{
    // A view over large rows must cost reference words, not row data.
    std::vector<std::string> payloads;
    for (int i = 0; i < 8; ++i) {
        payloads.push_back(std::string(4000, static_cast<char>('A' + i)) +
                           std::to_string(i));
        table.insert(HString(hc, payloads.back()));
    }
    std::uint64_t before = hc.mem.liveBytes();
    HView v = table.select([](const HString &) { return true; });
    std::uint64_t view_cost = hc.mem.liveBytes() - before;
    EXPECT_EQ(v.size(), 8u);
    EXPECT_LT(view_cost, 1000u); // references only, no row copies
}

TEST_F(TableFixture, ConcurrentInsertsAllLand)
{
    constexpr int kThreads = 4, kRows = 30;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&, t] {
            for (int i = 0; i < kRows; ++i) {
                table.insert(HString(hc, "t" + std::to_string(t) + ":" +
                                             std::to_string(i)));
            }
        });
    }
    for (auto &t : ts)
        if (t.joinable())
            t.join();
    EXPECT_EQ(table.rowCount(),
              static_cast<std::uint64_t>(kThreads * kRows));
    // Every row id holds exactly one committed row.
    HView all = table.select([](const HString &) { return true; });
    EXPECT_EQ(all.size(), static_cast<std::uint64_t>(kThreads * kRows));
}

TEST(ShardedMap, RoutesAndStores)
{
    Hicamp hc(smallCfg());
    HShardedMap map(hc, 3);
    EXPECT_EQ(map.shardCount(), 8u);
    for (int i = 0; i < 100; ++i) {
        map.set(HString(hc, "k" + std::to_string(i)),
                HString(hc, "v" + std::to_string(i)));
    }
    EXPECT_EQ(map.size(), 100u);
    for (int i = 0; i < 100; ++i) {
        auto v = map.get(HString(hc, "k" + std::to_string(i)));
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(v->str(), "v" + std::to_string(i));
    }
    EXPECT_TRUE(map.erase(HString(hc, "k5")));
    EXPECT_FALSE(map.get(HString(hc, "k5")).has_value());
    EXPECT_EQ(map.size(), 99u);
}

TEST(ShardedMap, KeysSpreadAcrossShards)
{
    Hicamp hc(smallCfg());
    HShardedMap map(hc, 2); // 4 shards
    std::vector<int> used(4, 0);
    for (int i = 0; i < 200; ++i)
        used[map.shardOf(HString(hc, "key" + std::to_string(i)))]++;
    for (int s = 0; s < 4; ++s)
        EXPECT_GT(used[s], 10) << "shard " << s << " starved";
}

TEST(ShardedMap, ConcurrentWritersScaleAcrossShards)
{
    Hicamp hc(smallCfg());
    HShardedMap map(hc, 3);
    constexpr int kThreads = 4, kOps = 40;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&, t] {
            for (int i = 0; i < kOps; ++i) {
                map.set(HString(hc, "w" + std::to_string(t) + "-" +
                                        std::to_string(i)),
                        HString(hc, "x"));
            }
        });
    }
    for (auto &t : ts)
        t.join();
    EXPECT_EQ(map.size(), static_cast<std::uint64_t>(kThreads * kOps));
}

} // namespace
} // namespace hicamp
