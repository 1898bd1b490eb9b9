/**
 * @file
 * Unit tests for the dual-mode HICAMP cache (paper Fig. 3): read-by-
 * key filling and LRU, content-searchability and the bucket-to-set
 * mapping invariant, dirty-writeback category propagation,
 * invalidation (including cancelled writebacks) and the kind-keyed
 * coexistence of data/signature/refcount/transient lines.
 */

#include <gtest/gtest.h>

#include "mem/hicamp_cache.hh"

namespace hicamp {
namespace {

Line
mkLine(Word a, Word b = 0)
{
    Line l(2);
    l.set(0, a);
    l.set(1, b);
    return l;
}

TEST(HicampCacheUnit, HitAfterFill)
{
    HicampCache c(1024, 2, 16, true);
    auto a1 = c.access({LineKind::Data, 42}, 7, false, DramCat::Read);
    EXPECT_FALSE(a1.hit);
    auto a2 = c.access({LineKind::Data, 42}, 7, false, DramCat::Read);
    EXPECT_TRUE(a2.hit);
}

TEST(HicampCacheUnit, KindsDoNotAlias)
{
    HicampCache c(1024, 4, 16, true);
    c.access({LineKind::Data, 9}, 3, false, DramCat::Read);
    auto sig = c.access({LineKind::Sig, 9}, 3, false, DramCat::Lookup);
    EXPECT_FALSE(sig.hit); // same id, different kind: distinct entry
    auto rc = c.access({LineKind::Rc, 9}, 3, false, DramCat::RefCount);
    EXPECT_FALSE(rc.hit);
    EXPECT_TRUE(c.contains({LineKind::Data, 9}, 3));
    EXPECT_TRUE(c.contains({LineKind::Sig, 9}, 3));
    EXPECT_TRUE(c.contains({LineKind::Rc, 9}, 3));
}

TEST(HicampCacheUnit, ContentLookupFindsResidentLine)
{
    HicampCache c(4096, 4, 16, true);
    Line content = mkLine(0xabc, 0xdef);
    std::uint64_t hash = content.contentHash();
    // The invariant: the line is inserted with its home (bucket) as
    // the set index source, and searched by content hash — both must
    // select the same set, which holds when home = hash mod buckets
    // and sets divide buckets. Use the hash itself as home here.
    c.access({LineKind::Data, 77}, hash, true, DramCat::Lookup,
             &content);
    auto found = c.lookupContent(content, hash);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, 77u);
}

TEST(HicampCacheUnit, ContentLookupMissesAbsentContent)
{
    HicampCache c(4096, 4, 16, true);
    Line a = mkLine(1), b = mkLine(2);
    c.access({LineKind::Data, 1}, a.contentHash(), false,
             DramCat::Read, &a);
    EXPECT_FALSE(c.lookupContent(b, b.contentHash()).has_value());
}

TEST(HicampCacheUnit, NonSearchableCacheNeverMatchesContent)
{
    HicampCache c(4096, 4, 16, /*content_searchable=*/false);
    Line a = mkLine(7);
    c.access({LineKind::Data, 5}, a.contentHash(), false, DramCat::Read,
             &a);
    EXPECT_FALSE(c.lookupContent(a, a.contentHash()).has_value());
}

TEST(HicampCacheUnit, WritebackCarriesCategory)
{
    HicampCache c(256, 2, 16, true); // 8 sets x 2 ways
    // Two dirty lookup-category entries in set 0, then force both out.
    c.access({LineKind::Data, 1}, 0, true, DramCat::Lookup);
    c.access({LineKind::Data, 2}, 8, true, DramCat::Write); // set 0 too
    auto ev1 = c.access({LineKind::Data, 3}, 16, false, DramCat::Read);
    ASSERT_TRUE(ev1.writeback.has_value());
    EXPECT_EQ(*ev1.writeback, DramCat::Lookup); // LRU victim was id 1
    EXPECT_EQ(ev1.victimKey.id, 1u);
    EXPECT_EQ(ev1.victimHome, 0u);
}

TEST(HicampCacheUnit, InvalidateCancelsDirty)
{
    HicampCache c(256, 2, 16, true);
    c.access({LineKind::Data, 1}, 0, true, DramCat::Lookup);
    EXPECT_TRUE(c.invalidate({LineKind::Data, 1}, 0));
    // Re-filling the set evicts nothing dirty.
    c.access({LineKind::Data, 2}, 8, false, DramCat::Read);
    auto ev = c.access({LineKind::Data, 3}, 16, false, DramCat::Read);
    EXPECT_FALSE(ev.writeback.has_value());
}

TEST(HicampCacheUnit, CleanAllDropsPendingWritebacks)
{
    HicampCache c(256, 2, 16, true);
    c.access({LineKind::Data, 1}, 0, true, DramCat::Write);
    c.cleanAll();
    c.access({LineKind::Data, 2}, 8, false, DramCat::Read);
    auto ev = c.access({LineKind::Data, 3}, 16, false, DramCat::Read);
    EXPECT_FALSE(ev.writeback.has_value());
}

TEST(HicampCacheUnit, InvalidateAllEmptiesCache)
{
    HicampCache c(256, 2, 16, true);
    c.access({LineKind::Data, 1}, 0, false, DramCat::Read);
    c.invalidateAll();
    EXPECT_FALSE(c.contains({LineKind::Data, 1}, 0));
}

TEST(HicampCacheUnit, HitRefreshesLru)
{
    HicampCache c(256, 2, 16, true);
    c.access({LineKind::Data, 1}, 0, false, DramCat::Read);
    c.access({LineKind::Data, 2}, 8, false, DramCat::Read);
    c.access({LineKind::Data, 1}, 0, false, DramCat::Read); // refresh
    c.access({LineKind::Data, 3}, 16, false, DramCat::Read); // evict 2
    EXPECT_TRUE(c.contains({LineKind::Data, 1}, 0));
    EXPECT_FALSE(c.contains({LineKind::Data, 2}, 8));
}

TEST(HicampCacheUnit, VictimOrderOverFullSetWithHitsAndInvalidates)
{
    // 4 sets x 4 ways: homes 0, 4, 8, ... all land in set 0. Every
    // fill is dirty, so each eviction names its victim.
    HicampCache c(256, 4, 16, false);
    auto fill = [&c](std::uint64_t id) {
        return c.access({LineKind::Data, id}, 4 * id, true, DramCat::Write);
    };
    auto victimOf = [](const HicampCache::Access &a) -> std::uint64_t {
        EXPECT_FALSE(a.hit);
        return a.writeback ? a.victimKey.id : 0; // 0: filled a free way
    };
    for (std::uint64_t id = 1; id <= 4; ++id)
        EXPECT_EQ(victimOf(fill(id)), 0u);
    // Traffic in other sets must not disturb set 0's order.
    c.access({LineKind::Data, 100}, 1, false, DramCat::Read);
    EXPECT_TRUE(fill(2).hit);
    EXPECT_TRUE(fill(1).hit);                   // LRU..MRU: 3 4 2 1
    c.access({LineKind::Data, 101}, 2, false, DramCat::Read);
    EXPECT_EQ(victimOf(fill(5)), 3u);           // 4 2 1 5
    EXPECT_TRUE(c.invalidate({LineKind::Data, 4}, 16));
    EXPECT_EQ(victimOf(fill(6)), 0u);           // reuses 4's way: 2 1 5 6
    EXPECT_TRUE(fill(5).hit);                   // 2 1 6 5
    EXPECT_EQ(victimOf(fill(7)), 2u);           // 1 6 5 7
    EXPECT_EQ(victimOf(fill(8)), 1u);           // 6 5 7 8
    EXPECT_TRUE(fill(6).hit);                   // 5 7 8 6
    EXPECT_TRUE(c.invalidate({LineKind::Data, 7}, 28));
    EXPECT_TRUE(c.invalidate({LineKind::Data, 8}, 32));
    EXPECT_EQ(victimOf(fill(9)), 0u);
    EXPECT_EQ(victimOf(fill(10)), 0u);          // 5 6 9 10
    EXPECT_FALSE(c.invalidate({LineKind::Data, 7}, 28)); // already gone
    EXPECT_EQ(victimOf(fill(11)), 5u);          // 6 9 10 11
    EXPECT_TRUE(fill(9).hit);                   // 6 10 11 9
    EXPECT_EQ(victimOf(fill(12)), 6u);
    EXPECT_EQ(victimOf(fill(13)), 10u);
    for (std::uint64_t id : {9, 11, 12, 13})
        EXPECT_TRUE(c.contains({LineKind::Data, id}, 4 * id)) << id;
    EXPECT_TRUE(c.contains({LineKind::Data, 100}, 1));
    EXPECT_TRUE(c.contains({LineKind::Data, 101}, 2));
}

} // namespace
} // namespace hicamp
