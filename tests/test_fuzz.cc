/**
 * @file
 * Randomized shadow-model tests: drive the iterator register and
 * builder with long random operation sequences and check every
 * observable against a plain std::vector<Word> model. This is the
 * widest net for canonical-form, path-cache, dirty-buffer and
 * refcount bugs.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "common/status.hh"
#include "seg/iterator.hh"

namespace hicamp {
namespace {

struct FuzzCase {
    /// 64-bit so the struct has no padding: gtest names each case after
    /// the raw bytes of its parameter, and uninitialized padding made
    /// those names change from run to run.
    std::uint64_t lineBytes;
    std::uint64_t seed;
    /// P(fresh allocation fails) for the fault-injected variants
    double allocP = 0.0;
};

class IteratorFuzz : public ::testing::TestWithParam<FuzzCase>
{};

TEST_P(IteratorFuzz, MatchesShadowModel)
{
    MemoryConfig cfg;
    cfg.lineBytes = static_cast<unsigned>(GetParam().lineBytes);
    cfg.numBuckets = 1 << 13;
    cfg.faults.allocFailP = GetParam().allocP;
    cfg.faults.seed = GetParam().seed * 31 + 7;
    Memory mem(cfg);
    SegmentMap vsm(mem);
    SegBuilder builder(mem);
    Rng rng(GetParam().seed);

    constexpr std::uint64_t kSpace = 2048; // word index space
    std::vector<Word> shadow(kSpace, 0);

    // Start from a random initial segment.
    for (auto &w : shadow) {
        if (rng.chance(0.3))
            w = rng.next() >> (rng.chance(0.5) ? 40 : 8);
    }
    std::vector<WordMeta> metas(kSpace, WordMeta::raw());
    Vsid v = vsm.create(
        builder.buildWords(shadow.data(), metas.data(), kSpace));

    IteratorRegister it(mem, vsm);
    it.load(v, 0);
    std::vector<Word> pending = shadow; // shadow incl. uncommitted

    for (int step = 0; step < 3000; ++step) {
        switch (rng.below(10)) {
          case 0:
          case 1:
          case 2: { // read at random offset
            std::uint64_t idx = rng.below(kSpace);
            it.seek(idx);
            ASSERT_EQ(it.read(), pending[idx])
                << "step " << step << " idx " << idx;
            break;
          }
          case 3:
          case 4:
          case 5: { // buffered write
            std::uint64_t idx = rng.below(kSpace);
            Word val = rng.chance(0.2)
                           ? 0
                           : rng.next() >> (rng.chance(0.5) ? 40 : 4);
            it.seek(idx);
            it.write(val);
            pending[idx] = val;
            break;
          }
          case 6: { // next() against the shadow
            std::uint64_t from = rng.below(kSpace);
            it.seek(from);
            bool found = it.next();
            std::uint64_t expect = from + 1;
            while (expect < kSpace && pending[expect] == 0)
                ++expect;
            if (expect < kSpace) {
                ASSERT_TRUE(found) << "step " << step;
                ASSERT_EQ(it.offset(), expect) << "step " << step;
            } else if (found) {
                // Beyond the shadow space everything must be zero.
                ASSERT_GE(it.offset(), kSpace);
                ASSERT_EQ(it.read(), 0u);
            }
            break;
          }
          case 7: { // commit
            if (it.tryCommit()) {
                shadow = pending;
            } else {
                // Single-threaded, so only injected memory pressure
                // can fail a commit; the rollback keeps the write
                // buffers intact for a later attempt.
                ASSERT_NE(it.lastCommitStatus(), MemStatus::Ok)
                    << "step " << step;
            }
            break;
          }
          case 8: { // abort
            it.abort();
            pending = shadow;
            break;
          }
          case 9: { // reload (drops buffered writes)
            it.load(v, rng.below(kSpace));
            pending = shadow;
            break;
          }
        }
    }

    // Final committed state equals a canonical rebuild of the shadow
    // (abort drops the uncommitted writes). Retry the empty commit:
    // even it can catch an injected fault.
    it.abort();
    while (!it.tryCommit())
        ASSERT_NE(it.lastCommitStatus(), MemStatus::Ok);
    SegDesc cur = vsm.get(v);
    SegDesc direct =
        builder.buildWords(shadow.data(), metas.data(), kSpace);
    // Heights can differ if the iterator grew the tree; compare by
    // materialized content.
    SegReader reader(mem);
    for (std::uint64_t i = 0; i < kSpace; ++i) {
        ASSERT_EQ(reader.readWord(cur.root, cur.height, i), shadow[i])
            << "final idx " << i;
    }
    builder.releaseSeg(direct);

    // Refcount hygiene: destroying everything empties the store.
    vsm.destroy(v);
    // The iterator still holds its snapshot; drop it.
    it.load(vsm.create(SegDesc{}), 0);
}

std::vector<FuzzCase>
cases()
{
    std::vector<FuzzCase> out;
    for (unsigned ls : {16u, 32u, 64u})
        for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull})
            out.push_back({ls, seed});
    // The same sweep under transient allocation faults (p = 0.001,
    // fixed seeds): injected failures must surface only as clean
    // tryCommit conflicts, never as shadow-model divergence.
    for (unsigned ls : {16u, 32u, 64u})
        out.push_back({ls, 5, 0.001});
    return out;
}

std::string
caseName(const ::testing::TestParamInfo<FuzzCase> &info)
{
    return "ls" + std::to_string(info.param.lineBytes) + "_seed" +
           std::to_string(info.param.seed) +
           (info.param.allocP > 0.0 ? "_faults" : "");
}

INSTANTIATE_TEST_SUITE_P(Sweep, IteratorFuzz, ::testing::ValuesIn(cases()),
                         caseName);

/**
 * Canonicality fuzz: any permutation of the same final content, built
 * through any mixture of bulk builds and single-word updates, must
 * produce the identical root entry.
 */
class CanonicalFuzz : public ::testing::TestWithParam<FuzzCase>
{};

TEST_P(CanonicalFuzz, OrderIndependentRoots)
{
    MemoryConfig cfg;
    cfg.lineBytes = static_cast<unsigned>(GetParam().lineBytes);
    cfg.numBuckets = 1 << 12;
    // The bare setWord chains below have no retry boundary, so a
    // suite-wide injected allocation failure would abort the
    // canonicality check rather than exercise a recovery path.
    cfg.faults.allowEnvOverride = false;
    Memory mem(cfg);
    SegBuilder builder(mem);
    Rng rng(GetParam().seed * 77 + 5);

    constexpr std::uint64_t kWords = 256;
    std::vector<Word> target(kWords, 0);
    for (auto &w : target) {
        if (rng.chance(0.4))
            w = rng.next() >> (rng.chance(0.5) ? 48 : 0);
    }
    std::vector<WordMeta> metas(kWords, WordMeta::raw());
    SegDesc bulk = builder.buildWords(target.data(), metas.data(),
                                      kWords);

    // Apply the words in a random order via functional updates.
    std::vector<std::uint64_t> order(kWords);
    for (std::uint64_t i = 0; i < kWords; ++i)
        order[i] = i;
    for (std::uint64_t i = kWords; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);

    int h = builder.geometry().heightForWords(kWords);
    Entry root = Entry::zero();
    for (std::uint64_t idx : order) {
        if (target[idx] == 0)
            continue;
        Entry next = builder.setWord(root, h, idx, target[idx],
                                     WordMeta::raw());
        builder.release(root);
        root = next;
    }
    EXPECT_EQ(root, bulk.root);
    builder.release(root);
    builder.releaseSeg(bulk);
    EXPECT_EQ(mem.liveLines(), 0u);
    EXPECT_EQ(mem.store().totalRefs(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CanonicalFuzz,
                         ::testing::ValuesIn(cases()),
                         [](const auto &info) {
                             return "ls" +
                                    std::to_string(info.param.lineBytes) +
                                    "_seed" +
                                    std::to_string(info.param.seed);
                         });

} // namespace
} // namespace hicamp
