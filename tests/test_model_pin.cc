/**
 * @file
 * Exact-count pin of the single-threaded memory model. One thread
 * builds a small QTS matrix, multiplies it, then runs a fixed
 * SET/GET/DELETE sequence through McStore. Every DRAM category, both
 * cache levels and the row-activation count must come out exactly as
 * recorded below. A single thread owns exactly one L1, so these are
 * the figures of the original one-L1 model; a change to the cache
 * hierarchy, its replacement order or the traffic attribution that
 * moves any of them fails here.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "apps/spmv/hicamp_matrix.hh"
#include "audit_check.hh"
#include "lang/context.hh"
#include "server/store.hh"
#include "workloads/matrixgen.hh"

namespace hicamp {
namespace {

TEST(ModelPin, SingleThreadSpmvAndKvCountsAreExact)
{
    MemoryConfig cfg;
    cfg.numBuckets = 1 << 12;
    // Small caches, so the matrix and the map evict and the LRU order
    // shows in the counts.
    cfg.l1Bytes = 2 * 1024;
    cfg.l2Bytes = 16 * 1024;
    // Exact counts: injected faults would perturb them.
    cfg.faults.allowEnvOverride = false;
    Hicamp hc(cfg);
    {
        const SparseMatrix a = MatrixGen::fem2d(
            16, MatrixGen::Coef::Random, /*symmetric=*/true, 3, "pin");
        std::vector<double> x(a.cols());
        for (std::size_t i = 0; i < x.size(); ++i)
            x[i] = 0.25 * static_cast<double>(i % 7) - 0.5;
        QtsMatrix qm(hc.mem, a);
        const std::vector<double> y = qm.spmv(x), ref = a.multiply(x);
        ASSERT_EQ(y.size(), ref.size());
        for (std::size_t i = 0; i < y.size(); ++i)
            ASSERT_NEAR(y[i], ref[i], 1e-9) << "row " << i;

        server::McStore store(hc);
        IteratorRegister it(hc.mem, hc.vsm);
        for (int i = 0; i < 48; ++i)
            store.set("key" + std::to_string(i), i,
                      std::string(16 + i, static_cast<char>('a' + i % 26)));
        for (int i = 0; i < 48; i += 2)
            ASSERT_TRUE(store.get(it, "key" + std::to_string(i)));
        for (int i = 0; i < 48; i += 3)
            ASSERT_TRUE(store.erase("key" + std::to_string(i)));
        for (int i = 0; i < 48; i += 5)
            store.get(it, "key" + std::to_string(i));
    }

    const auto s = hc.mem.metrics().snapshot();
    const struct {
        const char *name;
        std::uint64_t value;
    } kPinned[] = {
        {"dram.read", 1610},
        {"dram.write", 186},
        {"dram.lookup", 4986},
        {"dram.dealloc", 4055},
        {"dram.refcount", 5872},
        {"cache.l1.hits", 3891},
        {"cache.l1.misses", 4023},
        {"cache.l2.hits", 5963},
        {"cache.l2.misses", 13540},
        {"row_activations", 4807},
    };
    for (const auto &p : kPinned)
        EXPECT_EQ(s.counter(p.name), p.value) << p.name;
    expectCleanAudit(hc);
}

} // namespace
} // namespace hicamp
