/**
 * @file
 * DRAM traffic accounting for the HICAMP memory system, split into the
 * categories of paper Figure 6: data reads, writebacks, lookup traffic
 * (signature line reads/updates plus data line reads/writes performed
 * by lookup-by-content), deallocation traffic and reference-count
 * traffic.
 */

#ifndef HICAMP_MEM_DRAM_STATS_HH
#define HICAMP_MEM_DRAM_STATS_HH

#include <atomic>
#include <cstdint>

#include "common/atomic_annotations.hh"
#include "common/logging.hh"

#include "common/stats.hh"

namespace hicamp {

/** Category a DRAM access is attributed to (Fig. 6 stack). */
enum class DramCat : std::uint8_t {
    Read = 0,    ///< data line read (cache miss on read-by-PLID)
    Write,       ///< writeback of mutable state (transient, segment map)
    Lookup,      ///< signature reads/updates + data traffic of lookups
    Dealloc,     ///< signature clears + line reads during deallocation
    RefCount,    ///< reference-count line reads/writebacks
    NumCats
};

/**
 * Per-category DRAM access counters. Counted concurrently from every
 * thread driving the memory system, so each category is a sharded
 * (cache-line-striped, relaxed-atomic) tally.
 *
 * Quiescent-point contract (DESIGN.md §9): get()/total() sum the
 * stripes with relaxed loads, so a read concurrent with writers can
 * tear across categories — e.g. a lookup's DRAM access landing after
 * total() passed its stripe but before it passed the RC stripe.
 * Totals are therefore only *exact* when no memory operation is in
 * flight (end of phase, after joins), which is when benches and tests
 * read them. Debug builds enforce the contract: Memory's public
 * mutating ops hold a WriterScope, and get()/total() assert that no
 * writer is registered instead of silently returning mid-flight
 * values.
 */
class DramStats
{
  public:
    /**
     * Registered-writer epoch mark: Memory's public ops hold one for
     * their duration so debug builds can detect counter reads that
     * race an in-flight operation. Compiled to nothing under NDEBUG.
     */
    class WriterScope
    {
      public:
#ifndef NDEBUG
        explicit WriterScope(const DramStats &s) : s_(&s)
        {
            // hicamp-atomic: waive(scope-open mark only; the release
            // decrement is the publication quiescent()'s acquire
            // pairs with, and an open that races the quiescence check
            // is invisible to it at any order)
            s_->writers_.fetch_add(1, std::memory_order_relaxed);
        }
        ~WriterScope()
        {
            s_->writers_.fetch_sub(1, std::memory_order_release);
        }
#else
        explicit WriterScope(const DramStats &s) { (void)s; }
#endif
        WriterScope(const WriterScope &) = delete;
        WriterScope &operator=(const WriterScope &) = delete;

      private:
#ifndef NDEBUG
        const DramStats *s_;
#endif
    };

    /** True when no registered writer (memory op) is in flight. */
    bool
    quiescent() const
    {
        return writers_.load(std::memory_order_acquire) == 0;
    }

    void
    count(DramCat cat, std::uint64_t n = 1)
    {
        counts_[static_cast<unsigned>(cat)] += n;
    }

    std::uint64_t
    get(DramCat cat) const
    {
        HICAMP_DEBUG_ASSERT(quiescent(),
                            "DramStats read while a memory op is in "
                            "flight: counters are only exact at "
                            "quiescent points");
        return counts_[static_cast<unsigned>(cat)].value();
    }

    /**
     * get() without the quiescence check: the metrics registry's
     * reading, which may run while memory ops are in flight (a live
     * server's `stats`). Monotone, exact only at quiescent points.
     */
    std::uint64_t
    sample(DramCat cat) const
    {
        return counts_[static_cast<unsigned>(cat)].value();
    }

    std::uint64_t reads() const { return get(DramCat::Read); }
    std::uint64_t writes() const { return get(DramCat::Write); }
    std::uint64_t lookups() const { return get(DramCat::Lookup); }
    std::uint64_t deallocs() const { return get(DramCat::Dealloc); }
    std::uint64_t refcounts() const { return get(DramCat::RefCount); }

    std::uint64_t
    total() const
    {
        HICAMP_DEBUG_ASSERT(quiescent(),
                            "DramStats read while a memory op is in "
                            "flight: counters are only exact at "
                            "quiescent points");
        std::uint64_t t = 0;
        for (const auto &c : counts_)
            t += c.value();
        return t;
    }

    void
    reset()
    {
        for (auto &c : counts_)
            c.reset();
    }

    void
    resetCat(DramCat cat)
    {
        counts_[static_cast<unsigned>(cat)].reset();
    }

  private:
    // hicamp-lint: stat-ok(absorbed into the registry by Memory's
    // constructor — dram.<category> entries)
    ShardedCounter counts_[static_cast<unsigned>(DramCat::NumCats)];
    /// in-flight WriterScope holders (debug contract check only)
    HICAMP_ATOMIC_PUBLISH mutable std::atomic<std::uint64_t> writers_{0};
};

} // namespace hicamp

#endif // HICAMP_MEM_DRAM_STATS_HH
