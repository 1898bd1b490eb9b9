/**
 * @file
 * The HICAMP cache of paper Fig. 3: a set-associative cache supporting
 * both read-by-PLID and lookup-by-content. The key structural property
 * is that every main-memory hash bucket maps to exactly one cache set
 * (the set index is a subset of the content-hash bits carried in the
 * PLID), so a content lookup needs to search only one set.
 *
 * Besides data lines the cache also holds signature lines and
 * reference-count lines (one of each per bucket) and transient
 * (non-deduplicated) lines, so that the protocol traffic of lookups,
 * refcounting and iterator writes is filtered by the cache exactly as
 * in the paper's model.
 */

#ifndef HICAMP_MEM_HICAMP_CACHE_HH
#define HICAMP_MEM_HICAMP_CACHE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/line.hh"

#include "common/stats.hh"
#include "common/thread_annotations.hh"
#include "common/types.hh"
#include "mem/dram_stats.hh"

namespace hicamp {

/** What a cached line holds. */
enum class LineKind : std::uint8_t {
    Data = 0,   ///< an immutable content-unique line, keyed by PLID
    Sig,        ///< a bucket's signature line, keyed by bucket number
    Rc,         ///< a bucket's reference-count line, keyed by bucket
    Transient,  ///< a mutable per-core transient line, keyed by address
};

/** Cache tag: kind plus kind-specific id. */
struct CacheKey {
    LineKind kind;
    std::uint64_t id;

    friend bool
    operator==(const CacheKey &a, const CacheKey &b)
    {
        return a.kind == b.kind && a.id == b.id;
    }
};

/**
 * One level of the HICAMP cache. Data entries keep a copy of their
 * line content so lookup-by-content can match in-cache lines without a
 * memory access.
 *
 * Thread-safe: sets are guarded by an array of striped spinlocks (a
 * set maps to one lock; distinct sets mostly take distinct locks), so
 * accesses to different sets — like lookups in different memory
 * buckets — proceed in parallel. Hit/miss tallies are sharded. LRU
 * stamps are per set: each access stamps its entry with the set's
 * highest stamp plus one, under the set's lock, so recency is ordered
 * within a set (all that victim selection compares) without any
 * cache-wide clock. These are leaf locks in the memory system's lock
 * order (DESIGN.md §7): no other lock is ever acquired while one is
 * held.
 */
class HicampCache
{
  public:
    /**
     * @param size_bytes  capacity
     * @param ways        associativity
     * @param line_bytes  line size (16/32/64)
     * @param content_searchable retain line content for content lookups
     */
    HicampCache(std::uint64_t size_bytes, unsigned ways,
                unsigned line_bytes, bool content_searchable);

    struct Access {
        bool hit;
        /// category of the dirty victim's writeback, if any
        std::optional<DramCat> writeback;
        /// identity of the dirty victim (for L1 -> L2 writebacks)
        CacheKey victimKey{LineKind::Data, 0};
        std::uint64_t victimHome = 0;
    };

    /**
     * Probe-and-fill. @p home supplies the set-index bits: the home
     * bucket for Data/Sig/Rc lines, the line address for transients.
     * @p dirty marks the (inserted or hit) entry dirty; @p wb_cat is
     * the DRAM category its eventual writeback belongs to.
     * @p content is retained for Data entries when content-searchable.
     */
    Access access(const CacheKey &key, std::uint64_t home, bool dirty,
                  DramCat wb_cat, const Line *content = nullptr)
        HICAMP_EXCLUDES(locks_);

    /**
     * Lookup-by-content: search the single set identified by
     * @p content_hash for a Data entry matching @p content.
     * Returns the matching PLID, or nullopt.
     */
    std::optional<Plid> lookupContent(const Line &content,
                                      std::uint64_t content_hash) const
        HICAMP_EXCLUDES(locks_);

    /**
     * Drop an entry (e.g. on deallocation-invalidate). Returns true if
     * the entry was present and dirty (its writeback is cancelled).
     */
    bool invalidate(const CacheKey &key, std::uint64_t home)
        HICAMP_EXCLUDES(locks_);

    bool contains(const CacheKey &key, std::uint64_t home) const
        HICAMP_EXCLUDES(locks_);

    /** Clear all dirty bits (writebacks completed out-of-band). */
    void cleanAll() HICAMP_EXCLUDES(locks_);

    /** Drop every entry (cold-start a measurement). */
    void invalidateAll() HICAMP_EXCLUDES(locks_);

    std::uint64_t numSets() const { return numSets_; }

    // hicamp-lint: stat-ok(registered as cache.l1.* / cache.l2.* into
    // the owning Memory's registry by Memory::registerMetrics())
    ShardedCounter hits;
    ShardedCounter misses;

  private:
    struct Entry {
        CacheKey key{LineKind::Data, 0};
        std::uint64_t home = 0;
        /// recency within the set: higher is more recent
        std::uint64_t lru = 0;
        bool valid = false;
        bool dirty = false;
        bool hasContent = false; ///< content_ holds this entry's line
        DramCat wbCat = DramCat::Write;
    };

    /**
     * RAII guard over the spinlock covering @p set (§7 rank 4, leaf:
     * co-acquires the leaf anchor, so taking any other memory-system
     * lock under it is a lock-order error).
     */
    class HICAMP_SCOPED_CAPABILITY SetGuard
    {
      public:
        SetGuard(const HicampCache &c, std::uint64_t set)
            HICAMP_ACQUIRE(c.locks_, lockrank::leaf)
            : bank_(c.locks_),
              idx_(static_cast<unsigned>(set & (kLockStripes - 1)))
        {
            bank_.lock(idx_);
        }
        ~SetGuard() HICAMP_RELEASE() { bank_.unlock(idx_); }
        SetGuard(const SetGuard &) = delete;
        SetGuard &operator=(const SetGuard &) = delete;

      private:
        SpinBank &bank_;
        unsigned idx_;
    };

    static constexpr unsigned kLockStripes = 256; // power of two

    std::uint64_t setIndex(std::uint64_t home) const
    {
        return home & (numSets_ - 1);
    }

    /** Keep @p content as entry @p e's searchable copy (Data lines
     *  in a content-searchable cache only). */
    void retainContent(Entry &e, const Line *content)
        HICAMP_REQUIRES(locks_);

    unsigned ways_;
    std::uint64_t numSets_;
    bool searchable_;
    std::vector<Entry> entries_ HICAMP_GUARDED_BY(locks_);
    /// each set's highest LRU stamp (that of its latest access)
    std::vector<std::uint64_t> newest_ HICAMP_GUARDED_BY(locks_);
    /// line content parallel to entries_; allocated only when
    /// content-searchable, so a read-only L1 carries no line copies
    std::vector<Line> content_ HICAMP_GUARDED_BY(locks_);
    mutable SpinBank locks_;
};

} // namespace hicamp

#endif // HICAMP_MEM_HICAMP_CACHE_HH
