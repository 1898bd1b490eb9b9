#include "mem/hicamp_cache.hh"

#include <bit>

#include "common/logging.hh"
#include "obs/trace.hh"

namespace hicamp {

HicampCache::HicampCache(std::uint64_t size_bytes, unsigned ways,
                         unsigned line_bytes, bool content_searchable)
    : ways_(ways), numSets_(size_bytes / (line_bytes * ways)),
      searchable_(content_searchable), entries_(numSets_ * ways_),
      newest_(numSets_),
      content_(content_searchable ? numSets_ * ways_ : 0),
      locks_(kLockStripes)
{
    HICAMP_ASSERT(numSets_ > 0 && std::has_single_bit(numSets_),
                  "cache set count must be a power of two");
}

void
HicampCache::retainContent(Entry &e, const Line *content)
{
    if (content && searchable_) {
        content_[static_cast<std::size_t>(&e - entries_.data())] =
            *content;
        e.hasContent = true;
    }
}

HicampCache::Access
HicampCache::access(const CacheKey &key, std::uint64_t home, bool dirty,
                    DramCat wb_cat, const Line *content)
{
    const std::uint64_t set = setIndex(home);
    SetGuard g(*this, set);
    // Stamps only order accesses within this set, which is all the
    // victim choice below compares, so the set's highest stamp plus
    // one orders this access exactly as a cache-wide clock would.
    const std::uint64_t stamp = ++newest_[set];
    Entry *base = &entries_[set * ways_];
    Entry *victim = base;
    for (unsigned w = 0; w < ways_; ++w) {
        Entry &e = base[w];
        if (e.valid && e.key == key) {
            e.lru = stamp;
            if (dirty) {
                e.dirty = true;
                e.wbCat = wb_cat;
            }
            retainContent(e, content);
            ++hits;
            HICAMP_TRACE_EVENT(Cache, CacheHit, key.id, 0);
            return {true, std::nullopt};
        }
        if (!e.valid) {
            victim = &e;
        } else if (victim->valid && e.lru < victim->lru) {
            victim = &e;
        }
    }
    ++misses;
    HICAMP_TRACE_EVENT(Cache, CacheMiss, key.id, 0);
    Access result{false, std::nullopt};
    if (victim->valid && victim->dirty) {
        result.writeback = victim->wbCat;
        result.victimKey = victim->key;
        result.victimHome = victim->home;
    }
    victim->valid = true;
    victim->dirty = dirty;
    victim->key = key;
    victim->home = home;
    victim->lru = stamp;
    victim->wbCat = wb_cat;
    victim->hasContent = false;
    retainContent(*victim, content);
    return result;
}

std::optional<Plid>
HicampCache::lookupContent(const Line &content,
                           std::uint64_t content_hash) const
{
    if (!searchable_)
        return std::nullopt;
    const std::uint64_t set = setIndex(content_hash);
    SetGuard g(*this, set);
    const std::size_t base = set * ways_;
    for (unsigned w = 0; w < ways_; ++w) {
        const Entry &e = entries_[base + w];
        if (e.valid && e.key.kind == LineKind::Data && e.hasContent &&
            content_[base + w] == content) {
            return e.key.id;
        }
    }
    return std::nullopt;
}

bool
HicampCache::invalidate(const CacheKey &key, std::uint64_t home)
{
    const std::uint64_t set = setIndex(home);
    SetGuard g(*this, set);
    Entry *base = &entries_[set * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
        Entry &e = base[w];
        if (e.valid && e.key == key) {
            bool dirty = e.dirty;
            e.valid = false;
            e.dirty = false;
            e.hasContent = false;
            return dirty;
        }
    }
    return false;
}

bool
HicampCache::contains(const CacheKey &key, std::uint64_t home) const
{
    const std::uint64_t set = setIndex(home);
    SetGuard g(*this, set);
    const Entry *base = &entries_[set * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
        if (base[w].valid && base[w].key == key)
            return true;
    }
    return false;
}

void
HicampCache::cleanAll()
{
    for (std::uint64_t set = 0; set < numSets_; ++set) {
        SetGuard g(*this, set);
        Entry *base = &entries_[set * ways_];
        for (unsigned w = 0; w < ways_; ++w)
            base[w].dirty = false;
    }
}

void
HicampCache::invalidateAll()
{
    for (std::uint64_t set = 0; set < numSets_; ++set) {
        SetGuard g(*this, set);
        Entry *base = &entries_[set * ways_];
        for (unsigned w = 0; w < ways_; ++w) {
            base[w].valid = false;
            base[w].dirty = false;
            base[w].hasContent = false;
        }
    }
}

} // namespace hicamp
