#include "mem/line_store.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "obs/trace.hh"

namespace hicamp {

namespace {

Plid
plidOf(std::uint64_t bucket, unsigned data_way)
{
    return (bucket << BucketLayout::kWayBits) |
           (BucketLayout::kFirstData + data_way);
}

unsigned
clampStripes(unsigned stripes, std::uint64_t num_buckets)
{
    // One stripe minimum, never more stripes than buckets, and at
    // most 2^16 so a stripe number fits the overflow PLID field.
    std::uint64_t s = std::min<std::uint64_t>(
        stripes ? stripes : 1,
        std::min<std::uint64_t>(num_buckets, std::uint64_t{1} << 16));
    return static_cast<unsigned>(std::bit_floor(s));
}

} // namespace

LineStore::LineStore(std::uint64_t num_buckets, unsigned line_words)
    : LineStore(num_buckets, line_words, Limits{})
{
}

LineStore::LineStore(std::uint64_t num_buckets, unsigned line_words,
                     const Limits &limits, unsigned stripes)
    : numBuckets_(num_buckets), lineWords_(line_words), limits_(limits),
      numStripes_(clampStripes(stripes, num_buckets)),
      stripes_(numStripes_),
      words_(num_buckets * BucketLayout::kNumData * line_words, 0),
      metas_(num_buckets * BucketLayout::kNumData * line_words, 0),
      sigs_(num_buckets * BucketLayout::kNumData, 0),
      refs_(num_buckets * BucketLayout::kNumData),
      liveMask_(num_buckets), limboMask_(num_buckets),
      overflow_(numStripes_),
      lockExcl_(numStripes_), lockShared_(numStripes_)
{
    HICAMP_ASSERT(std::has_single_bit(num_buckets),
                  "bucket count must be a power of two");
    HICAMP_ASSERT(line_words == 2 || line_words == 4 || line_words == 8,
                  "line width must be 2, 4 or 8 words");
    HICAMP_ASSERT(limits.refcountBits >= 2 && limits.refcountBits <= 32,
                  "refcount width must be 2..32 bits");
    refMax_ = limits.refcountBits == 32
                  ? ~std::uint32_t{0}
                  : (std::uint32_t{1} << limits.refcountBits) - 1;
}

LineStore::~LineStore()
{
    // Deferred frees dereference this object's arrays: run every
    // limbo entry before any member is destroyed. No concurrent
    // readers may exist here (destruction races nothing).
    epoch_.drainAllUnsafe();
}

const LineStore::OverflowEntry *
LineStore::overflowEntryAcquire(unsigned stripe, std::uint64_t idx) const
{
    if (stripe >= numStripes_)
        return nullptr;
    const OverflowShard &shard = overflow_[stripe];
    // Acquire on the published size and the chunk-directory slot:
    // pairs with the release stores in overflowAllocSlot, so a
    // published index always sees a constructed chunk.
    if (idx >= shard.size.load(std::memory_order_acquire))
        return nullptr;
    OverflowEntry *chunk =
        shard.chunks[idx >> OverflowShard::kChunkShift].load(
            std::memory_order_acquire);
    if (chunk == nullptr)
        return nullptr;
    return &chunk[idx & (OverflowShard::kChunkSize - 1)];
}

LineStore::OverflowEntry &
LineStore::overflowEntryAt(unsigned stripe, std::uint64_t idx) const
{
    OverflowEntry *e = const_cast<LineStore *>(this)
                           ->overflowEntryAcquire(stripe, idx);
    HICAMP_DEBUG_ASSERT(e != nullptr, "malformed overflow PLID");
    return *e;
}

std::uint64_t
LineStore::overflowAllocSlot(OverflowShard &shard)
{
    if (!shard.freeList.empty()) {
        const std::uint64_t idx = shard.freeList.back();
        shard.freeList.pop_back();
        return idx;
    }
    // hicamp-atomic: waive(exclusive stripe lock: all size/chunk
    // writers hold it, so the re-reads below cannot race a growth)
    const std::uint64_t idx = shard.size.load(std::memory_order_relaxed);
    const std::uint64_t ci = idx >> OverflowShard::kChunkShift;
    HICAMP_ASSERT(ci < OverflowShard::kMaxChunks,
                  "overflow shard slab exhausted");
    // hicamp-atomic: waive(exclusive stripe lock, as above)
    if (shard.chunks[ci].load(std::memory_order_relaxed) == nullptr) {
        // Construct the whole chunk before publishing its pointer;
        // the release pairs with readers' acquire directory loads.
        shard.chunks[ci].store(new OverflowEntry[OverflowShard::kChunkSize],
                               std::memory_order_release);
    }
    shard.size.store(idx + 1, std::memory_order_release);
    return idx;
}

std::uint64_t
LineStore::bucketOfPlid(Plid plid) const
{
    if (isOverflow(plid)) {
        const unsigned stripe = overflowStripe(plid);
        HICAMP_DEBUG_ASSERT(stripe < numStripes_, "malformed PLID");
        // Lock-free (§12): homeBucket is written once before the
        // entry is published and rewritten only when the slot
        // recycles through the free list — which the caller's
        // reference (or the grace period, for limbo lines) excludes
        // for the duration of the guard.
        EpochGuard eg(epoch_);
        const OverflowEntry *e =
            overflowEntryAcquire(stripe, overflowIdx(plid));
        HICAMP_DEBUG_ASSERT(e != nullptr, "malformed overflow PLID");
        return e->homeBucket;
    }
    return plid >> BucketLayout::kWayBits;
}

std::uint64_t
LineStore::slotOf(Plid plid) const
{
    std::uint64_t bucket = plid >> BucketLayout::kWayBits;
    unsigned way = static_cast<unsigned>(plid & (BucketLayout::kWays - 1));
    HICAMP_DEBUG_ASSERT(
        bucket < numBuckets_ && way >= BucketLayout::kFirstData &&
            way < BucketLayout::kFirstData + BucketLayout::kNumData,
        "malformed PLID");
    return bucket * BucketLayout::kNumData +
           (way - BucketLayout::kFirstData);
}

void
LineStore::setSlotLive(std::uint64_t slot, bool live)
{
    std::uint64_t bucket = slot / BucketLayout::kNumData;
    unsigned bit = static_cast<unsigned>(slot % BucketLayout::kNumData);
    // Release: publishing the bit is what makes a freshly written
    // line visible to lock-free readers, so the content stores must
    // not sink below it.
    if (live) {
        liveMask_[bucket].fetch_or(static_cast<std::uint16_t>(1u << bit),
                                   std::memory_order_release);
    } else {
        liveMask_[bucket].fetch_and(
            static_cast<std::uint16_t>(~(1u << bit)),
            std::memory_order_release);
    }
}

void
LineStore::setSlotLimbo(std::uint64_t slot, bool limbo)
{
    std::uint64_t bucket = slot / BucketLayout::kNumData;
    unsigned bit = static_cast<unsigned>(slot % BucketLayout::kNumData);
    // Relaxed on purpose: the limbo bit itself is never the
    // synchronization edge. A lock-free reader only consults it
    // after its acquire load of liveMask_ observed the release
    // clear that retire() sequences *after* setting limbo, so the
    // set bit is already visible by happens-before; every other
    // access (allocator scan, grace-expiry free) holds the stripe
    // lock. The liveMask_ release/acquire pair in setSlotLive /
    // slotLive carries the ordering for both masks.
    if (limbo) {
        // hicamp-atomic: waive(ordering carried by liveMask_: retire
        // sets limbo before the release clear of live, and readers
        // check limbo only after acquiring live — see comment above)
        limboMask_[bucket].fetch_or(
            static_cast<std::uint16_t>(1u << bit),
            std::memory_order_relaxed);
    } else {
        // hicamp-atomic: waive(stripe-lock-serialized: limbo is
        // cleared only by grace-expiry frees under the exclusive
        // stripe lock, after no lock-free reader can hold the PLID)
        limboMask_[bucket].fetch_and(
            static_cast<std::uint16_t>(~(1u << bit)),
            std::memory_order_relaxed);
    }
}

bool
LineStore::slotEquals(std::uint64_t slot, const Line &content) const
{
    const Word *w = &words_[slot * lineWords_];
    const std::uint16_t *m = &metas_[slot * lineWords_];
    for (unsigned i = 0; i < lineWords_; ++i) {
        if (w[i] != content.word(i) || m[i] != content.meta(i).value())
            return false;
    }
    return true;
}

Line
LineStore::materialize(std::uint64_t slot) const
{
    Line l(lineWords_);
    const Word *w = &words_[slot * lineWords_];
    const std::uint16_t *m = &metas_[slot * lineWords_];
    for (unsigned i = 0; i < lineWords_; ++i)
        l.set(i, w[i], WordMeta(m[i]));
    return l;
}

LineStore::FindResult
LineStore::findImpl(const Line &content, std::uint64_t hash) const
{
    FindResult r;
    const std::uint64_t b = bucketOf(hash);
    const std::uint8_t sig = signatureOfHash(hash);
    const std::uint64_t base = b * BucketLayout::kNumData;
    for (unsigned w = 0; w < BucketLayout::kNumData; ++w) {
        const std::uint64_t slot = base + w;
        if (!slotLive(slot) || sigs_[slot] != sig)
            continue;
        r.candidates.push_back(plidOf(b, w));
        r.candidateLines.push_back(materialize(slot));
        if (slotEquals(slot, content)) {
            r.plid = r.candidates.back();
            r.found = true;
            return r;
        }
    }
    const unsigned stripe = stripeOfBucket(b);
    const OverflowShard &shard = overflow_[stripe];
    auto [lo, hi] = shard.index.equal_range(hash);
    for (auto it = lo; it != hi; ++it) {
        const OverflowEntry &e = overflowEntryAt(stripe, it->second);
        // hicamp-atomic: waive(caller holds the stripe lock (REQUIRES
        // above); live flips only under the exclusive lock)
        if (e.live.load(std::memory_order_relaxed) && e.line == content) {
            r.plid = overflowPlid(stripe, it->second);
            r.found = true;
            r.overflow = true;
            return r;
        }
    }
    return r;
}

LineStore::FindResult
LineStore::probeHome(const Line &content, std::uint64_t hash) const
{
    HICAMP_DEBUG_ASSERT(epoch_.activeOnThisThread(),
                        "lock-free probe outside an epoch guard");
    FindResult r;
    const std::uint64_t b = bucketOf(hash);
    const std::uint8_t sig = signatureOfHash(hash);
    const std::uint64_t base = b * BucketLayout::kNumData;
    for (unsigned w = 0; w < BucketLayout::kNumData; ++w) {
        const std::uint64_t slot = base + w;
        // The acquire load of the occupancy bit orders the slot's
        // content stores (publication) before our reads; the epoch
        // guard keeps the storage from being recycled between this
        // check and the materialize (§12).
        if (!slotLive(slot) || sigs_[slot] != sig)
            continue;
        r.candidates.push_back(plidOf(b, w));
        r.candidateLines.push_back(materialize(slot));
        if (slotEquals(slot, content)) {
            r.plid = r.candidates.back();
            r.found = true;
            return r;
        }
    }
    return r;
}

LineStore::FindResult
LineStore::find(const Line &content) const
{
    HICAMP_ASSERT(content.size() == lineWords_, "line width mismatch");
    HICAMP_ASSERT(!content.isZero(), "zero line is implicit (PLID 0)");
    const std::uint64_t hash = content.contentHash();
    const unsigned stripe = stripeOfBucket(bucketOf(hash));
    {
        // Lock-free probe (§12): a home-bucket hit — the hot case —
        // returns without touching the stripe. The guard must close
        // before the locked fallback (§7 rank order).
        EpochGuard eg(epoch_);
        FindResult r = probeHome(content, hash);
        if (r.found)
            return r;
    }
    // Miss (or possible overflow resident): the overflow hash chain
    // lives behind the stripe lock.
    noteShared(stripe);
    StripeShared g(stripes_, stripe);
    return findImpl(content, hash);
}

HICAMP_REF_PRIMITIVE LineStore::FindResult
LineStore::findOrInsert(const Line &content, bool take_ref)
{
    HICAMP_ASSERT(content.size() == lineWords_, "line width mismatch");
    HICAMP_ASSERT(!content.isZero(), "zero line is implicit (PLID 0)");
    const std::uint64_t hash = content.contentHash();
    const std::uint64_t b = bucketOf(hash);
    const unsigned stripe = stripeOfBucket(b);

    {
        // Lock-free probe phase (§12, ck_hs style): the dedup hit —
        // the hot path — completes with zero locks. The guard scope
        // closes before the locked fallback below (§7: a stripe may
        // not be acquired inside an epoch section).
        EpochGuard eg(epoch_);
        FindResult r = probeHome(content, hash);
        if (r.found) {
            if (!take_ref)
                return r;
            // tryAcquireRef refuses a zero count, so this can never
            // resurrect a dying line from outside the lock: success
            // means some holder kept the count nonzero, and retire()
            // re-checks the count under the stripe before it would
            // unpublish.
            if (tryAcquireRef(refs_[slotOf(r.plid)]))
                return r;
            // Count observed at zero: the line is being retired.
            // Fall through to the locked path, which serializes
            // against retire() and may legitimately resurrect it.
        }
    }

    for (unsigned attempt = 0;; ++attempt) {
        {
            noteExcl(stripe);
            StripeExclusive g(stripes_, stripe);

            FindResult r = findImpl(content, hash);
            if (r.found) {
                // Dedup hit. Taking the reference inside the bucket's
                // critical section is what lets a hit on a dying
                // (count 0) line resurrect it safely: retire()
                // serializes on the same stripe lock and re-checks
                // the count.
                if (take_ref) {
                    if (r.overflow) {
                        adjustRef(overflowEntryAt(stripe,
                                                  overflowIdx(r.plid))
                                      .refs,
                                  +1);
                    } else {
                        adjustRef(refs_[slotOf(r.plid)], +1);
                    }
                }
                return r;
            }

            if (!tryReserveLine()) {
                r.status = MemStatus::OutOfMemory;
                return r;
            }

            const std::uint8_t sig = signatureOfHash(hash);
            const std::uint64_t base = b * BucketLayout::kNumData;
            // A way is allocatable only if it is neither live nor
            // parked in limbo — limbo storage must stay intact for
            // readers whose guard predates its retirement (§12).
            // hicamp-atomic: waive(exclusive stripe lock serializes
            // the occupancy scan with every mask writer)
            const std::uint16_t occupied =
                liveMask_[b].load(std::memory_order_relaxed) |
                limboMask_[b].load(std::memory_order_relaxed);
            if (occupied != (1u << BucketLayout::kNumData) - 1) {
                for (unsigned w = 0; w < BucketLayout::kNumData; ++w) {
                    if ((occupied >> w) & 1)
                        continue;
                    const std::uint64_t slot = base + w;
                    Word *dst = &words_[slot * lineWords_];
                    std::uint16_t *dm = &metas_[slot * lineWords_];
                    for (unsigned i = 0; i < lineWords_; ++i) {
                        dst[i] = content.word(i);
                        dm[i] = content.meta(i).value();
                    }
                    sigs_[slot] = sig;
                    refs_[slot].store(take_ref ? 1 : 0,
                                      std::memory_order_relaxed);
                    // Publication point: release-store of the
                    // occupancy bit makes the content above visible
                    // to lock-free readers.
                    setSlotLive(slot, true);
                    r.plid = plidOf(b, w);
                    HICAMP_TRACE_EVENT(Store, Publish, r.plid,
                                       lineWords_ * sizeof(Word));
                    return r;
                }
            }

            // Home bucket full. When limbo ways are what blocks the
            // insert and we have not flushed yet, drop the lock,
            // synchronize the epoch and retry once: with no pinned
            // reader this reuses a freed way instead of spilling to
            // overflow.
            // hicamp-atomic: waive(exclusive stripe lock, as the
            // occupancy scan above)
            if (attempt != 0 ||
                limboMask_[b].load(std::memory_order_relaxed) == 0) {
                // Spill to this stripe's overflow shard, if the
                // finite capacity model still has room.
                if (!tryReserveOverflow()) {
                    liveLines_.fetch_sub(1, std::memory_order_relaxed);
                    r.status = MemStatus::OutOfMemory;
                    return r;
                }
                OverflowShard &shard = overflow_[stripe];
                const std::uint64_t idx = overflowAllocSlot(shard);
                OverflowEntry &e = overflowEntryAt(stripe, idx);
                e.line = content;
                e.homeBucket = b;
                e.hash = hash;
                e.refs.store(take_ref ? 1 : 0,
                             std::memory_order_relaxed);
                // hicamp-atomic: waive(ordered by the release publication of
                // // live on the next line)
                e.limbo.store(false, std::memory_order_relaxed);
                e.live.store(true, std::memory_order_release);
                shard.index.emplace(hash, idx);
                r.plid = overflowPlid(stripe, idx);
                r.overflow = true;
                HICAMP_TRACE_EVENT(Store, OverflowAlloc, r.plid,
                                   lineWords_ * sizeof(Word));
                return r;
            }
            // Give the reservation back while we retry unlocked.
            liveLines_.fetch_sub(1, std::memory_order_relaxed);
        }
        epoch_.synchronize();
    }
}

Line
LineStore::read(Plid plid) const
{
    if (plid == kZeroPlid)
        return Line(lineWords_);
    if (isOverflow(plid)) {
        const unsigned stripe = overflowStripe(plid);
        HICAMP_DEBUG_ASSERT(stripe < numStripes_, "malformed PLID");
        // Lock-free: the guard keeps the entry's storage from being
        // recycled while we copy it. A line the caller held a
        // reference to (or saw live inside this same guard) is at
        // worst in limbo — content still intact.
        EpochGuard eg(epoch_);
        const OverflowEntry *e =
            overflowEntryAcquire(stripe, overflowIdx(plid));
        HICAMP_DEBUG_ASSERT(
            e != nullptr && (e->live.load(std::memory_order_acquire) ||
                             e->limbo.load(std::memory_order_acquire)),
            "read of dead overflow line");
        return e->line;
    }
    // Home-bucket lines are immutable once published, so this path is
    // lock-free: the acquire load of the occupancy bit pairs with the
    // release in setSlotLive, ordering the content stores before us.
    // The copy runs inside a guard so retire() parks (rather than
    // clears) the slot under us.
    const std::uint64_t slot = slotOf(plid);
    EpochGuard eg(epoch_);
    const bool ok = slotLive(slot) || slotLimbo(slot);
    HICAMP_DEBUG_ASSERT(ok, "read of unallocated PLID");
    (void)ok;
    return materialize(slot);
}

bool
LineStore::isLive(Plid plid) const
{
    if (plid == kZeroPlid)
        return true;
    if (isOverflow(plid)) {
        // Lock-free: the slab's chunk directory only grows and the
        // flag is atomic.
        const OverflowEntry *e =
            overflowEntryAcquire(overflowStripe(plid), overflowIdx(plid));
        return e != nullptr && e->live.load(std::memory_order_acquire);
    }
    std::uint64_t bucket = plid >> BucketLayout::kWayBits;
    unsigned way = static_cast<unsigned>(plid & (BucketLayout::kWays - 1));
    if (bucket >= numBuckets_ || way < BucketLayout::kFirstData ||
        way >= BucketLayout::kFirstData + BucketLayout::kNumData) {
        return false;
    }
    return slotLive(slotOf(plid));
}

std::uint32_t
LineStore::refCount(Plid plid) const
{
    if (plid == kZeroPlid)
        return 1; // the zero line is never reclaimed
    // A refcount snapshot is only meaningful as *stable storage*
    // inside an epoch section — outside one the slot could be
    // recycled mid-read. The value is advisory either way (holders
    // retain/release concurrently); only retire()'s stripe-locked
    // re-check may gate a free on it.
    EpochGuard eg(epoch_);
    if (isOverflow(plid)) {
        const OverflowEntry *e =
            overflowEntryAcquire(overflowStripe(plid), overflowIdx(plid));
        HICAMP_DEBUG_ASSERT(e != nullptr, "malformed PLID");
        return e != nullptr ? e->refs.load(std::memory_order_relaxed)
                            : 0;
    }
    return refs_[slotOf(plid)].load(std::memory_order_relaxed);
}

HICAMP_REF_PRIMITIVE std::uint32_t
LineStore::adjustRef(std::atomic<std::uint32_t> &r, std::int32_t delta)
{
    std::uint32_t cur = r.load(std::memory_order_relaxed);
    for (;;) {
        // Sticky saturation (§3.1): a count pinned at the ceiling no
        // longer tracks references, so neither direction moves it.
        if (cur == refMax_)
            return refMax_;
        if (delta < 0) {
            HICAMP_ASSERT(cur >= static_cast<std::uint32_t>(-delta),
                          "refcount underflow");
        }
        const std::uint64_t next64 = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(cur) + delta);
        const std::uint32_t next =
            next64 >= refMax_ ? refMax_
                              : static_cast<std::uint32_t>(next64);
        // acq_rel so a decrement observed at zero also orders every
        // earlier ref-holder's accesses before the eventual retire
        // (the shared_ptr discipline).
        if (r.compare_exchange_weak(cur, next,
                                    std::memory_order_acq_rel,
                                    std::memory_order_relaxed)) {
            if (next == refMax_)
                saturatedLines_.fetch_add(1, std::memory_order_relaxed);
            return next;
        }
    }
}

HICAMP_REF_PRIMITIVE bool
LineStore::tryAcquireRef(std::atomic<std::uint32_t> &r)
{
    std::uint32_t cur = r.load(std::memory_order_relaxed);
    for (;;) {
        if (cur == 0)
            return false;
        if (cur == refMax_)
            return true;
        if (r.compare_exchange_weak(cur, cur + 1,
                                    std::memory_order_acq_rel,
                                    std::memory_order_relaxed)) {
            if (cur + 1 == refMax_)
                saturatedLines_.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
    }
}

HICAMP_REF_PRIMITIVE std::uint32_t
LineStore::addRef(Plid plid, std::int32_t delta)
{
    HICAMP_DEBUG_ASSERT(plid != kZeroPlid, "refcounting the zero line");
    if (isOverflow(plid)) {
        // Lock-free: the caller holds a reference, which pins the
        // entry's identity (it cannot pass retire()'s zero check),
        // and the slab gives stable addresses without a lock.
        OverflowEntry *e =
            overflowEntryAcquire(overflowStripe(plid), overflowIdx(plid));
        // hicamp-atomic: waive(advisory debug check only; the held
        // // reference pins the entry's identity, no protocol
        // // decision is taken on this load)
        HICAMP_DEBUG_ASSERT(e != nullptr &&
                                e->live.load(std::memory_order_relaxed),
                            "refcount of dead overflow line");
        return adjustRef(e->refs, delta);
    }
    const std::uint64_t slot = slotOf(plid);
    HICAMP_DEBUG_ASSERT(slotLive(slot), "refcount of unallocated PLID");
    return adjustRef(refs_[slot], delta);
}

HICAMP_REF_PRIMITIVE bool
LineStore::incRefIfLive(Plid plid)
{
    if (plid == kZeroPlid)
        return true;
    if (isOverflow(plid)) {
        // Lock-free weak acquire. As with the home path, a PLID from
        // an unsynchronized channel may have been freed and its slot
        // reused by different content — a success only means *some*
        // live line is pinned, and the caller must re-verify content
        // (Memory::lookupImpl does; DESIGN.md §10).
        OverflowEntry *e =
            overflowEntryAcquire(overflowStripe(plid), overflowIdx(plid));
        if (e == nullptr || !e->live.load(std::memory_order_acquire))
            return false;
        return tryAcquireRef(e->refs);
    }
    std::uint64_t bucket = plid >> BucketLayout::kWayBits;
    unsigned way = static_cast<unsigned>(plid & (BucketLayout::kWays - 1));
    if (bucket >= numBuckets_ || way < BucketLayout::kFirstData ||
        way >= BucketLayout::kFirstData + BucketLayout::kNumData) {
        return false;
    }
    const std::uint64_t slot = slotOf(plid);
    if (!slotLive(slot)) // acquire
        return false;
    return tryAcquireRef(refs_[slot]);
}

HICAMP_REF_PRIMITIVE void
LineStore::saturateRefSlot(std::atomic<std::uint32_t> &r)
{
    std::uint32_t cur = r.load(std::memory_order_relaxed);
    while (cur != refMax_) {
        if (r.compare_exchange_weak(cur, refMax_,
                                    std::memory_order_acq_rel,
                                    std::memory_order_relaxed)) {
            saturatedLines_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
    }
}

HICAMP_REF_PRIMITIVE void
LineStore::saturateRef(Plid plid)
{
    HICAMP_DEBUG_ASSERT(plid != kZeroPlid, "refcounting the zero line");
    if (isOverflow(plid)) {
        OverflowEntry *e =
            overflowEntryAcquire(overflowStripe(plid), overflowIdx(plid));
        HICAMP_ASSERT(e != nullptr, "malformed PLID");
        saturateRefSlot(e->refs);
        return;
    }
    saturateRefSlot(refs_[slotOf(plid)]);
}

bool
LineStore::tryReserveLine()
{
    std::uint64_t cur = liveLines_.load(std::memory_order_relaxed);
    while (cur < limits_.maxLiveLines) {
        if (liveLines_.compare_exchange_weak(cur, cur + 1,
                                             std::memory_order_relaxed)) {
            return true;
        }
    }
    return false;
}

bool
LineStore::tryReserveOverflow()
{
    std::uint64_t cur = overflowLive_.load(std::memory_order_relaxed);
    while (cur < limits_.overflowCapacity) {
        if (overflowLive_.compare_exchange_weak(
                cur, cur + 1, std::memory_order_relaxed)) {
            return true;
        }
    }
    return false;
}

HICAMP_REF_PRIMITIVE std::optional<LineStore::Retired>
LineStore::retire(Plid plid)
{
    auto out = retireLocked(plid);
    // The batching step runs with no stripe lock held: a triggered
    // advance drains limbo, and those callbacks re-acquire stripes.
    if (out.has_value())
        epoch_.maybeAdvance();
    return out;
}

std::optional<LineStore::Retired>
LineStore::retireLocked(Plid plid)
{
    HICAMP_ASSERT(plid != kZeroPlid, "freeing the zero line");
    if (isOverflow(plid)) {
        const unsigned stripe = overflowStripe(plid);
        HICAMP_DEBUG_ASSERT(stripe < numStripes_, "malformed PLID");
        noteExcl(stripe);
        StripeExclusive g(stripes_, stripe);
        OverflowShard &shard = overflow_[stripe];
        const std::uint64_t idx = overflowIdx(plid);
        OverflowEntry &e = overflowEntryAt(stripe, idx);
        // A concurrent dedup hit may have resurrected the line (or
        // another thread already retired it) — both serialize here.
        // hicamp-atomic: waive(exclusive stripe lock serializes this
        // // re-check with resurrection and concurrent retire)
        if (!e.live.load(std::memory_order_relaxed) ||
            e.refs.load(std::memory_order_relaxed) != 0) {
            return std::nullopt;
        }
        Retired out{e.line, e.homeBucket, true};
        auto [lo, hi] = shard.index.equal_range(e.hash);
        for (auto it = lo; it != hi; ++it) {
            if (it->second == idx) {
                shard.index.erase(it);
                break;
            }
        }
        // Unpublish now; park the storage (§12). limbo is set before
        // live clears so a concurrent live-or-limbo check never sees
        // the transient neither state. The content stays intact for
        // readers already inside a guard; the deferred free clears it
        // and recycles the slot at grace expiry. Retirement consumes
        // the store's reference.
        e.limbo.store(true, std::memory_order_release);
        e.live.store(false, std::memory_order_release);
        limboLines_.fetch_add(1, std::memory_order_relaxed);
        epoch_.defer(&LineStore::limboFreeOverflowThunk, this, plid);
        overflowLive_.fetch_sub(1, std::memory_order_relaxed);
        const std::uint64_t prev =
            liveLines_.fetch_sub(1, std::memory_order_relaxed);
        HICAMP_ASSERT(prev > 0, "live line count underflow");
        HICAMP_TRACE_EVENT(Store, Retire, plid,
                           lineWords_ * sizeof(Word));
        return out;
    }
    const std::uint64_t bucket = plid >> BucketLayout::kWayBits;
    const unsigned stripe = stripeOfBucket(bucket);
    noteExcl(stripe);
    StripeExclusive g(stripes_, stripe);
    const std::uint64_t slot = slotOf(plid);
    if (!slotLive(slot) ||
        refs_[slot].load(std::memory_order_relaxed) != 0) {
        return std::nullopt;
    }
    Retired out{materialize(slot), bucket, false};
    // Unpublish now, park the way (§12): signature and content stay
    // intact for in-flight readers until grace expiry, and the
    // allocator skips limbo ways.
    setSlotLimbo(slot, true);
    setSlotLive(slot, false);
    limboLines_.fetch_add(1, std::memory_order_relaxed);
    epoch_.defer(&LineStore::limboFreeHomeThunk, this, slot);
    const std::uint64_t prev =
        liveLines_.fetch_sub(1, std::memory_order_relaxed);
    HICAMP_ASSERT(prev > 0, "live line count underflow");
    HICAMP_TRACE_EVENT(Store, Retire, plid, lineWords_ * sizeof(Word));
    return out;
}

void
LineStore::limboFreeHomeThunk(void *self, std::uint64_t slot)
{
    static_cast<LineStore *>(self)->limboFreeHome(slot);
}

void
LineStore::limboFreeOverflowThunk(void *self, std::uint64_t plid)
{
    static_cast<LineStore *>(self)->limboFreeOverflow(
        static_cast<Plid>(plid));
}

void
LineStore::limboFreeHome(std::uint64_t slot)
{
    const std::uint64_t bucket = slot / BucketLayout::kNumData;
    const unsigned stripe = stripeOfBucket(bucket);
    noteExcl(stripe);
    StripeExclusive g(stripes_, stripe);
    // A limbo way can be neither resurrected (it is unpublished and
    // its count is zero, which tryAcquireRef refuses) nor reused
    // (the allocator skips limbo bits), so it must still be exactly
    // as retire() left it.
    HICAMP_DEBUG_ASSERT(slotLimbo(slot) && !slotLive(slot),
                        "limbo home way mutated before grace expiry");
    sigs_[slot] = 0;
    Word *w = &words_[slot * lineWords_];
    std::uint16_t *m = &metas_[slot * lineWords_];
    for (unsigned i = 0; i < lineWords_; ++i) {
        w[i] = 0;
        m[i] = 0;
    }
    setSlotLimbo(slot, false);
    const std::uint64_t prev =
        limboLines_.fetch_sub(1, std::memory_order_relaxed);
    HICAMP_ASSERT(prev > 0, "limbo line count underflow");
}

void
LineStore::limboFreeOverflow(Plid plid)
{
    const unsigned stripe = overflowStripe(plid);
    const std::uint64_t idx = overflowIdx(plid);
    noteExcl(stripe);
    StripeExclusive g(stripes_, stripe);
    OverflowEntry &e = overflowEntryAt(stripe, idx);
    // hicamp-atomic: waive(exclusive stripe lock held, and grace
    // // expiry means no lock-free reader can hold this PLID)
    HICAMP_DEBUG_ASSERT(e.limbo.load(std::memory_order_relaxed) &&
                            !e.live.load(std::memory_order_relaxed),
                        "limbo overflow entry mutated before grace "
                        "expiry");
    e.line = Line(lineWords_);
    e.limbo.store(false, std::memory_order_release);
    overflow_[stripe].freeList.push_back(idx);
    const std::uint64_t prev =
        limboLines_.fetch_sub(1, std::memory_order_relaxed);
    HICAMP_ASSERT(prev > 0, "limbo line count underflow");
}

void
LineStore::forEachLimbo(const std::function<void(Plid)> &fn) const
{
    epoch_.forEachDeferred([&](EpochManager::DeferFn f, void *ctx,
                               std::uint64_t arg) {
        if (ctx != static_cast<const void *>(this))
            return;
        if (f == &LineStore::limboFreeHomeThunk) {
            const std::uint64_t bucket = arg / BucketLayout::kNumData;
            const unsigned way =
                static_cast<unsigned>(arg % BucketLayout::kNumData);
            fn(plidOf(bucket, way));
        } else if (f == &LineStore::limboFreeOverflowThunk) {
            fn(static_cast<Plid>(arg));
        }
    });
}

std::uint64_t
LineStore::stripeLockExclusiveOps() const
{
    std::uint64_t t = 0;
    for (unsigned s = 0; s < numStripes_; ++s)
        t += lockExcl_[s].load(std::memory_order_relaxed);
    return t;
}

std::uint64_t
LineStore::stripeLockSharedOps() const
{
    std::uint64_t t = 0;
    for (unsigned s = 0; s < numStripes_; ++s)
        t += lockShared_[s].load(std::memory_order_relaxed);
    return t;
}

HICAMP_REF_PRIMITIVE void
LineStore::freeLine(Plid plid)
{
    auto retired = retire(plid);
    HICAMP_ASSERT(retired.has_value(), "freeing a referenced line");
}

void
LineStore::corruptForTest(Plid plid, unsigned word_idx, Word xor_mask)
{
    HICAMP_ASSERT(!isOverflow(plid) && plid != kZeroPlid,
                  "corruptForTest targets home-bucket lines");
    const std::uint64_t bucket = plid >> BucketLayout::kWayBits;
    noteExcl(stripeOfBucket(bucket));
    StripeExclusive g(stripes_, stripeOfBucket(bucket));
    const std::uint64_t slot = slotOf(plid);
    HICAMP_ASSERT(slotLive(slot), "corrupting a dead line");
    words_[slot * lineWords_ + word_idx] ^= xor_mask;
}

void
LineStore::forEachLive(
    const std::function<void(Plid, const Line &, std::uint32_t)> &fn)
    const
{
    // Collect each bucket's lines under its stripe lock, then invoke
    // the callback unlocked so it may re-enter the store (auditors
    // chase overflow chains and home buckets from inside the scan).
    struct Item {
        Plid plid;
        Line line;
        std::uint32_t refs;
    };
    std::vector<Item> batch;
    for (std::uint64_t b = 0; b < numBuckets_; ++b) {
        batch.clear();
        {
            noteShared(stripeOfBucket(b));
            StripeShared g(stripes_, stripeOfBucket(b));
            // hicamp-atomic: waive(shared stripe lock held; mask writers
            // // hold the exclusive lock)
            if (liveMask_[b].load(std::memory_order_relaxed) == 0)
                continue;
            for (unsigned w = 0; w < BucketLayout::kNumData; ++w) {
                const std::uint64_t slot =
                    b * BucketLayout::kNumData + w;
                if (slotLive(slot)) {
                    batch.push_back(
                        {plidOf(b, w), materialize(slot),
                         refs_[slot].load(std::memory_order_relaxed)});
                }
            }
        }
        for (const Item &it : batch)
            fn(it.plid, it.line, it.refs);
    }
    for (unsigned s = 0; s < numStripes_; ++s) {
        batch.clear();
        {
            noteShared(s);
            StripeShared g(stripes_, s);
            const OverflowShard &shard = overflow_[s];
            // hicamp-atomic: waive(shared stripe lock held; size and live
            // // are written only under the exclusive lock)
            const std::uint64_t n =
                shard.size.load(std::memory_order_relaxed);
            for (std::uint64_t i = 0; i < n; ++i) {
                const OverflowEntry &e = overflowEntryAt(s, i);
                // hicamp-atomic: waive(shared stripe lock held, as above)
                if (e.live.load(std::memory_order_relaxed)) {
                    batch.push_back(
                        {overflowPlid(s, i), e.line,
                         e.refs.load(std::memory_order_relaxed)});
                }
            }
        }
        for (const Item &it : batch)
            fn(it.plid, it.line, it.refs);
    }
}

std::uint8_t
LineStore::storedSignature(Plid plid) const
{
    HICAMP_ASSERT(!isOverflow(plid) && plid != kZeroPlid,
                  "signatures cover home-bucket lines only");
    const std::uint64_t bucket = plid >> BucketLayout::kWayBits;
    noteShared(stripeOfBucket(bucket));
    StripeShared g(stripes_, stripeOfBucket(bucket));
    return sigs_[slotOf(plid)];
}

bool
LineStore::overflowChainContains(Plid plid) const
{
    HICAMP_ASSERT(isOverflow(plid), "not an overflow PLID");
    const unsigned stripe = overflowStripe(plid);
    HICAMP_ASSERT(stripe < numStripes_, "not an overflow PLID");
    noteShared(stripe);
    StripeShared g(stripes_, stripe);
    const OverflowShard &shard = overflow_[stripe];
    const std::uint64_t idx = overflowIdx(plid);
    // Recompute from current content (not the memoized insert-time
    // hash): a poisoned line must look unindexed, exactly as the
    // chain walk of real hardware would miss it.
    const std::uint64_t hash =
        overflowEntryAt(stripe, idx).line.contentHash();
    auto [lo, hi] = shard.index.equal_range(hash);
    for (auto it = lo; it != hi; ++it) {
        if (it->second == idx)
            return true;
    }
    return false;
}

Plid
LineStore::forgeDuplicateForTest(Plid plid)
{
    const Line content = read(plid);
    const std::uint64_t hash = content.contentHash();
    const std::uint64_t b = bucketOf(hash);
    const unsigned stripe = stripeOfBucket(b);
    noteExcl(stripe);
    StripeExclusive g(stripes_, stripe);
    OverflowShard &shard = overflow_[stripe];
    const std::uint64_t idx = overflowAllocSlot(shard);
    OverflowEntry &e = overflowEntryAt(stripe, idx);
    e.line = content;
    e.homeBucket = b;
    e.hash = hash;
    e.refs.store(0, std::memory_order_relaxed);
    // hicamp-atomic: waive(ordered by the release publication of
    // // live on the next line)
    e.limbo.store(false, std::memory_order_relaxed);
    e.live.store(true, std::memory_order_release);
    shard.index.emplace(hash, idx);
    overflowLive_.fetch_add(1, std::memory_order_relaxed);
    liveLines_.fetch_add(1, std::memory_order_relaxed);
    return overflowPlid(stripe, idx);
}

void
LineStore::poisonWordForTest(Plid plid, unsigned word_idx, Word w,
                             WordMeta m)
{
    HICAMP_ASSERT(plid != kZeroPlid && word_idx < lineWords_,
                  "poisonWordForTest out of range");
    if (isOverflow(plid)) {
        const unsigned stripe = overflowStripe(plid);
        noteExcl(stripe);
        StripeExclusive g(stripes_, stripe);
        OverflowEntry &e = overflowEntryAt(stripe, overflowIdx(plid));
        // hicamp-atomic: waive(exclusive stripe lock held)
        HICAMP_ASSERT(e.live.load(std::memory_order_relaxed),
                      "poisoning a dead line");
        e.line.set(word_idx, w, m);
        return;
    }
    const std::uint64_t bucket = plid >> BucketLayout::kWayBits;
    noteExcl(stripeOfBucket(bucket));
    StripeExclusive g(stripes_, stripeOfBucket(bucket));
    const std::uint64_t slot = slotOf(plid);
    HICAMP_ASSERT(slotLive(slot), "poisoning a dead line");
    words_[slot * lineWords_ + word_idx] = w;
    metas_[slot * lineWords_ + word_idx] = m.value();
}

std::uint64_t
LineStore::totalRefs() const
{
    std::uint64_t t = 0;
    for (std::uint64_t slot = 0;
         slot < numBuckets_ * BucketLayout::kNumData; ++slot) {
        if (slotLive(slot))
            t += refs_[slot].load(std::memory_order_relaxed);
    }
    for (unsigned s = 0; s < numStripes_; ++s) {
        noteShared(s);
        StripeShared g(stripes_, s);
        // hicamp-atomic: waive(shared stripe lock held; size and live
        // // are written only under the exclusive lock)
        const std::uint64_t n =
            overflow_[s].size.load(std::memory_order_relaxed);
        for (std::uint64_t i = 0; i < n; ++i) {
            const OverflowEntry &e = overflowEntryAt(s, i);
            // hicamp-atomic: waive(shared stripe lock held, as above)
            if (e.live.load(std::memory_order_relaxed))
                t += e.refs.load(std::memory_order_relaxed);
        }
    }
    return t;
}

} // namespace hicamp
