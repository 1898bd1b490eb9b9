#include "mem/memory.hh"

#include <utility>
#include <vector>

#include "common/logging.hh"
#include "obs/trace.hh"

namespace hicamp {

namespace {

/** Transient-id namespace for virtual-segment-map entries. */
constexpr std::uint64_t kVsmIdBase = std::uint64_t{1} << 40;

} // namespace

Memory::Memory(const MemoryConfig &cfg)
    : cfg_(cfg),
      store_(cfg.numBuckets, cfg.lineBytes / kWordBytes,
             LineStore::Limits{cfg.overflowCapacity, cfg.maxLiveLines,
                               cfg.refcountBits},
             cfg.lockStripes),
      l2_(cfg.l2Bytes, cfg.l2Ways, cfg.lineBytes,
          /*content_searchable=*/true),
      faults_(cfg.faults.allowEnvOverride
                  ? FaultConfig::fromEnv(cfg.faults)
                  : cfg.faults)
{
    HICAMP_ASSERT(cfg.lineBytes == 16 || cfg.lineBytes == 32 ||
                      cfg.lineBytes == 64,
                  "line size must be 16, 32 or 64 bytes");
    bankActs_ = std::make_unique<ShardedCounter[]>(store_.numStripes());
    pressure_.add("oom_events", &oomEvents_);
    pressure_.add("flips_recovered", &flipsRecovered_);
    pressure_.add("flips_silent", &flipsSilent_);
    pressure_.add("commit_conflicts", &contention_.conflicts);
    pressure_.add("commit_retries", &contention_.retries);
    pressure_.add("backoff_iters", &contention_.backoffIters);
    pressure_.add("commit_exhausted", &contention_.exhausted);
    registerMetrics();
}

Memory::~Memory()
{
    // Members die in reverse declaration order: metrics_ (and the
    // grace histogram it owns) before store_, whose destructor drains
    // the remaining limbo and would fire the observer into the freed
    // histogram. Detach it first; the final drains go unobserved.
    store_.epochDomain().setGraceObserver({});
}

Memory::L1Table::~L1Table()
{
    for (auto &l1 : bySlot)
        delete l1.load(std::memory_order_acquire);
}

HicampCache &
Memory::threadL1()
{
    const unsigned slot = store_.epochDomain().threadSlot();
    HicampCache *l1 = l1s_.bySlot[slot].load(std::memory_order_acquire);
    if (!l1) {
        // Only the slot's owner fills it, so a plain store suffices;
        // release publishes the built cache to fan-out walkers.
        l1 = new HicampCache(cfg_.l1Bytes, cfg_.l1Ways, cfg_.lineBytes,
                             /*content_searchable=*/false);
        l1s_.bySlot[slot].store(l1, std::memory_order_release);
    }
    return *l1;
}

unsigned
Memory::l1Count() const
{
    unsigned n = 0;
    forEachL1([&n](HicampCache &) { ++n; });
    return n;
}

unsigned
Memory::l1Copies(Plid plid) const
{
    const CacheKey key{LineKind::Data, plid};
    const std::uint64_t home = store_.bucketOfPlid(plid);
    unsigned n = 0;
    forEachL1([&](HicampCache &l1) { n += l1.contains(key, home); });
    return n;
}

void
Memory::registerMetrics()
{
    // DRAM traffic by Fig. 6 category. Registered per category (not as
    // one total) so snapshot deltas preserve the attribution.
    struct CatName {
        DramCat cat;
        const char *name;
    };
    static constexpr CatName kCats[] = {
        {DramCat::Read, "dram.read"},       {DramCat::Write, "dram.write"},
        {DramCat::Lookup, "dram.lookup"},   {DramCat::Dealloc, "dram.dealloc"},
        {DramCat::RefCount, "dram.refcount"},
    };
    for (const auto &[cat, name] : kCats) {
        DramCat c = cat;
        metrics_.addCounter(name, [this, c] { return dram_.sample(c); },
                            [this, c] { dram_.resetCat(c); });
    }

    metrics_.addCounter("ops.lookups", &lookupOps_);
    metrics_.addCounter("ops.reads", &readOps_);
    metrics_.addCounter("lookup.sig_false_positives", &sigFalsePositives_);
    metrics_.addCounter("lookup.dedup_hits", &dedupHits_);
    metrics_.addCounter("lookup.overflow_walks", &overflowWalks_);
    metrics_.addCounter("deallocs", &deallocs_);
    metrics_.addCounter("errors_detected", &errorsDetected_);
    metrics_.addCounter("row_activations", &rowActs_);

    // cache.l1.* sum the per-thread L1s. An L1 lives as long as this
    // Memory (a recycled slot keeps its L1 and tallies), so the sums
    // never go backwards between resets.
    for (auto [name, tally] :
         {std::pair{"cache.l1.hits", &HicampCache::hits},
          std::pair{"cache.l1.misses", &HicampCache::misses}}) {
        metrics_.addCounter(
            name,
            [this, tally] {
                std::uint64_t sum = 0;
                forEachL1(
                    [&](HicampCache &l1) { sum += (l1.*tally).value(); });
                return sum;
            },
            [this, tally] {
                forEachL1([&](HicampCache &l1) { (l1.*tally).reset(); });
            });
    }
    metrics_.addCounter("cache.l2.hits", &l2_.hits);
    metrics_.addCounter("cache.l2.misses", &l2_.misses);

    metrics_.addCounter("pressure.oom_events", &oomEvents_);
    metrics_.addCounter("pressure.flips_recovered", &flipsRecovered_);
    metrics_.addCounter("pressure.flips_silent", &flipsSilent_);
    metrics_.addCounter("contention.conflicts", &contention_.conflicts);
    metrics_.addCounter("contention.retries", &contention_.retries);
    metrics_.addCounter("contention.backoff_iters",
                        &contention_.backoffIters);
    metrics_.addCounter("contention.exhausted", &contention_.exhausted);

    metrics_.addGauge("store.live_lines", [this] { return liveLines(); });
    metrics_.addGauge("store.live_bytes", [this] { return liveBytes(); });
    metrics_.addGauge("store.overflow_lines",
                      [this] { return store_.overflowLines(); });
    metrics_.addGauge("store.saturated_lines",
                      [this] { return store_.saturatedLines(); });

    candHist_ = &metrics_.histogram("lookup.candidates");

    // Epoch-reclamation telemetry (§12): advance/free tallies and the
    // current limbo depth as gauges (they are the domain's own
    // monotone counters; a registry reset must not clear them), plus
    // the grace-period latency histogram, fed by the observer below.
    // Wired here — before any concurrent use — per the observer's
    // installation contract.
    EpochManager &ep = store_.epochDomain();
    metrics_.addGauge("epoch.epoch", [&ep] { return ep.epoch(); });
    metrics_.addGauge("epoch.advances", [&ep] { return ep.advances(); });
    metrics_.addGauge("epoch.deferred_frees",
                      [&ep] { return ep.deferredFrees(); });
    metrics_.addGauge("epoch.limbo_depth", [&ep] {
        return static_cast<std::uint64_t>(ep.limboDepth());
    });
    graceHist_ = &metrics_.histogram("epoch.grace_ns");
    ep.setGraceObserver(
        [this](std::uint64_t ns) { graceHist_->record(ns); });
}

void
Memory::bankTouch(std::uint64_t home, std::uint64_t n)
{
    rowActs_ += n;
    bankActs_[store_.stripeOfBucket(home)] += n;
}

bool
Memory::countWriteback(const HicampCache::Access &a)
{
    if (a.writeback) {
        dram_.count(*a.writeback);
        return true;
    }
    return false;
}

bool
Memory::rcTouch(Plid plid)
{
    const std::uint64_t home = store_.bucketOfPlid(plid);
    bool touched = false;
    auto a = l2_.access({LineKind::Rc, home}, home, /*dirty=*/true,
                        DramCat::RefCount);
    if (!a.hit) {
        dram_.count(DramCat::RefCount); // fetch the RC line
        touched = true;
    }
    return countWriteback(a) || touched;
}

HICAMP_REF_PRIMITIVE Plid
Memory::lookup(const Line &content, bool *was_new)
{
    DramStats::WriterScope ws(dram_);
    return lookupImpl(content, was_new);
}

HICAMP_REF_PRIMITIVE Plid
Memory::lookupImpl(const Line &content, bool *was_new)
{
    if (was_new)
        *was_new = false;
    if (content.isZero())
        return kZeroPlid;

    ++lookupOps_;
    const std::uint64_t hash = content.contentHash();

    // Fast path: the line is resident in the LLC; the content search
    // needs only the single set the hash bucket maps to (Fig. 3). The
    // cache entry is an unsynchronized hint, though: the line may be
    // mid-retirement, or — vanishingly rare — its slot reused for
    // other content. Acquire a reference only if it is still live,
    // then re-verify against ground truth before trusting it.
    if (auto cached = l2_.lookupContent(content, hash)) {
        if (store_.incRefIfLive(*cached)) {
            if (store_.read(*cached) == content) {
                ++l2_.hits;
                ++dedupHits_;
                rcTouch(*cached);
                HICAMP_TRACE_EVENT(Mem, Lookup, *cached, cfg_.lineBytes);
                return *cached;
            }
            decRefImpl(*cached); // reused slot: undo, take slow path
        }
    }
    ++l2_.misses;

    const std::uint64_t home = store_.bucketOf(hash);

    // Fault injection: a fresh allocation (the content is not yet
    // stored) may fail transiently. Decided before any state or
    // traffic changes, so the failure path has no side effects.
    if (faults_.config().anyEnabled() && !store_.find(content).found &&
        faults_.failAlloc()) {
        ++oomEvents_;
        throw MemPressureError(MemStatus::OutOfMemory,
                               "injected allocation failure");
    }

    // The reference for a hit is taken inside the bucket's critical
    // section, so a hit on a dying (count zero) line resurrects it
    // before its retirement can proceed (DESIGN.md §7).
    auto res = store_.findOrInsert(content, /*take_ref=*/true);
    bool dram_touched = false;

    // Protocol step: read the bucket's signature line.
    {
        auto a = l2_.access({LineKind::Sig, home}, home, /*dirty=*/false,
                            DramCat::Lookup);
        if (!a.hit) {
            dram_.count(DramCat::Lookup);
            dram_touched = true;
        }
        dram_touched |= countWriteback(a);
    }

    // Probe each signature-matching candidate's data line, using the
    // content copies captured under the bucket lock (the slots
    // themselves may since have been freed by other threads).
    for (std::size_t i = 0; i < res.candidates.size(); ++i) {
        auto a = l2_.access({LineKind::Data, res.candidates[i]}, home,
                            /*dirty=*/false, DramCat::Lookup,
                            &res.candidateLines[i]);
        if (!a.hit) {
            dram_.count(DramCat::Lookup);
            dram_touched = true;
        }
        dram_touched |= countWriteback(a);
    }
    sigFalsePositives_ +=
        res.candidates.size() - (res.found && !res.overflow ? 1 : 0);
    candHist_->record(res.candidates.size());

    // Walking the overflow pointer area costs an extra row access.
    if (res.overflow) {
        ++overflowWalks_;
        dram_.count(DramCat::Lookup);
        dram_touched = true;
    }

    if (res.status != MemStatus::Ok) {
        // Capacity exhausted: the probe traffic above was still paid,
        // but nothing was allocated and no references were taken.
        ++oomEvents_;
        if (dram_touched)
            bankTouch(home);
        throw MemPressureError(res.status,
                               "line allocation failed: store at "
                               "capacity");
    }

    if (!res.found) {
        // Fresh allocation: update the signature line and place the
        // new content in the LLC; both write back in the lookup
        // category when evicted (paper footnote 12).
        auto sig = l2_.access({LineKind::Sig, home}, home, /*dirty=*/true,
                              DramCat::Lookup);
        dram_touched |= countWriteback(sig);
        auto dat = l2_.access({LineKind::Data, res.plid}, home,
                              /*dirty=*/true, DramCat::Lookup, &content);
        dram_touched |= countWriteback(dat);
        if (was_new)
            *was_new = true;
    }

    if (res.found)
        ++dedupHits_;
    dram_touched |= rcTouch(res.plid);
    // All protocol commands (signature, candidates, allocation, the
    // RC line) target the home bucket's DRAM row: one activation,
    // plus one for the overflow area when it was walked.
    if (dram_touched)
        bankTouch(home, 1 + (res.overflow ? 1 : 0));
    HICAMP_TRACE_EVENT(Mem, Lookup, res.plid, cfg_.lineBytes);
    return res.plid;
}

HICAMP_REF_PRIMITIVE Plid
Memory::internLine(const Line &content)
{
    DramStats::WriterScope ws(dram_);
    bool fresh = false;
    Plid plid;
    try {
        plid = lookupImpl(content, &fresh);
    } catch (const MemPressureError &) {
        // Consume-on-failure: the caller handed over one reference
        // per child; release them so the failed intern leaks nothing.
        for (unsigned i = 0; i < content.size(); ++i) {
            if (content.meta(i).isPlid() && content.word(i) != 0)
                decRefImpl(content.word(i));
        }
        throw;
    }
    if (!fresh && plid != kZeroPlid) {
        // Dedup hit: the existing line already owns references to its
        // children; release the caller's.
        for (unsigned i = 0; i < content.size(); ++i) {
            if (content.meta(i).isPlid() && content.word(i) != 0)
                decRefImpl(content.word(i));
        }
    }
    return plid;
}

void
Memory::modelLineFetch(Plid plid, std::uint64_t home,
                       const Line &content, DramCat cat)
{
    const CacheKey key{LineKind::Data, plid};
    auto a1 = threadL1().access(key, home, /*dirty=*/false, cat);
    if (a1.writeback) {
        // Only transient lines are ever dirty in L1; spill into L2
        // (full-line write: no fetch needed).
        auto spill = l2_.access(a1.victimKey, a1.victimHome,
                                /*dirty=*/true, *a1.writeback);
        countWriteback(spill);
    }
    if (a1.hit)
        return;
    auto a2 = l2_.access(key, home, /*dirty=*/false, cat, &content);
    if (!a2.hit) {
        dram_.count(cat);
        bankTouch(home);
        // Fault injection: the fetched copy may arrive with a
        // multi-bit error past per-line ECC. The §3.1 check catches
        // it when the corrupted content hashes to a different bucket;
        // the model then refetches (one more DRAM access) and
        // recovers. A flip that hashes back to the same bucket would
        // escape — counted, but the model keeps serving ground truth
        // to stay self-consistent.
        unsigned widx = 0, bidx = 0;
        if (faults_.flipBit(content.size(), &widx, &bidx)) {
            Line flipped = content;
            flipped.set(widx, flipped.word(widx) ^ (Word{1} << bidx),
                        flipped.meta(widx));
            if (store_.bucketOf(flipped.contentHash()) != home) {
                ++errorsDetected_;
                ++flipsRecovered_;
                dram_.count(cat); // the recovery refetch
            } else {
                ++flipsSilent_;
            }
        }
        // §3.1 error detection: the line was fetched from DRAM;
        // recompute its content hash and check it still selects the
        // bucket it lives in. Escapes only if the corruption happens
        // to hash back to the same bucket.
        if (store_.bucketOf(content.contentHash()) != home) {
            ++errorsDetected_;
            warn("memory error detected: line content no longer "
                 "matches its hash bucket");
        }
    }
    countWriteback(a2);
}

Line
Memory::readLine(Plid plid, DramCat cat)
{
    DramStats::WriterScope ws(dram_);
    if (plid == kZeroPlid)
        return makeLine();
    HICAMP_TRACE_SCOPE(Mem, ReadLine, plid, cfg_.lineBytes);
    ++readOps_;
    Line content;
    std::uint64_t home;
    {
        // Zero-lock read section (§12): one guard pins the epoch
        // across the ground-truth copy and the home-bucket fetch; the
        // store's internal guards simply re-enter it (the nesting
        // count deepens — no second pin, no lock). The caller holds a
        // reference, so the worst case is a line sitting in limbo,
        // whose content is intact by the limbo invariant.
        EpochGuard eg(store_.epochDomain());
        content = store_.read(plid);
        home = store_.bucketOfPlid(plid);
    }
    modelLineFetch(plid, home, content, cat);
    return content;
}

HICAMP_REF_PRIMITIVE void
Memory::incRef(Plid plid)
{
    if (plid == kZeroPlid)
        return;
    DramStats::WriterScope ws(dram_);
    HICAMP_TRACE_EVENT(Mem, IncRef, plid, 0);
    // Fault injection: model a refcount update that overflows its
    // §3.1 field width — the count pins sticky at the ceiling and the
    // line becomes immortal (graceful degradation, not an error).
    if (faults_.saturateRef())
        store_.saturateRef(plid);
    else
        // hicamp-lint: retain-ok(incRef IS the acquire primitive; the
        // caller owns the reference it asked for)
        store_.addRef(plid, +1);
    rcTouch(plid);
}

HICAMP_REF_PRIMITIVE bool
Memory::tryRetain(Plid plid)
{
    if (plid == kZeroPlid)
        return true;
    DramStats::WriterScope ws(dram_);
    {
        // §12: pin the conditional CAS and its liveness revalidation
        // in one epoch section, so the slot cannot be physically
        // recycled between the count update and the re-check. The
        // assert is the revalidation: a successful CAS implies a
        // nonzero prior count, which retire()'s locked zero-check can
        // never have passed — so the line must still be published.
        EpochGuard eg(store_.epochDomain());
        if (!store_.incRefIfLive(plid))
            return false;
        HICAMP_DEBUG_ASSERT(store_.isLive(plid),
                            "tryRetain raced a retirement that "
                            "unpublished a referenced line");
    }
    HICAMP_TRACE_EVENT(Mem, IncRef, plid, 0);
    rcTouch(plid);
    return true;
}

HICAMP_REF_PRIMITIVE void
Memory::decRef(Plid plid)
{
    DramStats::WriterScope ws(dram_);
    decRefImpl(plid);
}

HICAMP_REF_PRIMITIVE void
Memory::decRefImpl(Plid plid)
{
    if (plid == kZeroPlid)
        return;
    HICAMP_TRACE_EVENT(Mem, DecRef, plid, 0);
    rcTouch(plid);
    if (store_.addRef(plid, -1) == 0)
        reclaim(plid);
}

HICAMP_REF_PRIMITIVE void
Memory::reclaim(Plid first)
{
    // Hardware state machine for recursive deallocation (paper §3.1),
    // modelled as an explicit worklist.
    std::vector<Plid> work{first};
    while (!work.empty()) {
        Plid p = work.back();
        work.pop_back();

        // Atomically unpublish the line if its count is still zero.
        // A concurrent lookup may have dedup-hit (resurrected) it in
        // the meantime — both paths serialize on the bucket's stripe
        // lock, and a resurrected line is simply kept.
        auto retired = store_.retire(p);
        if (!retired)
            continue;
        HICAMP_TRACE_EVENT(Mem, Reclaim, p, cfg_.lineBytes);

        // Model the dealloc read of the dying line; its content now
        // lives only in the retired copy.
        ++readOps_;
        modelLineFetch(p, retired->homeBucket, retired->content,
                       DramCat::Dealloc);
        const Line &content = retired->content;
        for (unsigned i = 0; i < content.size(); ++i) {
            Word w = content.word(i);
            if (w == 0)
                continue;
            if (content.meta(i).isPlid()) {
                rcTouch(w);
                if (store_.addRef(w, -1) == 0)
                    work.push_back(w);
            } else if (content.meta(i).isVsid() && vsidRelease_) {
                vsidRelease_(w);
            }
        }

        // Invalidate in every L1 and the L2; a dirty (never-written)
        // line's writeback is cancelled outright.
        const CacheKey key{LineKind::Data, p};
        forEachL1([&](HicampCache &l1) {
            l1.invalidate(key, retired->homeBucket);
        });
        l2_.invalidate(key, retired->homeBucket);

        // Clear the signature: mark the bucket's signature line dirty.
        auto sig = l2_.access({LineKind::Sig, retired->homeBucket},
                              retired->homeBucket, /*dirty=*/true,
                              DramCat::Dealloc);
        if (!sig.hit)
            dram_.count(DramCat::Dealloc);
        countWriteback(sig);

        ++deallocs_;
        // Invoked with no memory-system lock held (DESIGN.md §7).
        if (lineFreed_)
            lineFreed_(p);
    }
}

std::uint32_t
Memory::refCount(Plid plid) const
{
    return store_.refCount(plid);
}

bool
Memory::isLive(Plid plid) const
{
    return store_.isLive(plid);
}

std::uint64_t
Memory::allocTransient()
{
    return nextTransient_.fetch_add(1, std::memory_order_relaxed);
}

void
Memory::transientAccess(std::uint64_t transient_id, bool write)
{
    DramStats::WriterScope ws(dram_);
    HICAMP_TRACE_EVENT(Mem, Transient, transient_id, cfg_.lineBytes);
    const CacheKey key{LineKind::Transient, transient_id};
    const std::uint64_t home = mix64(transient_id);
    auto a1 = threadL1().access(key, home, write, DramCat::Write);
    if (a1.writeback) {
        auto spill = l2_.access(a1.victimKey, a1.victimHome,
                                /*dirty=*/true, *a1.writeback);
        countWriteback(spill);
    }
    if (!a1.hit) {
        auto a2 = l2_.access(key, home, write, DramCat::Write);
        // A store miss on a transient is a full-line write: no fetch.
        if (!a2.hit && !write) {
            dram_.count(DramCat::Read);
            bankTouch(home);
        }
        countWriteback(a2);
    }
}

void
Memory::invalidateTransient(std::uint64_t transient_id)
{
    const CacheKey key{LineKind::Transient, transient_id};
    const std::uint64_t home = mix64(transient_id);
    forEachL1([&](HicampCache &l1) { l1.invalidate(key, home); });
    l2_.invalidate(key, home);
}

void
Memory::vsmAccess(Vsid vsid, bool write)
{
    DramStats::WriterScope ws(dram_);
    HICAMP_TRACE_EVENT(Mem, VsmTouch, vsid, 0);
    const std::uint64_t id = kVsmIdBase | vsid;
    const CacheKey key{LineKind::Transient, id};
    const std::uint64_t home = mix64(id);
    auto a = l2_.access(key, home, write, DramCat::Write);
    if (!a.hit && !write) {
        dram_.count(DramCat::Read);
        bankTouch(home);
    }
    countWriteback(a);
}

void
Memory::setVsidReleaseHook(std::function<void(Vsid)> hook)
{
    vsidRelease_ = std::move(hook);
}

void
Memory::setLineFreedHook(std::function<void(Plid)> hook)
{
    lineFreed_ = std::move(hook);
}

void
Memory::resetTraffic()
{
    dram_.reset();
    lookupOps_.reset();
    readOps_.reset();
    sigFalsePositives_.reset();
    deallocs_.reset();
    rowActs_.reset();
    for (unsigned s = 0; s < store_.numStripes(); ++s)
        bankActs_[s].reset();
    forEachL1([](HicampCache &l1) {
        l1.hits.reset();
        l1.misses.reset();
    });
    l2_.hits.reset();
    l2_.misses.reset();
}

} // namespace hicamp
