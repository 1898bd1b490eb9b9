/**
 * @file
 * EpochManager thread registration: each thread lazily claims one
 * padded record per epoch domain and caches the claim in a
 * thread-local table, releasing it again from the thread-exit
 * destructor so short-lived threads recycle record slots. A released
 * (or never-claimed) record is parked — pinned epoch 0 — so exited
 * and idle threads never stall a grace period (DESIGN.md §12).
 */

#include "mem/epoch.hh"

namespace hicamp {

std::atomic<std::uint64_t> EpochManager::serialCounter_{0};

/**
 * One thread's record claims across every epoch domain it has
 * entered. Keyed by the domain's process-unique serial — a dead
 * domain's serial is never looked up again, and the weak_ptr keeps
 * the exit-time release safe against domains that died first.
 */
struct EpochThreadSlots {
    struct Entry {
        std::uint64_t serial;
        std::weak_ptr<EpochManager::State> state;
        EpochManager::Record *rec;
    };
    std::vector<Entry> entries;

    ~EpochThreadSlots()
    {
        for (Entry &e : entries) {
            if (auto sp = e.state.lock()) {
                HICAMP_DEBUG_ASSERT(
                    e.rec->nesting == 0,
                    "thread exited inside an EpochGuard");
                // Park, then free the slot; the release hand-off
                // pairs with the next claimer's acquire CAS.
                e.rec->epoch.store(0, std::memory_order_release);
                e.rec->owner.store(0, std::memory_order_release);
            }
        }
    }

    static EpochThreadSlots &
    get()
    {
        static thread_local EpochThreadSlots slots;
        return slots;
    }
};

EpochManager::Record &
EpochManager::threadRecord()
{
    auto &entries = EpochThreadSlots::get().entries;
    for (auto &e : entries)
        if (e.serial == state_->serial)
            return *e.rec;

    HICAMP_ATOMIC_COUNTER static std::atomic<std::uint64_t> tokenCounter{0};
    const std::uint64_t token =
        tokenCounter.fetch_add(1, std::memory_order_relaxed) + 1;
    for (unsigned i = 0; i < kMaxRecords; ++i) {
        Record &r = state_->recs[i];
        // hicamp-lint: relaxed-ok(pre-screen only; the acq_rel CAS
        // below is the authoritative claim)
        if (r.owner.load(std::memory_order_relaxed) != 0)
            continue;
        std::uint64_t expect = 0;
        if (!r.owner.compare_exchange_strong(
                expect, token, std::memory_order_acq_rel,
                std::memory_order_relaxed))
            continue;
        // hicamp-atomic: waive(the acq_rel owner CAS above
        // synchronized with the releasing park stores of the previous
        // holder, so the relaxed check sees the parked value)
        HICAMP_DEBUG_ASSERT(
            r.epoch.load(std::memory_order_relaxed) == 0,
            "claimed epoch record was not parked");
        r.nesting = 0;
        // Publish the scan bound. A grace check that races this and
        // still misses the record is safe: the record is parked
        // until enter() pins it, and a pin racing a grace check is
        // the case the kGraceEpochs aging bound covers (§12).
        unsigned hw = state_->highWater.load(std::memory_order_relaxed);
        while (hw < i + 1 &&
               !state_->highWater.compare_exchange_weak(
                   hw, i + 1, std::memory_order_acq_rel,
                   std::memory_order_relaxed)) {
        }
        // Forget the domains that died since this thread last claimed
        // a record: the lookup above runs on every guard entry and
        // per-thread L1 access, and must not grow with the number of
        // Memory instances a long-lived thread has outlived.
        std::erase_if(entries, [](const EpochThreadSlots::Entry &e) {
            return e.state.expired();
        });
        entries.push_back(
            EpochThreadSlots::Entry{state_->serial, state_, &r});
        return r;
    }
    HICAMP_PANIC("epoch record table exhausted: more than "
                 "kMaxRecords concurrently registered threads");
}

EpochManager::Record *
EpochManager::findThreadRecord() const
{
    for (auto &e : EpochThreadSlots::get().entries)
        if (e.serial == state_->serial)
            return e.rec;
    return nullptr;
}

} // namespace hicamp
