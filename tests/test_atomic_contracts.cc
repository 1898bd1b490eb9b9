/**
 * @file
 * Litmus tests for the core memory-order contracts the DESIGN.md §13
 * role vocabulary encodes (HICAMP_ATOMIC_PUBLISH,
 * HICAMP_ATOMIC_CLAIM_CAS, HICAMP_ATOMIC_SEQLOCK,
 * HICAMP_ATOMIC_PARK). Each test is a
 * minimal two-sided protocol exercised by real threads; the CI TSan
 * job runs them to prove the pairings race-free, and the assertions
 * fail loudly if an ordering edge is ever weakened (e.g. a release
 * store demoted to relaxed would let a consumer observe a
 * half-initialized payload).
 */

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.hh"
#include "server/park.hh"

namespace hicamp {
namespace {

/**
 * PUBLISH contract (§13): a writer fully constructs a payload, then
 * publishes its pointer with a release store; a reader's acquire
 * load of the pointer must make every payload field visible. This is
 * the OverflowShard chunk-directory idiom (line_store.hh) reduced to
 * its two edges.
 */
TEST(AtomicContracts, PublishAcquireHandoff)
{
    struct Payload {
        std::uint64_t a = 0;
        std::uint64_t b = 0;
        std::uint64_t c = 0;
    };
    constexpr int kRounds = 500;
    std::atomic<Payload *> published{nullptr};
    std::atomic<bool> consumed{false};

    std::thread producer([&] {
        for (int i = 1; i <= kRounds; ++i) {
            auto *p = new Payload;
            // Plain stores: only the release publication below may
            // order them for the consumer.
            p->a = static_cast<std::uint64_t>(i);
            p->b = static_cast<std::uint64_t>(i) * 3;
            p->c = p->a + p->b;
            published.store(p, std::memory_order_release);
            while (!consumed.load(std::memory_order_acquire))
                std::this_thread::yield();
            consumed.store(false, std::memory_order_relaxed);
        }
    });
    std::thread consumer([&] {
        for (int i = 1; i <= kRounds; ++i) {
            Payload *p = nullptr;
            while ((p = published.exchange(
                        nullptr, std::memory_order_acquire)) ==
                   nullptr) {
                std::this_thread::yield();
            }
            // The acquire above must carry all three plain stores.
            EXPECT_EQ(p->a, static_cast<std::uint64_t>(i));
            EXPECT_EQ(p->b, p->a * 3);
            EXPECT_EQ(p->c, p->a + p->b);
            delete p;
            consumed.store(true, std::memory_order_release);
        }
    });
    producer.join();
    consumer.join();
}

/**
 * CLAIM_CAS contract (§13): threads race a compare-exchange to claim
 * a slot; success carries acquire (the claimant inherits the prior
 * owner's plain-field writes) and the handback is a release. Exactly
 * one claimant may win each round, and the unsynchronized tally the
 * winners keep is single-writer-at-a-time by construction — a lost
 * ordering edge shows up as a TSan race or a miscount. Every thread
 * retries until it has won kRounds claims, so the totals are exact
 * however the threads interleave.
 */
TEST(AtomicContracts, CasClaimRace)
{
    constexpr int kThreads = 4;
    constexpr int kRounds = 2000;
    struct Slot {
        std::atomic<int> owner{0};
        std::uint64_t tally = 0; // guarded by owning the slot
    };
    Slot slot;
    std::atomic<std::uint64_t> wins{0};

    std::vector<std::thread> threads;
    for (int t = 1; t <= kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int won = 0; won < kRounds;) {
                int expected = 0;
                // Failure order stays acquire (never release, never
                // stronger than success): losers just retry.
                if (slot.owner.compare_exchange_strong(
                        expected, t, std::memory_order_acq_rel,
                        std::memory_order_acquire)) {
                    ++slot.tally; // exclusive by claim
                    wins.fetch_add(1, std::memory_order_relaxed);
                    slot.owner.store(0, std::memory_order_release);
                    ++won;
                } else {
                    std::this_thread::yield();
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();
    // Every successful claim incremented the plain tally exactly
    // once; the acquire/release claim chain makes them all visible.
    constexpr std::uint64_t kClaims = std::uint64_t{kThreads} * kRounds;
    EXPECT_EQ(wins.load(), kClaims);
    EXPECT_EQ(slot.tally, kClaims);
}

/**
 * SEQLOCK contract (§13): the Boehm read/validate protocol on the
 * repo's own SeqCount. A writer publishes a two-field invariant
 * (b == 2*a) inside writeBegin/writeEnd sections; readers loop on
 * readBegin/validate and must never act on a torn snapshot. Guarded
 * fields are relaxed atomics, the §7 idiom for seqlock-published
 * siblings — the SeqCount fences carry all the ordering.
 */
TEST(AtomicContracts, SeqlockTornReadRetry)
{
    SeqCount seq;
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
    constexpr int kWrites = 4000;
    std::atomic<bool> stop{false};

    std::thread writer([&] {
        for (std::uint64_t i = 1; i <= kWrites; ++i) {
            seq.writeBegin();
            a.store(i, std::memory_order_relaxed);
            b.store(2 * i, std::memory_order_relaxed);
            seq.writeEnd();
        }
        stop.store(true, std::memory_order_release);
    });
    std::vector<std::thread> readers;
    for (int t = 0; t < 2; ++t) {
        readers.emplace_back([&] {
            std::uint64_t snapshots = 0;
            while (!stop.load(std::memory_order_acquire) ||
                   snapshots == 0) {
                const std::uint32_t s1 = seq.readBegin();
                if (s1 & 1u)
                    continue; // writer in flight: retry
                const std::uint64_t ra =
                    a.load(std::memory_order_relaxed);
                const std::uint64_t rb =
                    b.load(std::memory_order_relaxed);
                if (!seq.validate(s1))
                    continue; // torn: retry, never consume
                ASSERT_EQ(rb, 2 * ra); // untorn snapshot invariant
                ++snapshots;
            }
            EXPECT_GT(snapshots, 0u);
        });
    }
    writer.join();
    for (auto &r : readers)
        r.join();
    EXPECT_EQ(a.load(std::memory_order_relaxed),
              static_cast<std::uint64_t>(kWrites));
}

/**
 * PARK contract (§13, §14): two threads hand a token back and forth,
 * and each blocks whenever the other holds it — side A on a
 * ParkingLot futex like a worker, side B on a ParkFlag plus an
 * eventfd like the net thread. Neither spins, so nearly every
 * handoff parks. A lost wakeup leaves A asleep forever (the test
 * hangs) or makes B sit out its safety-net timeout (counted).
 */
TEST(AtomicContracts, ParkWakePingPong)
{
    constexpr int kRounds = 100000;
    constexpr int kSafetyNetMs = 5000;
    server::ParkingLot lot;
    server::ParkFlag flag;
    const int efd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    ASSERT_GE(efd, 0);
    std::atomic<int> turn{0}; // 0: A holds the token, 1: B does
    std::uint64_t handoffs = 0; // plain: written by the token holder
    int timeouts = 0;           // B's only

    const auto aHolds = [&] {
        return turn.load(std::memory_order_acquire) == 0;
    };
    const auto bHolds = [&] {
        return turn.load(std::memory_order_acquire) == 1;
    };
    std::thread a([&] {
        for (int i = 0; i < kRounds; ++i) {
            while (!aHolds())
                lot.park(aHolds);
            ++handoffs;
            turn.store(1, std::memory_order_release);
            if (flag.claim()) {
                const std::uint64_t one = 1;
                EXPECT_EQ(::write(efd, &one, sizeof one),
                          static_cast<ssize_t>(sizeof one));
            }
        }
    });
    std::thread b([&] {
        for (int i = 0; i < kRounds; ++i) {
            while (!bHolds()) {
                flag.announce();
                if (!bHolds()) {
                    pollfd p{efd, POLLIN, 0};
                    if (::poll(&p, 1, kSafetyNetMs) == 0)
                        ++timeouts;
                }
                flag.retract();
                std::uint64_t tick;
                while (::read(efd, &tick, sizeof tick) > 0) {
                }
            }
            ++handoffs;
            turn.store(0, std::memory_order_release);
            lot.wakeOne();
        }
    });
    a.join();
    b.join();
    ::close(efd);
    EXPECT_EQ(handoffs, 2u * kRounds);
    EXPECT_EQ(timeouts, 0);
}

} // namespace
} // namespace hicamp
