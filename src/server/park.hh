/**
 * @file
 * Spin-then-park handshakes for the serving threads (DESIGN.md §14).
 *
 * A serving thread that runs out of work spins for a short window,
 * then *parks*: it announces that it is about to sleep, re-checks its
 * queue, and blocks only if the re-check came up empty. A producer
 * publishes work first and only then looks for an announcement; it
 * pays for a wakeup (a futex wake or an eventfd write) only when it
 * finds one. Both sides are the store-fence-load halves of a Dekker
 * handshake:
 *
 *   sleeper: announce (park word)  ; fence(seq_cst) ; re-check queue
 *   waker:   publish (queue push)  ; fence(seq_cst) ; check park word
 *
 * The two seq_cst fences forbid the outcome where both loads miss
 * the other side's store, so either the sleeper's re-check sees the
 * work or the waker sees the announcement — a wakeup is never lost.
 *
 * Memory-order roles (§13): the announcement words are
 * `HICAMP_ATOMIC_PARK` — announces are seq_cst and fenced, the waker's
 * check is fenced, and retracts/claims are relaxed because the wakeup
 * itself (futex or eventfd) and the queue's own release/acquire slot
 * words carry the data. The futex word is a `HICAMP_ATOMIC_PUBLISH`
 * sequence: a waker's bump (seq_cst, so release) makes everything
 * before it (the push, or stop()'s run-flag clear) visible to a
 * sleeper whose acquire ticket load read the bumped value. Every access to a park
 * word stays inside the `primitive()` functions below.
 */

#ifndef HICAMP_SERVER_PARK_HH
#define HICAMP_SERVER_PARK_HH

#include <atomic>
#include <cstdint>

#include "common/atomic_annotations.hh"

namespace hicamp::server {

/**
 * Sleepers that block on a futex word (the workers, waiting for the
 * request ring). Any number may park; a waker wakes one.
 */
class ParkingLot
{
  public:
    /**
     * Sleeper: announce, then call @p found (the re-check), and block
     * until the next wake unless it returned true. A wake may be
     * spurious, so the caller loops.
     */
    // hicamp-atomic: primitive(sleeper half of the worker park
    // handshake: the ticket load precedes the announce, so a wake that
    // follows the announce always moves the word past the ticket)
    template <typename Found>
    void
    park(Found &&found)
    {
        const std::uint32_t ticket =
            wakeSeq_.load(std::memory_order_acquire);
        sleepers_.fetch_add(1, std::memory_order_seq_cst);
        // hicamp-atomic: waive(park announce fence: orders the sleeper
        // count before the re-check's ring load; pairs with wakeOne's
        // fence between the ring push and the count check)
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (!found())
            wakeSeq_.wait(ticket, std::memory_order_acquire);
        sleepers_.fetch_sub(1, std::memory_order_relaxed);
    }

    /** Waker, after publishing work: wake one sleeper if any has
     *  announced. Returns true if it issued a wake. */
    // hicamp-atomic: primitive(waker half of the worker park
    // handshake: the fence orders the ring push before the sleeper
    // count check)
    bool
    wakeOne()
    {
        // hicamp-atomic: waive(park check fence: orders the ring push
        // before the sleeper count load; pairs with park's announce
        // fence)
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (sleepers_.load(std::memory_order_acquire) == 0)
            return false;
        bump();
        wakeSeq_.notify_one();
        return true;
    }

    /** Wake every sleeper unconditionally (shutdown). The caller's
     *  stores before this call are visible to each woken re-check. */
    void
    wakeAll()
    {
        bump();
        wakeSeq_.notify_all();
    }

  private:
    /** Move the futex word past every outstanding ticket. seq_cst,
     *  not just release: libstdc++'s notify skips the futex call when
     *  its seq_cst waiter count reads 0, and that check must not pass
     *  this store. */
    void
    bump()
    {
        wakeSeq_.fetch_add(1, std::memory_order_seq_cst);
    }

    /// Announced sleepers: bumped before the re-check, dropped after
    /// waking. Wakers read it to skip the futex call when zero.
    HICAMP_ATOMIC_PARK std::atomic<std::uint32_t> sleepers_{0};
    /// Futex word: every wake moves it, so a sleeper whose ticket is
    /// stale never blocks.
    HICAMP_ATOMIC_PUBLISH std::atomic<std::uint32_t> wakeSeq_{0};
};

/**
 * One sleeper that blocks somewhere else (the net thread, in
 * epoll_wait) and is woken out of band (an eventfd write). Wakers
 * claim the announcement, so at most one of them signals per park.
 */
class ParkFlag
{
  public:
    /** Sleeper: announce; then re-check, then block. */
    // hicamp-atomic: primitive(sleeper half of the net park
    // handshake: announce, then fence before the caller's re-check)
    void
    announce()
    {
        parked_.store(1, std::memory_order_seq_cst);
        // hicamp-atomic: waive(park announce fence: orders the
        // announcement before the completion-ring re-check; pairs
        // with claim's fence)
        std::atomic_thread_fence(std::memory_order_seq_cst);
    }

    /** Sleeper, once awake: withdraw the announcement. A waker that
     *  claimed it first has signalled, or is about to; the sleeper
     *  just drains that signal later. */
    // hicamp-atomic: primitive(net park withdrawal: relaxed, the
    // exchange only decides which side owns the announcement)
    void
    retract()
    {
        parked_.exchange(0, std::memory_order_relaxed);
    }

    /** Waker, after publishing work: true if the sleeper announced
     *  and this caller won the right to signal it. */
    // hicamp-atomic: primitive(waker half of the net park handshake:
    // the fence orders the completion push before the announcement
    // check)
    bool
    claim()
    {
        // hicamp-atomic: waive(park check fence: orders the completion
        // push before the announcement load; pairs with announce's
        // fence)
        std::atomic_thread_fence(std::memory_order_seq_cst);
        return parked_.load(std::memory_order_acquire) != 0 &&
               parked_.exchange(0, std::memory_order_relaxed) != 0;
    }

  private:
    /// 1 while the sleeper has announced and nobody claimed it.
    HICAMP_ATOMIC_PARK std::atomic<std::uint32_t> parked_{0};
};

} // namespace hicamp::server

#endif // HICAMP_SERVER_PARK_HH
