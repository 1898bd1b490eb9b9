// Clean twin: a seq_cst fence sits between the announcement and the
// re-check, pairing with the waker's fence.
namespace hicamp {
class Sleeper
{
  public:
    // hicamp-atomic: primitive(sleeper half of the park handshake)
    bool
    announceAndRecheck()
    {
        parked_.store(1, std::memory_order_seq_cst);
        // hicamp-atomic: waive(park announce fence: orders the
        // announcement before the re-check; pairs with mustWake)
        std::atomic_thread_fence(std::memory_order_seq_cst);
        return work_.load(std::memory_order_acquire) != 0;
    }

    // hicamp-atomic: primitive(waker half of the park handshake)
    bool
    mustWake()
    {
        work_.store(1, std::memory_order_release);
        // hicamp-atomic: waive(park check fence: orders the push
        // before the announcement load; pairs with the announce)
        std::atomic_thread_fence(std::memory_order_seq_cst);
        return parked_.load(std::memory_order_acquire) != 0;
    }

  private:
    HICAMP_ATOMIC_PARK std::atomic<std::uint32_t> parked_{0};
    HICAMP_ATOMIC_PUBLISH std::atomic<std::uint64_t> work_{0};
};
} // namespace hicamp
