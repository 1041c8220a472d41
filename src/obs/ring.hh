/**
 * @file
 * Bounded single-producer event ring for the observability
 * subsystem.
 *
 * The simulator is single-threaded, so no atomics are needed; the
 * structure still follows the classic lock-free ring discipline —
 * fixed power-of-two storage, monotonically increasing head/tail
 * counters, mask indexing, and a drop-with-count overflow policy —
 * so the hot-path cost is an index mask and a store, and a future
 * multi-threaded host could swap the counters for atomics without
 * changing the layout.
 *
 * Overflow policy: when the ring is full the NEWEST event is dropped
 * and counted (the recorded prefix stays contiguous, which keeps the
 * Chrome trace self-consistent). Drops are never silent: the sinks
 * report the count, and tests assert on it.
 */

#ifndef CCNUMA_OBS_RING_HH
#define CCNUMA_OBS_RING_HH

#include <cstdint>
#include <vector>

#include "obs/trace_event.hh"

namespace ccnuma
{
namespace obs
{

/** Fixed-capacity FIFO of TraceEvents with counted overflow. */
class EventRing
{
  public:
    /** @param capacity entries; rounded up to a power of two. */
    explicit EventRing(std::size_t capacity)
    {
        std::size_t cap = 1;
        while (cap < capacity)
            cap <<= 1;
        buf_.resize(cap);
        mask_ = cap - 1;
    }

    std::size_t capacity() const { return buf_.size(); }
    std::size_t size() const
    {
        return static_cast<std::size_t>(head_ - tail_);
    }
    bool empty() const { return head_ == tail_; }

    /** Events accepted since construction (or the last clear()). */
    std::uint64_t pushed() const { return pushed_; }

    /** Events dropped because the ring was full. */
    std::uint64_t dropped() const { return dropped_; }

    /** @return false (and count a drop) when the ring is full. */
    bool
    push(const TraceEvent &ev)
    {
        if (size() == buf_.size()) {
            ++dropped_;
            return false;
        }
        buf_[head_ & mask_] = ev;
        ++head_;
        ++pushed_;
        return true;
    }

    /** Visit all buffered events oldest-first (does not consume). */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (std::uint64_t i = tail_; i != head_; ++i)
            f(buf_[i & mask_]);
    }

    /** Discard everything, including the drop/push accounting. */
    void
    clear()
    {
        head_ = tail_ = 0;
        pushed_ = 0;
        dropped_ = 0;
    }

  private:
    std::vector<TraceEvent> buf_;
    std::size_t mask_ = 0;
    std::uint64_t head_ = 0; ///< next write position (monotonic)
    std::uint64_t tail_ = 0; ///< oldest retained event (monotonic)
    std::uint64_t pushed_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace obs
} // namespace ccnuma

#endif // CCNUMA_OBS_RING_HH
