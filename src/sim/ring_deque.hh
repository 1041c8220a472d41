/**
 * @file
 * Growable power-of-two ring deque.
 *
 * The simulator's FIFOs (bus grant queue, protocol-engine dispatch
 * queues) cycle millions of entries through a small live window.
 * std::deque allocates and frees a block every few dozen pushes as
 * that window crawls through memory; this ring keeps one buffer,
 * indexes it by mask, and only ever grows (doubling) when the live
 * window outgrows it, so a warm queue never touches the heap.
 */

#ifndef CCNUMA_SIM_RING_DEQUE_HH
#define CCNUMA_SIM_RING_DEQUE_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace ccnuma
{

/**
 * Double-ended FIFO over a power-of-two ring buffer. Elements must
 * be default-constructible and move-assignable; popped slots keep
 * their (moved-from) values until overwritten.
 */
template <typename T>
class RingDeque
{
  public:
    RingDeque() = default;

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** The @p i-th element from the front. */
    T &operator[](std::size_t i) { return buf_[(head_ + i) & mask_]; }
    const T &
    operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & mask_];
    }

    T &
    front()
    {
        ccnuma_assert(size_ != 0);
        return buf_[head_];
    }

    void
    push_back(T v)
    {
        if (size_ == buf_.size())
            grow();
        buf_[(head_ + size_) & mask_] = std::move(v);
        ++size_;
    }

    void
    push_front(T v)
    {
        if (size_ == buf_.size())
            grow();
        head_ = (head_ + mask_) & mask_;
        buf_[head_] = std::move(v);
        ++size_;
    }

    void
    pop_front()
    {
        ccnuma_assert(size_ != 0);
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    /** Drop every element; the buffer is kept for reuse. */
    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

    /** Forward iteration, front to back. */
    template <typename Ring, typename Ref>
    class Iter
    {
      public:
        Iter(Ring *r, std::size_t i) : r_(r), i_(i) {}
        Ref operator*() const { return (*r_)[i_]; }
        Iter &
        operator++()
        {
            ++i_;
            return *this;
        }
        bool operator!=(const Iter &o) const { return i_ != o.i_; }

      private:
        Ring *r_;
        std::size_t i_;
    };
    using iterator = Iter<RingDeque, T &>;
    using const_iterator = Iter<const RingDeque, const T &>;

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, size_}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }

  private:
    void
    grow()
    {
        std::size_t cap = buf_.empty() ? 8 : buf_.size() * 2;
        std::vector<T> next(cap);
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = std::move((*this)[i]);
        buf_ = std::move(next);
        head_ = 0;
        mask_ = cap - 1;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
};

} // namespace ccnuma

#endif // CCNUMA_SIM_RING_DEQUE_HH
