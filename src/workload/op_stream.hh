/**
 * @file
 * Lazily generated per-thread operation streams.
 *
 * The original study drove its simulator with Augmint-instrumented
 * PowerPC binaries. Here each application thread is a C++20 coroutine
 * that computes on real data and yields an operation stream (loads,
 * stores, compute gaps, and synchronization) into the simulated
 * processor, which consumes it with full timing feedback: the
 * coroutine is only resumed when the simulated processor has finished
 * the previous operation, so contention reshapes the interleaving
 * exactly as in execution-driven simulation.
 */

#ifndef CCNUMA_WORKLOAD_OP_STREAM_HH
#define CCNUMA_WORKLOAD_OP_STREAM_HH

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace ccnuma
{

/** One operation issued by an application thread. */
struct ThreadOp
{
    enum class Kind : std::uint8_t
    {
        Load,    ///< read @c addr
        Store,   ///< write @c addr
        Compute, ///< execute @c count ALU/FPU instructions
        Barrier, ///< global barrier @c count
        Lock,    ///< acquire lock @c count
        Unlock,  ///< release lock @c count
        End,     ///< thread finished
    };

    Kind kind = Kind::End;
    Addr addr = 0;
    std::uint32_t count = 0; ///< instructions, or sync identifier

    static ThreadOp load(Addr a) { return {Kind::Load, a, 0}; }
    static ThreadOp store(Addr a) { return {Kind::Store, a, 0}; }
    static ThreadOp
    compute(std::uint32_t n)
    {
        return {Kind::Compute, 0, n};
    }
    static ThreadOp
    barrier(std::uint32_t id)
    {
        return {Kind::Barrier, 0, id};
    }
    static ThreadOp lock(std::uint32_t id) { return {Kind::Lock, 0, id}; }
    static ThreadOp
    unlock(std::uint32_t id)
    {
        return {Kind::Unlock, 0, id};
    }
};

/**
 * A ThreadOp packed into 8 bytes, the storage unit of captured replay
 * traces (a ThreadOp is 24 bytes, two thirds of them padding). The
 * kind sits in the top 3 bits; the remaining 61 bits carry the one
 * field the kind uses: the address of a Load/Store, the count of
 * every other kind. Packing is exact — packOp refuses any op whose
 * unpacked form would differ — so a replayed stream is field-for-field
 * the stream that was captured.
 */
using PackedOp = std::uint64_t;

inline constexpr unsigned packedKindShift = 61;
inline constexpr PackedOp packedPayloadMask =
    (PackedOp(1) << packedKindShift) - 1;

/**
 * Pack @p op into @p out.
 * @return false when @p op cannot round-trip through unpackOp: kind
 *         End (a stream ends by running out, not by an op), an
 *         address of 2^61 or more, or a nonzero field the kind does
 *         not carry.
 */
inline bool
packOp(const ThreadOp &op, PackedOp &out)
{
    const auto kind = static_cast<PackedOp>(op.kind);
    PackedOp payload;
    switch (op.kind) {
      case ThreadOp::Kind::Load:
      case ThreadOp::Kind::Store:
        if (op.count != 0 || op.addr > packedPayloadMask)
            return false;
        payload = op.addr;
        break;
      case ThreadOp::Kind::Compute:
      case ThreadOp::Kind::Barrier:
      case ThreadOp::Kind::Lock:
      case ThreadOp::Kind::Unlock:
        if (op.addr != 0)
            return false;
        payload = op.count;
        break;
      default:
        return false;
    }
    out = (kind << packedKindShift) | payload;
    return true;
}

/** Inverse of packOp for any op packOp produced. */
inline ThreadOp
unpackOp(PackedOp p)
{
    ThreadOp op;
    op.kind = static_cast<ThreadOp::Kind>(p >> packedKindShift);
    const PackedOp payload = p & packedPayloadMask;
    const bool mem = op.kind <= ThreadOp::Kind::Store;
    op.addr = mem ? payload : 0;
    op.count = mem ? 0 : static_cast<std::uint32_t>(payload);
    return op;
}

/**
 * Ops per chunk of a captured trace: 64 KiB, below glibc's 128 KiB
 * mmap threshold, so chunks come from the allocating thread's arena
 * instead of page-faulting fresh mappings one after another.
 */
inline constexpr std::size_t replayChunkOps = 8192;

/**
 * One thread's packed ops, stored in fixed-size chunks of
 * replayChunkOps. Appending never copies what is already stored (a
 * std::vector copies its whole payload on every regrow), so several
 * host threads can capture streams side by side without their
 * buffers' page faults serializing.
 */
class ChunkedOps
{
  public:
    std::size_t size() const { return size_; }

    PackedOp
    operator[](std::size_t i) const
    {
        return chunks_[i / replayChunkOps][i % replayChunkOps];
    }

    void
    push_back(PackedOp p)
    {
        if (size_ % replayChunkOps == 0)
            newChunk();
        chunks_.back()[size_ % replayChunkOps] = p;
        ++size_;
    }

    std::size_t numChunks() const { return chunks_.size(); }

    /** Chunk @p c's ops; every chunk but the last is full. */
    std::span<const PackedOp>
    chunk(std::size_t c) const
    {
        const std::size_t first = c * replayChunkOps;
        return {chunks_[c].get(),
                std::min(replayChunkOps, size_ - first)};
    }

    /** Enough of an iterator for a range-for over the ops. */
    class const_iterator
    {
      public:
        const_iterator(const ChunkedOps *ops, std::size_t i)
            : ops_(ops), i_(i)
        {}
        PackedOp operator*() const { return (*ops_)[i_]; }
        const_iterator &
        operator++()
        {
            ++i_;
            return *this;
        }
        bool operator==(const const_iterator &) const = default;

      private:
        const ChunkedOps *ops_;
        std::size_t i_;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }

    friend bool
    operator==(const ChunkedOps &a, const ChunkedOps &b)
    {
        if (a.size_ != b.size_)
            return false;
        for (std::size_t c = 0; c < a.numChunks(); ++c) {
            auto x = a.chunk(c);
            if (!std::equal(x.begin(), x.end(), b.chunk(c).begin()))
                return false;
        }
        return true;
    }

  private:
    void
    newChunk()
    {
        chunks_.push_back(
            std::make_unique_for_overwrite<PackedOp[]>(replayChunkOps));
    }

    std::vector<std::unique_ptr<PackedOp[]>> chunks_;
    std::size_t size_ = 0;
};

/**
 * Move-only generator of ThreadOps. A workload kernel is a function
 * returning OpStream and yielding ThreadOps from a coroutine.
 *
 * A stream can alternatively serve ops out of a pre-captured buffer
 * of packed ops (fromBuffer): replayed sweeps walk each recorded
 * chunk with a bare pointer and unpack each op with a shift and a
 * mask, so next() performs no coroutine resume and no allocation.
 * The consumer cannot tell the difference — timing feedback only
 * controls *when* next() is called, never what it returns, so a
 * buffer recorded from one run replays bit-identically anywhere the
 * workload identity (kernel, thread count, scaling, seed) matches,
 * provided the workload's streams are independent
 * (Workload::independentStreams; replay.hh names the exception).
 */
class OpStream
{
  public:
    struct promise_type
    {
        ThreadOp current;

        OpStream
        get_return_object()
        {
            return OpStream(
                std::coroutine_handle<promise_type>::from_promise(
                    *this));
        }

        std::suspend_always initial_suspend() noexcept { return {}; }
        std::suspend_always final_suspend() noexcept { return {}; }

        std::suspend_always
        yield_value(ThreadOp op) noexcept
        {
            current = op;
            return {};
        }

        void return_void() noexcept {}
        void unhandled_exception() { std::terminate(); }
    };

    OpStream() = default;

    explicit OpStream(std::coroutine_handle<promise_type> h)
        : handle_(h)
    {}

    OpStream(OpStream &&o) noexcept
        : handle_(std::exchange(o.handle_, nullptr)),
          buf_(std::move(o.buf_)),
          nextChunk_(std::exchange(o.nextChunk_, 0)),
          cur_(std::exchange(o.cur_, nullptr)),
          end_(std::exchange(o.end_, nullptr))
    {}

    OpStream &
    operator=(OpStream &&o) noexcept
    {
        if (this != &o) {
            destroy();
            handle_ = std::exchange(o.handle_, nullptr);
            buf_ = std::move(o.buf_);
            nextChunk_ = std::exchange(o.nextChunk_, 0);
            cur_ = std::exchange(o.cur_, nullptr);
            end_ = std::exchange(o.end_, nullptr);
        }
        return *this;
    }

    OpStream(const OpStream &) = delete;
    OpStream &operator=(const OpStream &) = delete;

    ~OpStream() { destroy(); }

    /**
     * Build a stream that replays packed @p ops in order. The
     * shared_ptr keeps the owning replay buffer alive (typically via
     * the aliasing constructor into one of its per-thread streams);
     * serving an op is a pointer read with no allocation.
     */
    static OpStream
    fromBuffer(std::shared_ptr<const ChunkedOps> ops)
    {
        OpStream s;
        s.buf_ = std::move(ops);
        return s;
    }

    /** @return true iff the stream holds a coroutine or a buffer. */
    explicit operator bool() const
    {
        return handle_ != nullptr || buf_ != nullptr;
    }

    /**
     * Advance to the next operation.
     * @return false when the thread's program has ended.
     */
    bool
    next(ThreadOp &out)
    {
        if (buf_) {
            if (cur_ == end_ && !loadChunk())
                return false;
            out = unpackOp(*cur_++);
            return true;
        }
        if (!handle_ || handle_.done())
            return false;
        handle_.resume();
        if (handle_.done())
            return false;
        out = handle_.promise().current;
        return true;
    }

  private:
    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    /** Point cur_/end_ at buf_'s next chunk; false past the last. */
    bool
    loadChunk()
    {
        if (nextChunk_ >= buf_->numChunks())
            return false;
        std::span<const PackedOp> c = buf_->chunk(nextChunk_++);
        cur_ = c.data();
        end_ = c.data() + c.size();
        return true;
    }

    std::coroutine_handle<promise_type> handle_;
    /** Replay source; when set, next() never touches the coroutine. */
    std::shared_ptr<const ChunkedOps> buf_;
    /** Index in buf_ of the chunk after the one being served. */
    std::size_t nextChunk_ = 0;
    /** Unserved ops of the current chunk. */
    const PackedOp *cur_ = nullptr;
    const PackedOp *end_ = nullptr;
};

} // namespace ccnuma

#endif // CCNUMA_WORKLOAD_OP_STREAM_HH
