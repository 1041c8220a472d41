/**
 * @file
 * Move-only type-erased callable stored entirely in place.
 *
 * Unlike std::function (which heap-allocates any capture larger than
 * two pointers) and SmallCallback (which falls back to the heap for
 * oversized captures), an InplaceFunction has no heap path at all: a
 * callable that does not fit its fixed capacity is a compile error.
 * The coherence controller stores its handler actions in these, so
 * dispatching a protocol handler never allocates.
 */

#ifndef CCNUMA_SIM_INPLACE_FUNCTION_HH
#define CCNUMA_SIM_INPLACE_FUNCTION_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/logging.hh"

namespace ccnuma
{

template <typename Sig, std::size_t Capacity>
class InplaceFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InplaceFunction<R(Args...), Capacity>
{
  public:
    static constexpr std::size_t capacity = Capacity;

    InplaceFunction() = default;
    InplaceFunction(std::nullptr_t) {}

    template <typename F,
              typename Fn = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<Fn, InplaceFunction> &&
                  std::is_invocable_r_v<R, Fn &, Args...>>>
    InplaceFunction(F &&f)
    {
        static_assert(sizeof(Fn) <= Capacity,
                      "callable capture exceeds the InplaceFunction "
                      "capacity; capture less (read shared state "
                      "through this instead)");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "over-aligned callable");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "callable must be nothrow-movable");
        ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
        ops_ = &opsFor<Fn>;
    }

    InplaceFunction(InplaceFunction &&o) noexcept { take(o); }

    InplaceFunction &
    operator=(InplaceFunction &&o) noexcept
    {
        if (this != &o) {
            reset();
            take(o);
        }
        return *this;
    }

    InplaceFunction &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    InplaceFunction(const InplaceFunction &) = delete;
    InplaceFunction &operator=(const InplaceFunction &) = delete;

    ~InplaceFunction() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }

    R
    operator()(Args... args)
    {
        ccnuma_assert(ops_ != nullptr);
        return ops_->invoke(buf_, std::forward<Args>(args)...);
    }

    /** Destroy the held callable (if any). */
    void
    reset() noexcept
    {
        if (ops_ != nullptr) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args &&...);
        void (*move)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
    };

    template <typename Fn>
    static constexpr Ops opsFor = {
        [](void *p, Args &&...a) -> R {
            return (*static_cast<Fn *>(p))(std::forward<Args>(a)...);
        },
        [](void *dst, void *src) noexcept {
            ::new (dst) Fn(std::move(*static_cast<Fn *>(src)));
        },
        [](void *p) noexcept { static_cast<Fn *>(p)->~Fn(); },
    };

    void
    take(InplaceFunction &o) noexcept
    {
        if (o.ops_ == nullptr)
            return;
        o.ops_->move(buf_, o.buf_);
        ops_ = o.ops_;
        o.reset();
    }

    const Ops *ops_ = nullptr;
    alignas(std::max_align_t) unsigned char buf_[Capacity];
};

} // namespace ccnuma

#endif // CCNUMA_SIM_INPLACE_FUNCTION_HH
