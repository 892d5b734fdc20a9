/**
 * @file
 * InlineCallback: a fixed-capacity, allocation-free `void()` callable.
 *
 * Every simulated event carries one callback, and with std::function each
 * push paid a heap allocation (the captures of the queueing/policy
 * lambdas exceed libstdc++'s tiny SBO for non-trivially-copyable states).
 * InlineCallback stores the capture inline in a small buffer, so the DES
 * hot path never touches the allocator. Oversized captures are a
 * compile-time error (static_assert), not a silent fallback to the heap:
 * a capture that big belongs in an owning model object, with the event
 * capturing a pointer to it.
 *
 * Unlike std::function, InlineCallback is move-only and supports
 * move-only captures (e.g. std::unique_ptr), which the event queue needs
 * so cancel() can destroy captured state eagerly.
 */

#ifndef BIGHOUSE_SIM_INLINE_CALLBACK_HH
#define BIGHOUSE_SIM_INLINE_CALLBACK_HH

#include <cstddef>
#include <cstring>
#include <type_traits>
#include <utility>

#include "base/logging.hh"

namespace bighouse {

/** Allocation-free, move-only `void()` callable with inline storage. */
class InlineCallback
{
  public:
    /**
     * Inline capture budget, in bytes. The simulator's largest real
     * capture (`[this, ticket, id]` in RetryQueue) is 24 bytes; the
     * budget leaves a pointer of headroom and is sized so that an
     * EventQueue slot (callback + bookkeeping) packs into a single
     * 64-byte cache line, which the push/pop hot path touches once per
     * event.
     */
    static constexpr std::size_t kCapacity = 32;

    /**
     * Storage alignment. Pointer alignment suffices for every event
     * closure the simulator builds (captures are pointers, indices, and
     * doubles); anything over-aligned is rejected at compile time. Kept
     * at 8 so sizeof(InlineCallback) is 40, which is what lets an
     * EventQueue slot pack into one cache line.
     */
    static constexpr std::size_t kAlignment = 8;

    /** Whether callable F can be stored (size, alignment, noexcept-move). */
    template <typename F>
    static constexpr bool
    canHold()
    {
        using Fn = std::remove_cvref_t<F>;
        return sizeof(Fn) <= kCapacity
               && alignof(Fn) <= kAlignment
               && std::is_nothrow_move_constructible_v<Fn>;
    }

    /** Empty (non-callable) callback. */
    InlineCallback() noexcept = default;

    /** Wrap a callable. Rejects oversized captures at compile time. */
    template <typename F>
        requires(!std::is_same_v<std::remove_cvref_t<F>, InlineCallback>
                 && std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
    InlineCallback(F&& fn) noexcept  // NOLINT(bugprone-forwarding-reference-overload)
    {
        using Fn = std::remove_cvref_t<F>;
        static_assert(sizeof(Fn) <= kCapacity,
                      "event-callback capture exceeds "
                      "InlineCallback::kCapacity; capture a pointer to "
                      "long-lived model state instead of copying it into "
                      "the event");
        static_assert(alignof(Fn) <= kAlignment,
                      "event-callback capture is over-aligned for "
                      "InlineCallback's inline storage");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "event-callback captures must be nothrow-movable so "
                      "heap sifts cannot throw mid-swap");
        // Placement-new into the inline buffer: the whole point of this
        // type is that ownership never leaves the object.
        ::new (static_cast<void*>(storage)) Fn(std::forward<F>(fn));  // bh-lint: allow(raw-new-delete)
        ops = opsFor<Fn>();
    }

    InlineCallback(InlineCallback&& other) noexcept : ops(other.ops)
    {
        if (ops != nullptr) {
            relocateFrom(other);
            other.ops = nullptr;
        }
    }

    InlineCallback&
    operator=(InlineCallback&& other) noexcept
    {
        if (this != &other) {
            reset();
            if (other.ops != nullptr) {
                ops = other.ops;
                relocateFrom(other);
                other.ops = nullptr;
            }
        }
        return *this;
    }

    InlineCallback(const InlineCallback&) = delete;
    InlineCallback& operator=(const InlineCallback&) = delete;

    ~InlineCallback() { reset(); }

    /** Invoke the wrapped callable. @pre bool(*this) */
    void
    operator()()
    {
        BH_ASSERT(ops != nullptr, "invoking an empty InlineCallback");
        ops->invoke(storage);
    }

    /** True when a callable is stored. */
    explicit operator bool() const noexcept { return ops != nullptr; }

    /**
     * Construct a callable directly in this object's storage, replacing
     * any current one. This is the zero-relocation path the event queue
     * uses to build an event's callback in its slot in place, instead of
     * constructing a temporary and moving it there.
     */
    template <typename F>
        requires(!std::is_same_v<std::remove_cvref_t<F>, InlineCallback>
                 && std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
    void
    emplace(F&& fn) noexcept
    {
        using Fn = std::remove_cvref_t<F>;
        static_assert(canHold<F>(),
                      "event-callback capture exceeds InlineCallback's "
                      "inline storage (size, alignment, or noexcept-move)");
        reset();
        ::new (static_cast<void*>(storage)) Fn(std::forward<F>(fn));  // bh-lint: allow(raw-new-delete)
        ops = opsFor<Fn>();
    }

    /** Destroy the stored callable (and everything it captured) now. */
    void
    reset() noexcept
    {
        if (ops != nullptr) {
            if (!ops->trivial)
                ops->destroy(storage);
            ops = nullptr;
        }
    }

  private:
    /** Per-capture-type manual vtable (one static instance per Fn). */
    struct Ops
    {
        void (*invoke)(void* self);
        void (*relocate)(void* src, void* dst) noexcept;
        void (*destroy)(void* self) noexcept;
        /// Trivially copyable captures (plain lambdas over pointers and
        /// numbers — every simulator hot-path event) relocate as a fixed
        /// memcpy and destroy as a no-op, skipping both indirect calls.
        bool trivial;
    };

    /**
     * Move other's capture into our storage. @pre ops == other.ops and
     * other holds a callable; the caller clears other.ops afterwards.
     */
    void
    relocateFrom(InlineCallback& other) noexcept
    {
        if (ops->trivial) {
            // Fixed-size copy: branchless, inlines to a few vector moves,
            // and reading the unused storage tail is harmless.
            std::memcpy(storage, other.storage, kCapacity);
        } else {
            ops->relocate(other.storage, storage);
        }
    }

    template <typename Fn>
    static const Ops*
    opsFor() noexcept
    {
        static constexpr Ops table{
            [](void* self) { (*static_cast<Fn*>(self))(); },
            [](void* src, void* dst) noexcept {
                ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));  // bh-lint: allow(raw-new-delete)
                static_cast<Fn*>(src)->~Fn();
            },
            [](void* self) noexcept { static_cast<Fn*>(self)->~Fn(); },
            std::is_trivially_copyable_v<Fn>,
        };
        return &table;
    }

    alignas(kAlignment) std::byte storage[kCapacity];
    const Ops* ops = nullptr;
};

} // namespace bighouse

#endif // BIGHOUSE_SIM_INLINE_CALLBACK_HH
