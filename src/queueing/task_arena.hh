/**
 * @file
 * TaskArena: a per-simulation pool for the containers that hold queued
 * Task state (a Server's wait queue, a RetryQueue's flight table).
 *
 * Tasks themselves are plain 56-byte values, but the containers that
 * buffer them allocate nodes and block maps from the global heap — and in
 * a cancel/retry-heavy simulation those allocations recur millions of
 * times with identical sizes. The arena serves them from size-class free
 * lists carved out of 64 KiB chunks: steady-state churn recycles blocks
 * in O(1) with no global-allocator traffic, and everything is returned to
 * the system at once when the simulation is destroyed (the pooled-request
 * idiom of HybridSim-style simulators).
 *
 * The arena changes *where* container memory lives, never *what* the
 * simulation computes: arena-on and arena-off runs of the same seed are
 * bit-identical (pinned by test_backend_equivalence).
 */

#ifndef BIGHOUSE_QUEUEING_TASK_ARENA_HH
#define BIGHOUSE_QUEUEING_TASK_ARENA_HH

#include <bit>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "base/logging.hh"

namespace bighouse {

/** Size-class pooled allocator backing one simulation's task containers. */
class TaskArena
{
  public:
    TaskArena() = default;

    /// The free lists point into the chunks; the arena must stay put.
    TaskArena(const TaskArena&) = delete;
    TaskArena& operator=(const TaskArena&) = delete;

    /**
     * Allocate `bytes` (aligned for any object up to max_align_t).
     * Requests above kMaxPooledBytes go straight to the global heap —
     * one-off container growth spikes should not become permanent pool
     * residents.
     */
    void*
    allocate(std::size_t bytes)
    {
        if (bytes > kMaxPooledBytes) [[unlikely]]
            return ::operator new(bytes);
        const std::size_t cls = sizeClass(bytes);
        if (freeLists[cls] == nullptr) [[unlikely]]
            refill(cls);
        FreeBlock* block = freeLists[cls];
        freeLists[cls] = block->next;
        ++outstanding;
        return block;
    }

    /** Return a block; pooled blocks go back on their size-class list. */
    void
    deallocate(void* p, std::size_t bytes) noexcept
    {
        if (bytes > kMaxPooledBytes) [[unlikely]] {
            ::operator delete(p);
            return;
        }
        auto* block = static_cast<FreeBlock*>(p);
        const std::size_t cls = sizeClass(bytes);
        block->next = freeLists[cls];
        freeLists[cls] = block;
        BH_ASSERT(outstanding > 0, "arena deallocate with nothing live");
        --outstanding;
    }

    /** Bytes of chunk storage reserved from the system so far. */
    std::size_t bytesReserved() const { return chunks.size() * kChunkBytes; }

    /** Pooled blocks currently handed out (leak canary for tests). */
    std::size_t blocksOutstanding() const { return outstanding; }

  private:
    /// One chunk feeds one size class at a time; 64 KiB keeps the
    /// carve-up coarse enough that even the 4 KiB class gets 16 blocks.
    static constexpr std::size_t kChunkBytes = 64 * 1024;
    /// Smallest block: holds the free-list link and keeps every block
    /// offset max_align_t-aligned within its chunk.
    static constexpr std::size_t kMinBlockBytes = alignof(std::max_align_t);
    static constexpr std::size_t kMaxPooledBytes = 4096;
    static constexpr std::size_t kNumClasses =
        std::bit_width(kMaxPooledBytes) - std::bit_width(kMinBlockBytes) + 1;

    struct FreeBlock
    {
        FreeBlock* next;
    };

    static std::size_t
    sizeClass(std::size_t bytes)
    {
        const std::size_t rounded =
            std::bit_ceil(bytes < kMinBlockBytes ? kMinBlockBytes : bytes);
        return static_cast<std::size_t>(std::bit_width(rounded))
               - std::bit_width(kMinBlockBytes);
    }

    /** Carve a fresh chunk into blocks of class `cls`. */
    void refill(std::size_t cls);

    std::vector<std::unique_ptr<std::byte[]>> chunks;
    FreeBlock* freeLists[kNumClasses] = {};
    std::size_t outstanding = 0;
};

/**
 * STL allocator adapter over a TaskArena. A null arena falls back to the
 * global heap, so "arena off" is the same container type with the same
 * behavior — only the memory source differs.
 */
template <typename T>
class ArenaAlloc
{
  public:
    using value_type = T;
    using propagate_on_container_move_assignment = std::true_type;
    using propagate_on_container_swap = std::true_type;

    ArenaAlloc() noexcept = default;
    explicit ArenaAlloc(TaskArena* arena) noexcept : arena(arena) {}

    template <typename U>
    ArenaAlloc(const ArenaAlloc<U>& other) noexcept : arena(other.arena)
    {}

    T*
    allocate(std::size_t n)
    {
        static_assert(alignof(T) <= alignof(std::max_align_t),
                      "over-aligned types cannot live in a TaskArena");
        const std::size_t bytes = n * sizeof(T);
        BH_ASSERT(n <= SIZE_MAX / sizeof(T), "allocation size overflow");
        if (arena != nullptr)
            return static_cast<T*>(arena->allocate(bytes));
        return static_cast<T*>(
            ::operator new(bytes));
    }

    void
    deallocate(T* p, std::size_t n) noexcept
    {
        const std::size_t bytes = n * sizeof(T);
        if (arena != nullptr) {
            arena->deallocate(p, bytes);
            return;
        }
        ::operator delete(p);
    }

    TaskArena* arena = nullptr;
};

template <typename A, typename B>
bool
operator==(const ArenaAlloc<A>& a, const ArenaAlloc<B>& b) noexcept
{
    return a.arena == b.arena;
}

} // namespace bighouse

#endif // BIGHOUSE_QUEUEING_TASK_ARENA_HH
