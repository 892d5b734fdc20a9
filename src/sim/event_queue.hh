/**
 * @file
 * The pending-event set of the discrete-event simulator: a hand-rolled
 * 4-ary min-heap over (time, sequence number). O(log n) push and pop.
 *
 * Events scheduled for the same instant execute in scheduling order,
 * which makes whole simulations bit-reproducible under a fixed seed — a
 * property the regression tests and the master/slave protocol rely on
 * (tests/test_trace_reproducibility.cc).
 *
 * Hot-path layout: heap entries are 16-byte PODs of two integers, and
 * the callback lives in a side slot table indexed by the entry. `key` is
 * the IEEE-754 bit pattern of the event time: times are >= 0, and
 * non-negative doubles order like their bit patterns once -0.0 is folded
 * to +0.0 (unfolded, its sign bit would sort it after every positive
 * time). `tag` is `seq << 24 | slot`. Sequence numbers are unique, so
 * comparing (key, tag) as one unsigned 128-bit integer is exactly the
 * (time, seq) order; the slot bits never decide. The packed widths cap
 * one queue at 2^40 pushes over its lifetime (1.1e12) and 2^24 slots
 * (16.7M pending events); checkedSeq() and checkedSlotIndex() die at
 * those limits instead of truncating. Heap operations move
 * trivially-copyable records, never hash, and no path allocates in
 * steady state (callbacks are InlineCallback, not std::function).
 *
 * The heap is 4-ary (LaMarca & Ladner 1996): half the depth of a binary
 * heap, and a node's four children are 64 contiguous bytes. pop() moves
 * the root hole down the smaller-child path to a leaf, then sifts the
 * former last entry up from there, which usually belongs near the
 * bottom; the walk down compares only siblings.
 *
 * Cancellation (needed for preempted service completions under DVFS
 * throttling and sleep-state transitions) releases the callback — and
 * everything it captured — immediately, and the generation-tagged slot
 * table makes stale or reused EventIds detectably invalid. The heap entry
 * itself becomes a tombstone (O(1)) swept lazily: when dead entries
 * outnumber live ones the heap is compacted wholesale, bounding memory
 * under cancel-heavy policies. The heap top is always live, so
 * nextTime() is a const O(1) query.
 */

#ifndef BIGHOUSE_SIM_EVENT_QUEUE_HH
#define BIGHOUSE_SIM_EVENT_QUEUE_HH

#include <bit>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/contracts.hh"
#include "base/time.hh"
#include "sim/inline_callback.hh"

namespace bighouse {

/** Action executed when an event fires. Allocation-free; see above. */
using EventCallback = InlineCallback;

/**
 * Opaque handle identifying a scheduled event for cancellation. The
 * default-constructed handle is invalid: cancelling it is a no-op.
 */
struct EventId
{
    std::uint64_t seq = ~std::uint64_t{0};
    std::uint32_t slot = ~std::uint32_t{0};

    bool operator==(const EventId&) const = default;
};

/** Pending-event set ordered by (time, seq) with FIFO tie-breaking. */
class EventQueue
{
  public:
    /** An event handed out by pop(). */
    struct Popped
    {
        Time time = 0.0;
        std::uint64_t seq = 0;
        EventCallback callback;
    };

    /** Insert an event; returns a handle usable with cancel(). */
    EventId push(Time time, EventCallback callback);

    /**
     * Insert an event built from any callable, constructing it directly
     * in the slot's callback storage — the zero-relocation hot path the
     * engine's schedule() templates route through.
     */
    template <typename Fn,
              typename = std::enable_if_t<
                  !std::is_same_v<std::remove_cvref_t<Fn>, EventCallback>>>
    EventId
    push(Time time, Fn&& fn)
    {
        const EventId id = allocEntry(time);
        slots[id.slot].callback.emplace(std::forward<Fn>(fn));
        return id;
    }

    /** Earliest pending (non-cancelled) event time; kTimeNever if empty. */
    Time
    nextTime() const
    {
        return liveCount == 0 ? kTimeNever
                              : std::bit_cast<Time>(heap.front().key);
    }

    /** Sequence number of the earliest pending event. @pre !empty() */
    std::uint64_t nextSeq() const;

    /**
     * Remove and return the earliest pending event. The slot's callback
     * storage is released eagerly — once pop() returns, the queue holds
     * no reference to the callback or anything it captured.
     * @pre !empty()
     */
    Popped pop();

    /**
     * Cancel a scheduled event. The callback (and its captured state) is
     * destroyed immediately; only a 16-byte tombstone lingers in the
     * heap until swept.
     * @return true when the event was pending, false when it already
     *         fired or was cancelled before.
     */
    bool cancel(EventId id);

    /** Number of live (non-cancelled) pending events. */
    std::size_t size() const { return liveCount; }

    /** True when no live events remain. */
    bool empty() const { return liveCount == 0; }

    /** Physical heap entries, live + tombstoned (memory tests). */
    std::size_t heapSize() const { return heap.size(); }

    /** Tombstoned entries still physically in the heap. */
    std::size_t deadEntries() const { return deadCount; }

    /** Total events ever pushed (also the next sequence number). */
    std::uint64_t pushCount() const { return seqCounter; }

    /** Threshold-triggered tombstone sweeps run so far. */
    std::uint64_t compactions() const { return compactCount; }

    /**
     * The slot-index overflow guard, exposed so the guard path is unit
     * testable without allocating 2^24 slots: returns `slotCount` as the
     * next slot index, or dies when the index no longer fits the heap
     * tag's 24 slot bits.
     */
    static std::uint32_t checkedSlotIndex(std::size_t slotCount);

    /**
     * The sequence-width guard, exposed so the guard path is unit
     * testable without 2^40 pushes: returns `seq`, or dies when it no
     * longer fits the heap tag's 40 sequence bits.
     */
    static std::uint64_t
    checkedSeq(std::uint64_t seq)
    {
        BH_REQUIRE(seq < kSeqLimit,
                   "event queue sequence space exhausted: push ", seq,
                   " (max ", kSeqLimit - 1, ")");
        return seq;
    }

  private:
    /// Free-list terminator / invalid-EventId sentinel slot index.
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    /// Low tag bits holding the slot index; the sequence sits above.
    static constexpr unsigned kSlotBits = 24;
    static constexpr std::uint64_t kSlotMask =
        (std::uint64_t{1} << kSlotBits) - 1;
    /// Exclusive limits of the two packed fields.
    static constexpr std::uint64_t kSlotLimit = kSlotMask + 1;
    static constexpr std::uint64_t kSeqLimit =
        std::uint64_t{1} << (64 - kSlotBits);

    /** 16-byte POD heap record; the callback lives in slots[slot]. */
    struct Entry
    {
        std::uint64_t key;  ///< bit pattern of the time, -0.0 folded
        std::uint64_t tag;  ///< seq << kSlotBits | slot
    };
    static_assert(sizeof(Entry) == 16);

    /**
     * Callback storage for one pending event; reused via a free list.
     * Cache-line aligned and exactly one line big (the static_assert
     * below), so every push/pop touches one line of the slot table.
     */
    struct alignas(64) Slot
    {
        EventCallback callback;
        /// Sequence of the event currently (or last) using this slot; a
        /// heap entry whose seq differs is a tombstone of a prior tenant.
        std::uint64_t seq = 0;
        std::uint32_t nextFree = ~std::uint32_t{0};
        /// False once cancelled or popped (tombstones the entry).
        bool live = false;
    };
    static_assert(sizeof(Slot) == 64,
                  "Slot outgrew one cache line — rebalance "
                  "InlineCallback::kCapacity against the bookkeeping");

    /// The whole entry as one integer; compares are branch-free.
    __extension__ typedef unsigned __int128 Wide;

    /**
     * The heap key of a time. @pre time >= 0, so the sign bit is set
     * only on -0.0, and clearing it folds -0.0 onto +0.0.
     */
    static std::uint64_t
    keyOf(Time time)
    {
        return std::bit_cast<std::uint64_t>(time) & ~(std::uint64_t{1} << 63);
    }

    /** Ordering: earlier time first, then earlier sequence. */
    static bool
    less(const Entry& a, const Entry& b)
    {
        return (Wide{a.key} << 64 | a.tag) < (Wide{b.key} << 64 | b.tag);
    }

    static std::uint32_t
    slotOf(const Entry& entry)
    {
        return static_cast<std::uint32_t>(entry.tag & kSlotMask);
    }

    static std::uint64_t
    seqOf(const Entry& entry)
    {
        return entry.tag >> kSlotBits;
    }

    /** True when `entry` still denotes a pending (uncancelled) event. */
    bool
    isLive(const Entry& entry) const
    {
        const Slot& s = slots[slotOf(entry)];
        return s.live && s.seq == seqOf(entry);
    }

    /** Shared push bookkeeping: everything except the callback. */
    EventId allocEntry(Time time);

    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t index);

    /** Place `moving` at `hole` or above it, but no higher than `top`. */
    void siftUp(std::size_t hole, Entry moving, std::size_t top);
    /** Move the hole down the smaller-child path; returns the leaf. */
    std::size_t holeToLeaf(std::size_t hole);
    void removeTop();
    /** Drop tombstones off the heap top until the top is live. */
    void pruneTop();
    /** Drop every tombstone and re-heapify in O(n). */
    void compact();
#ifdef BIGHOUSE_AUDIT
    bool ordered() const;
#endif

    /// Compaction floor: below this many tombstones the sweep would cost
    /// more than the memory it reclaims.
    static constexpr std::size_t kCompactMin = 64;

    std::vector<Entry> heap;
    std::vector<Slot> slots;
    std::uint32_t freeHead = ~std::uint32_t{0};
    /// Time of the most recently popped event (monotonicity contract).
    Time lastPopped = 0.0;
    std::size_t liveCount = 0;
    /// Tombstoned entries still physically in the heap.
    std::size_t deadCount = 0;
    std::uint64_t seqCounter = 0;
    /// Lifetime count of tombstone sweeps (cold path; telemetry).
    std::uint64_t compactCount = 0;
};

// ---------------------------------------------------------------------
// Hot-path definitions. push()/pop() and the heap operations they call
// are header-inline so the engine's dispatch loop (and the benches)
// compile them into the call site — the build uses no LTO, so an
// out-of-line definition would cost an opaque call per event op. Cold
// paths (cancel, compaction) stay in the .cc.
// ---------------------------------------------------------------------

inline std::uint32_t
EventQueue::allocSlot()
{
    if (freeHead != kNoSlot) {
        const std::uint32_t index = freeHead;
        freeHead = slots[index].nextFree;
        return index;
    }
    const std::uint32_t index = checkedSlotIndex(slots.size());
    slots.emplace_back();
    return index;
}

inline void
EventQueue::freeSlot(std::uint32_t index)
{
    slots[index].nextFree = freeHead;
    freeHead = index;
}

inline EventId
EventQueue::allocEntry(Time time)
{
    BH_REQUIRE(time >= 0.0, "event scheduled at negative time");
    const std::uint64_t seq = checkedSeq(seqCounter++);
    const std::uint32_t slot = allocSlot();
    Slot& s = slots[slot];
    s.seq = seq;
    s.live = true;
    ++liveCount;
    const Entry entry{keyOf(time), seq << kSlotBits | slot};
    heap.push_back(entry);
    siftUp(heap.size() - 1, entry, 0);
    BH_AUDIT(ordered(), "heap order broken after push of t=", time);
    return EventId{seq, slot};
}

inline EventId
EventQueue::push(Time time, EventCallback callback)
{
    const EventId id = allocEntry(time);
    slots[id.slot].callback = std::move(callback);
    return id;
}

inline EventQueue::Popped
EventQueue::pop()
{
    // The top is kept live, so liveCount == 0 implies the heap is
    // physically empty and vice versa.
    BH_REQUIRE(liveCount > 0, "pop() on an empty event queue");
    const Entry top = heap.front();
    removeTop();
    pruneTop();
    BH_AUDIT(ordered(), "heap order broken after pop");
    const Time time = std::bit_cast<Time>(top.key);
    const std::uint32_t slot = slotOf(top);
    Slot& s = slots[slot];
    Popped out{time, seqOf(top), std::move(s.callback)};
    // A moved-from InlineCallback is valid-but-unspecified: it may still
    // own its captures. Destroy explicitly so the queue provably drops
    // every captured resource before the slot returns to the free list —
    // the same eager release cancel() performs.
    s.callback.reset();
    s.live = false;
    freeSlot(slot);
    --liveCount;
    // Monotonic delivery is what makes runs bit-reproducible: once an
    // event at time t is handed out, nothing earlier may ever surface.
    BH_INVARIANT(time >= lastPopped, "event times went backwards: popped t=",
                 time, " after t=", lastPopped);
    lastPopped = time;
    return out;
}

inline void
EventQueue::siftUp(std::size_t hole, Entry moving, std::size_t top)
{
    // Hole percolation (shift, then place): one store per level instead
    // of a swap's three.
    Entry* const h = heap.data();
    while (hole > top) {
        const std::size_t parent = (hole - 1) / 4;
        if (!less(moving, h[parent]))
            break;
        h[hole] = h[parent];
        hole = parent;
    }
    h[hole] = moving;
}

inline std::size_t
EventQueue::holeToLeaf(std::size_t hole)
{
    Entry* const h = heap.data();
    const std::size_t n = heap.size();
    while (true) {
        const std::size_t first = 4 * hole + 1;
        if (first >= n)
            return hole;
        std::size_t child = first;
        if (first + 4 <= n) {
            // A full node: a two-round tournament the compiler turns
            // into conditional moves.
            const std::size_t third = first + 2;
            const std::size_t a =
                first + static_cast<std::size_t>(less(h[first + 1], h[first]));
            const std::size_t b =
                third + static_cast<std::size_t>(less(h[third + 1], h[third]));
            child = less(h[b], h[a]) ? b : a;
        } else {
            for (std::size_t c = first + 1; c < n; ++c) {
                if (less(h[c], h[child]))
                    child = c;
            }
        }
        h[hole] = h[child];
        hole = child;
    }
}

inline void
EventQueue::removeTop()
{
    const Entry last = heap.back();
    heap.pop_back();
    if (!heap.empty())
        siftUp(holeToLeaf(0), last, 0);
}

inline void
EventQueue::pruneTop()
{
    while (!heap.empty() && !isLive(heap.front())) {
        --deadCount;
        removeTop();
    }
}

} // namespace bighouse

#endif // BIGHOUSE_SIM_EVENT_QUEUE_HH
