#include "sim/event_queue.hh"

namespace bighouse {

std::uint32_t
EventQueue::checkedSlotIndex(std::size_t slotCount)
{
    // The heap tag keeps 24 bits for the slot. Without the guard a larger
    // index would spill into the sequence bits, or the old cast would wrap
    // to a low slot, corrupting whichever event lived there.
    BH_REQUIRE(slotCount < kSlotLimit,
               "event queue slot table exhausted: ", slotCount,
               " slots in flight (max ", kSlotLimit - 1, ")");
    return static_cast<std::uint32_t>(slotCount);
}

std::uint32_t
EventQueue::addLane()
{
    BH_REQUIRE(lanes.size() < kNoLane, "event queue lane table exhausted");
    lanes.emplace_back();
    return static_cast<std::uint32_t>(lanes.size() - 1);
}

void
EventQueue::Lane::grow()
{
    std::vector<Entry> bigger(ring.empty() ? 8 : 2 * ring.size());
    for (std::size_t i = 0; i < count; ++i)
        bigger[i] = at(i);
    ring = std::move(bigger);
    head = 0;
}

std::uint64_t
EventQueue::nextSeq() const
{
    BH_REQUIRE(liveCount > 0, "nextSeq() on an empty event queue");
    return seqOf(heap.front());
}

bool
EventQueue::cancel(EventId id)
{
    if (id.slot >= slots.size())
        return false;
    Slot& s = slots[id.slot];
    if (!s.live || s.seq != id.seq)
        return false;
    s.live = false;
    // Release the captured state now — a cancelled completion must not
    // pin its resources until the entry is reclaimed.
    s.callback.reset();
    freeSlot(id.slot);
    --liveCount;
    if (s.lane == kNoLane) {
        ++deadCount;
    } else if (Lane& lane = lanes[s.lane]; seqOf(lane.front()) == id.seq) {
        // The lane's front: its heap copy becomes a tombstone, and the
        // next live entry takes its place in the heap. An entry further
        // back is never in the heap; skipDeadFront() drops it later.
        ++deadCount;
        lane.popFront();
        skipDeadFront(lane);
        if (!lane.empty())
            heapInsert(lane.front());
    }
    // Restore the top-live invariant, then sweep wholesale once the
    // tombstones outnumber the live entries.
    pruneTop();
    if (deadCount > liveCount && deadCount >= kCompactMin)
        compact();
    return true;
}

#ifdef BIGHOUSE_AUDIT
bool
EventQueue::ordered() const
{
    for (std::size_t i = 1; i < heap.size(); ++i) {
        if (less(heap[i], heap[(i - 1) / 4]))
            return false;
    }
    if (lanes.empty())
        return true;
    // Lane invariants: every live heap entry of a lane is that lane's
    // front, each non-empty lane's front is live and in the heap exactly
    // once, and each lane is sorted by (time, seq).
    std::vector<std::size_t> inHeap(lanes.size(), 0);
    for (const Entry& entry : heap) {
        if (!isLive(entry))
            continue;
        const std::uint32_t lane = slots[slotOf(entry)].lane;
        if (lane == kNoLane)
            continue;
        if (lanes[lane].empty() || lanes[lane].front().tag != entry.tag)
            return false;
        ++inHeap[lane];
    }
    for (std::size_t l = 0; l < lanes.size(); ++l) {
        const Lane& lane = lanes[l];
        if (inHeap[l] != (lane.empty() ? 0u : 1u))
            return false;
        if (!lane.empty() && !isLive(lane.front()))
            return false;
        for (std::size_t i = 1; i < lane.count; ++i) {
            if (!less(lane.at(i - 1), lane.at(i)))
                return false;
        }
    }
    return true;
}
#endif

void
EventQueue::compact()
{
    ++compactCount;
    std::size_t write = 0;
    for (const Entry& entry : heap) {
        if (isLive(entry))
            heap[write++] = entry;
    }
    heap.resize(write);
    deadCount = 0;
    // Floyd re-heapify over the (n + 2) / 4 internal nodes, each refilled
    // the way pop() refills the root. The (time, seq) order is total, so
    // the pop sequence — and therefore the simulation — is unchanged by
    // the internal array shuffle.
    for (std::size_t i = (heap.size() + 2) / 4; i-- > 0;) {
        const Entry moving = heap[i];
        siftUp(holeToLeaf(i), moving, i);
    }
    BH_AUDIT(ordered(), "heap order broken after compaction");
}

} // namespace bighouse
