/**
 * @file
 * Unit tests for the event queue: ordering, FIFO tie-breaking, O(1)
 * cancellation with eager callback release, tombstone compaction,
 * slot-table lifecycle, and the guards on the heap tag's packed widths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "base/random.hh"
#include "sim/event_queue.hh"

namespace bighouse {
namespace {

TEST(EventQueue, PopsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.push(3.0, [&] { order.push_back(3); });
    q.push(1.0, [&] { order.push_back(1); });
    q.push(2.0, [&] { order.push_back(2); });
    while (!q.empty())
        q.pop().callback();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.push(5.0, [&order, i] { order.push_back(i); });
    while (!q.empty())
        q.pop().callback();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, RandomizedOrderProperty)
{
    EventQueue q;
    Rng rng(99);
    for (int i = 0; i < 5000; ++i)
        q.push(rng.uniform(0.0, 100.0), [] {});
    double previous = -1.0;
    while (!q.empty()) {
        const auto popped = q.pop();
        ASSERT_GE(popped.time, previous);
        previous = popped.time;
    }
}

TEST(EventQueue, PopReportsMonotoneSequenceForTies)
{
    EventQueue q;
    for (int i = 0; i < 16; ++i)
        q.push(1.0, [] {});
    std::uint64_t expected = 0;
    while (!q.empty()) {
        EXPECT_EQ(q.nextSeq(), expected);
        EXPECT_EQ(q.pop().seq, expected);
        ++expected;
    }
}

TEST(EventQueue, NextTimeMatchesPop)
{
    EventQueue q;
    q.push(7.0, [] {});
    q.push(4.0, [] {});
    // nextTime() is a const query on purpose (no lazy pruning inside).
    const EventQueue& constQ = q;
    EXPECT_DOUBLE_EQ(constQ.nextTime(), 4.0);
    EXPECT_DOUBLE_EQ(q.pop().time, 4.0);
    EXPECT_DOUBLE_EQ(constQ.nextTime(), 7.0);
    q.pop();
    EXPECT_DOUBLE_EQ(constQ.nextTime(), kTimeNever);
}

TEST(EventQueue, CancelRemovesEvent)
{
    EventQueue q;
    int fired = 0;
    q.push(1.0, [&] { ++fired; });
    const EventId id = q.push(2.0, [&] { fired += 100; });
    q.push(3.0, [&] { ++fired; });
    EXPECT_EQ(q.size(), 3u);
    EXPECT_TRUE(q.cancel(id));
    EXPECT_EQ(q.size(), 2u);
    while (!q.empty())
        q.pop().callback();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CancelTwiceFails)
{
    EventQueue q;
    const EventId id = q.push(1.0, [] {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterFireFails)
{
    EventQueue q;
    const EventId id = q.push(1.0, [] {});
    q.pop();
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelDefaultIdIsNoop)
{
    EventQueue q;
    q.push(1.0, [] {});
    EXPECT_FALSE(q.cancel(EventId{}));
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelStaleIdAfterSlotReuseFails)
{
    EventQueue q;
    const EventId first = q.push(1.0, [] {});
    q.pop();  // frees first's slot
    const EventId second = q.push(2.0, [] {});  // reuses it
    EXPECT_FALSE(q.cancel(first));
    EXPECT_EQ(q.size(), 1u);
    EXPECT_TRUE(q.cancel(second));
}

TEST(EventQueue, CancelEarliestAdvancesNextTime)
{
    EventQueue q;
    const EventId first = q.push(1.0, [] {});
    q.push(2.0, [] {});
    q.cancel(first);
    EXPECT_DOUBLE_EQ(q.nextTime(), 2.0);
    EXPECT_DOUBLE_EQ(q.pop().time, 2.0);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelAllLeavesEmptyQueue)
{
    EventQueue q;
    std::vector<EventId> ids;
    for (int i = 0; i < 100; ++i)
        ids.push_back(q.push(static_cast<Time>(i), [] {}));
    for (const EventId id : ids)
        EXPECT_TRUE(q.cancel(id));
    EXPECT_TRUE(q.empty());
    EXPECT_DOUBLE_EQ(q.nextTime(), kTimeNever);
    // Cancelling everything must also drain the physical structure: with
    // no live event left there is nothing for tombstones to wait behind.
    EXPECT_EQ(q.heapSize(), 0u);
}

TEST(EventQueue, CancelReleasesCallbackStateImmediately)
{
    // Regression: cancel() used to leave the Entry (and its captured
    // callback state) alive until the tombstone reached the heap top.
    EventQueue q;
    auto token = std::make_shared<int>(42);
    q.push(1.0, [] {});  // keeps the cancelled event off the heap top
    const EventId id = q.push(2.0, [token] { (void)*token; });
    EXPECT_EQ(token.use_count(), 2);
    EXPECT_TRUE(q.cancel(id));
    // The capture must be destroyed at cancel time, tombstone or not.
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, PopDoesNotPinCallbackState)
{
    // pop() hands the callback to the caller and must leave NOTHING in
    // the slot: a moved-from callback with valid-but-unspecified state
    // could otherwise pin captured resources until the slot is reused.
    EventQueue q;
    auto token = std::make_shared<int>(7);
    q.push(1.0, [token] { (void)*token; });
    EXPECT_EQ(token.use_count(), 2);
    {
        auto popped = q.pop();
        // Exactly one live copy outside the test: the popped callback.
        EXPECT_EQ(token.use_count(), 2);
    }
    // Destroying the popped event releases the last capture; the freed
    // slot (never reused here) holds no residue.
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, CancelHeavyChurnKeepsHeapBounded)
{
    // DVFS-style workload: every speed change cancels a scheduled
    // completion and reschedules it. The heap may carry tombstones, but
    // dead entries must never outgrow the live set by more than the
    // compaction threshold.
    EventQueue q;
    Rng rng(7);
    std::vector<EventId> pending;
    double clock = 0.0;
    for (int step = 0; step < 50000; ++step) {
        const EventId id =
            q.push(clock + rng.uniform(0.0, 10.0), [] {});
        pending.push_back(id);
        if (pending.size() > 8) {
            // Cancel-then-reschedule: the dominant DVFS pattern.
            const std::size_t pick = rng.below(pending.size() - 1);
            if (q.cancel(pending[pick]))
                pending[pick] = q.push(clock + rng.uniform(0.0, 10.0),
                                       [] {});
        }
        if (step % 3 == 0 && !q.empty()) {
            clock = q.pop().time;
        }
        ASSERT_LE(q.heapSize(), 2 * q.size() + 64)
            << "tombstones outgrew the live set at step " << step;
    }
}

TEST(EventQueue, StressInterleavedPushPopCancel)
{
    EventQueue q;
    Rng rng(123);
    std::vector<EventId> pending;
    double clock = 0.0;
    int fired = 0, cancelled = 0;
    for (int step = 0; step < 20000; ++step) {
        const double roll = rng.uniform01();
        if (roll < 0.5 || q.empty()) {
            pending.push_back(
                q.push(clock + rng.uniform(0.0, 10.0), [&] { ++fired; }));
        } else if (roll < 0.75 && !pending.empty()) {
            const std::size_t pick = rng.below(pending.size());
            cancelled += q.cancel(pending[pick]) ? 1 : 0;
            pending.erase(pending.begin()
                          + static_cast<std::ptrdiff_t>(pick));
        } else {
            auto popped = q.pop();
            ASSERT_GE(popped.time, clock);
            clock = popped.time;
            popped.callback();
        }
    }
    while (!q.empty()) {
        auto popped = q.pop();
        ASSERT_GE(popped.time, clock);
        clock = popped.time;
        popped.callback();
    }
    EXPECT_GT(fired, 0);
    EXPECT_GT(cancelled, 0);
}

// ---------------------------------------------------------------------
// Slot-table overflow guard
// ---------------------------------------------------------------------

TEST(EventQueueDeathTest, SlotIndexGuardDiesInsteadOfTruncating)
{
    // Below the heap tag's 24-bit limit the index passes through
    // unchanged...
    EXPECT_EQ(EventQueue::checkedSlotIndex(0), 0u);
    EXPECT_EQ(EventQueue::checkedSlotIndex(0xFFFFFFu), 0xFFFFFFu);
    // ...at or past it the index would spill into the sequence bits (or
    // wrap to a low slot), corrupting a live event; it must die loudly.
    EXPECT_DEATH(EventQueue::checkedSlotIndex(0x1000000u),
                 "slot table exhausted");
    EXPECT_DEATH(
        EventQueue::checkedSlotIndex(std::size_t{1} << 32),
        "slot table exhausted");
}

TEST(EventQueueDeathTest, SeqGuardDiesInsteadOfTruncating)
{
    // The tag keeps 40 bits of sequence above the slot; the last push
    // that fits passes through...
    constexpr std::uint64_t kLimit = std::uint64_t{1} << 40;
    EXPECT_EQ(EventQueue::checkedSeq(0), 0u);
    EXPECT_EQ(EventQueue::checkedSeq(kLimit - 1), kLimit - 1);
    // ...and the next would lose its top bit, so ties would stop popping
    // in scheduling order.
    EXPECT_DEATH(EventQueue::checkedSeq(kLimit),
                 "sequence space exhausted");
}

TEST(EventQueueDeathTest, PopEmptyPanics)
{
    EventQueue q;
    EXPECT_DEATH(q.pop(), "empty event queue");
}

} // namespace
} // namespace bighouse
