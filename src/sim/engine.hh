/**
 * @file
 * The discrete-event simulation engine: a simulated clock over an
 * EventQueue. One Engine instance is one BigHouse simulation instance
 * (the master's, or one per parallel slave).
 *
 * "The core functionality of the BigHouse discrete-event simulator does
 * not differ substantially from other tools for simulating queuing
 * networks" — what is BigHouse-specific (sampling, convergence) lives in
 * src/stats and src/core; the engine is a plain, fast DES kernel.
 */

#ifndef BIGHOUSE_SIM_ENGINE_HH
#define BIGHOUSE_SIM_ENGINE_HH

#include <cstdint>
#include <type_traits>
#include <utility>

#include "sim/event_queue.hh"

namespace bighouse {

/**
 * Handle to a constant-delay event lane (Engine::addLane()). Events
 * scheduled through it fire the lane's delay after they are scheduled;
 * the queue keeps them in FIFO order and puts only the earliest in its
 * heap. Default-constructed handles are invalid.
 */
class EventLane
{
  public:
    EventLane() = default;

    bool valid() const { return index != kNone; }

  private:
    friend class Engine;

    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    EventLane(Time delay, std::uint32_t index)
        : fixedDelay(delay), index(index)
    {}

    Time fixedDelay = 0.0;
    std::uint32_t index = kNone;
};

/** Discrete-event simulation kernel. */
class Engine
{
  public:
    /** Current simulated time. */
    Time now() const { return currentTime; }

    /** Schedule a callback at an absolute simulated time (>= now). */
    EventId schedule(Time at, EventCallback callback);

    /**
     * Schedule any callable at an absolute simulated time (>= now).
     * Routes to the queue's emplacing push, which constructs the
     * callable directly in the event slot's storage — no intermediate
     * EventCallback, no relocation.
     */
    template <typename Fn,
              typename = std::enable_if_t<
                  !std::is_same_v<std::remove_cvref_t<Fn>, EventCallback>>>
    EventId
    schedule(Time at, Fn&& fn)
    {
        BH_REQUIRE(at >= currentTime, "scheduling into the past: at=", at,
                   " now=", currentTime);
        return events.push(at, std::forward<Fn>(fn));
    }

    /** Schedule a callback `delay` seconds from now. */
    EventId
    scheduleAfter(Time delay, EventCallback callback)
    {
        return schedule(currentTime + delay, std::move(callback));
    }

    /** Schedule any callable `delay` seconds from now. */
    template <typename Fn,
              typename = std::enable_if_t<
                  !std::is_same_v<std::remove_cvref_t<Fn>, EventCallback>>>
    EventId
    scheduleAfter(Time delay, Fn&& fn)
    {
        return schedule(currentTime + delay, std::forward<Fn>(fn));
    }

    /**
     * Open a lane for events that fire `delay` seconds after they are
     * scheduled. The pop order is exactly that of scheduleAfter(delay);
     * only the queue's cost changes.
     */
    EventLane addLane(Time delay);

    /** Schedule any callable the lane's delay from now. */
    template <typename Fn,
              typename = std::enable_if_t<
                  !std::is_same_v<std::remove_cvref_t<Fn>, EventCallback>>>
    EventId
    scheduleAfter(EventLane lane, Fn&& fn)
    {
        return events.pushLane(lane.index, currentTime + lane.fixedDelay,
                               std::forward<Fn>(fn));
    }

    /**
     * Cancel a pending event.
     * @return false when it already fired or was already cancelled.
     */
    bool cancel(EventId id) { return events.cancel(id); }

    /**
     * Execute events in time order until the queue drains, stop() is
     * called, or `maxEvents` have executed in this call (0 = unlimited).
     * @return number of events executed by this call.
     */
    std::uint64_t run(std::uint64_t maxEvents = 0);

    /** Execute events with time <= horizon (also honors stop()). */
    std::uint64_t runUntil(Time horizon);

    /**
     * Request that run() return after the currently executing event.
     * Callable from inside event callbacks (how convergence halts the
     * simulation).
     */
    void stop() { stopRequested = true; }

    /** True when a stop was requested and not yet consumed by run(). */
    bool stopping() const { return stopRequested; }

    /** Total events executed over the engine's lifetime. */
    std::uint64_t eventsExecuted() const { return executedCount; }

    /** Live pending events. */
    std::size_t pendingEvents() const { return events.size(); }

    /** Read-only view of the pending-event set (telemetry sampling). */
    const EventQueue& eventQueue() const { return events; }

    /** Time of the next pending event (const query; kTimeNever if none). */
    Time nextEventTime() const { return events.nextTime(); }

    /**
     * Per-dispatch observer: called with (ctx, time, seq) before each
     * event executes. A plain function pointer so the disabled case is a
     * single predicted branch; used by the bit-reproducibility tests to
     * diff popped (time, seq) traces.
     */
    using TraceFn = void (*)(void* ctx, Time time, std::uint64_t seq);

    /** Install (or clear, with nullptr) the dispatch trace observer. */
    void
    setTraceHook(TraceFn fn, void* ctx)
    {
        traceFn = fn;
        traceCtx = ctx;
    }

  private:
    /** Pop and run one event; advances the clock. */
    void dispatchOne();

    EventQueue events;
    Time currentTime = 0.0;
    std::uint64_t executedCount = 0;
    bool stopRequested = false;
    TraceFn traceFn = nullptr;
    void* traceCtx = nullptr;
};

// Dispatch loop, inline for the same reason as the EventQueue hot path:
// the build has no LTO, and keeping pop + clock advance + callback invoke
// in one frame is worth a few ns on every simulated event.

inline void
Engine::dispatchOne()
{
    EventQueue::Popped event = events.pop();
    BH_INVARIANT(event.time >= currentTime,
                 "event queue returned stale time");
    currentTime = event.time;
    ++executedCount;
    if (traceFn != nullptr)
        traceFn(traceCtx, event.time, event.seq);
    event.callback();
}

inline std::uint64_t
Engine::run(std::uint64_t maxEvents)
{
    stopRequested = false;
    std::uint64_t executed = 0;
    while (!events.empty()) {
        dispatchOne();
        ++executed;
        if (stopRequested || (maxEvents != 0 && executed >= maxEvents))
            break;
    }
    stopRequested = false;
    return executed;
}

inline std::uint64_t
Engine::runUntil(Time horizon)
{
    stopRequested = false;
    std::uint64_t executed = 0;
    while (!events.empty()) {
        const Time next = events.nextTime();
        if (next == kTimeNever || next > horizon)
            break;
        dispatchOne();
        ++executed;
        if (stopRequested)
            break;
    }
    stopRequested = false;
    if (currentTime < horizon)
        currentTime = horizon;
    return executed;
}

} // namespace bighouse

#endif // BIGHOUSE_SIM_ENGINE_HH
