#include "sim/engine.hh"

#include <cmath>
#include <utility>

#include "base/contracts.hh"

namespace bighouse {

// The dispatch loop (run / runUntil / dispatchOne) is defined inline in
// engine.hh; only the type-erased schedule overload and addLane stay out
// of line.

EventId
Engine::schedule(Time at, EventCallback callback)
{
    BH_REQUIRE(at >= currentTime, "scheduling into the past: at=", at,
               " now=", currentTime);
    return events.push(at, std::move(callback));
}

EventLane
Engine::addLane(Time delay)
{
    BH_REQUIRE(delay >= 0.0 && std::isfinite(delay),
               "event lane delay must be finite and >= 0, got ", delay);
    return EventLane(delay, events.addLane());
}

} // namespace bighouse
