#include "queueing/retry.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/logging.hh"

namespace bighouse {

RetryQueue::RetryQueue(Engine& engine, TaskAcceptor& downstream,
                       RetrySpec spec, FailureCounters& counters,
                       TaskArena* arena)
    : engine(engine), downstream(downstream), spec(spec),
      counters(counters), flights(ArenaAlloc<Flight>(arena))
{
    if (spec.timeout < 0.0)
        fatal("RetrySpec timeout must be >= 0, got ", spec.timeout);
    if (spec.backoffBase <= 0.0 || spec.backoffFactor < 1.0
        || spec.backoffMax < spec.backoffBase) {
        fatal("RetrySpec backoff needs base > 0, factor >= 1, "
              "max >= base");
    }
    clampExponent = spec.backoffFactor > 1.0
                        ? std::log(spec.backoffMax / spec.backoffBase)
                              / std::log(spec.backoffFactor)
                        : std::numeric_limits<double>::infinity();
}

void
RetryQueue::setOutcomeHandler(OutcomeHandler handler)
{
    onOutcome = std::move(handler);
}

Time
RetryQueue::backoffDelay(std::uint32_t attempt) const
{
    BH_ASSERT(attempt >= 1, "backoff before the first retry");
    // Clamp decided *before* the power is computed: the historical
    // multiply loop was O(attempt) and could overflow to inf ahead of
    // its clamp once attempt grew past ~1000.
    const double exponent = static_cast<double>(attempt - 1);
    if (exponent >= clampExponent)
        return spec.backoffMax;
    return std::min(spec.backoffBase
                        * std::pow(spec.backoffFactor, exponent),
                    spec.backoffMax);
}

void
RetryQueue::accept(Task task)
{
    BH_ASSERT(task.attempts == 0, "fresh task with a nonzero attempt");
    std::uint32_t ticket;
    if (freeTickets.empty()) {
        BH_REQUIRE(flights.size() < std::numeric_limits<std::uint32_t>::max(),
                   "RetryQueue ticket space exhausted");
        ticket = static_cast<std::uint32_t>(flights.size());
        flights.emplace_back();
    } else {
        ticket = freeTickets.back();
        freeTickets.pop_back();
    }
    task.retryTicket = ticket;
    Flight& flight = flights[ticket];
    flight.original = task;
    flight.attempt = 0;
    flight.hasTimeout = false;
    flight.live = true;
    ++inFlight;
    if (occupancyProbe != nullptr)
        occupancyProbe(probeCtx, probeId, engine.now(), inFlight);
    offer(std::move(task));
}

void
RetryQueue::offer(Task task)
{
    if (spec.timeout > 0.0) {
        if (!timeoutLane.valid())
            timeoutLane = engine.addLane(spec.timeout);
        const std::uint32_t ticket = task.retryTicket;
        const std::uint64_t id = task.id;
        Flight& flight = flights[ticket];
        flight.timeout = engine.scheduleAfter(
            timeoutLane, [this, ticket, id] { timeoutFired(ticket, id); });
        flight.hasTimeout = true;
    }
    // No member access after this call: a synchronous loss path (e.g.
    // an all-down balancer) may re-enter onLost() and mutate the table.
    downstream.accept(std::move(task));
}

void
RetryQueue::resolve(std::uint32_t ticket, Task task, bool ok)
{
    Flight& flight = flights[ticket];
    if (flight.hasTimeout)
        engine.cancel(flight.timeout);
    flight.live = false;
    freeTickets.push_back(ticket);
    --inFlight;
    if (ok)
        ++counters.tasksCompletedOk;
    else
        ++counters.tasksLost;
    if (occupancyProbe != nullptr)
        occupancyProbe(probeCtx, probeId, engine.now(), inFlight);
    if (outcomeProbe != nullptr)
        outcomeProbe(probeCtx, engine.now(), ok);
    if (onOutcome)
        onOutcome(task, ok);
}

void
RetryQueue::onLost(Task task, TaskLoss loss)
{
    (void)loss;
    Flight* flight = find(task.retryTicket, task.id);
    if (flight == nullptr || flight->attempt != task.attempts)
        return;  // an abandoned attempt's copy died later; already handled
    if (flight->hasTimeout) {
        engine.cancel(flight->timeout);
        flight->hasTimeout = false;
    }
    const std::uint32_t ticket = task.retryTicket;
    if (flight->attempt >= spec.maxRetries) {
        resolve(ticket, std::move(task), false);
        return;
    }
    scheduleReoffer(ticket, *flight);
}

void
RetryQueue::scheduleReoffer(std::uint32_t ticket, Flight& flight)
{
    ++flight.attempt;
    ++counters.tasksRetried;
    // Capture only the ticket and id (the event callback's inline budget
    // is small); the re-offered copy is rebuilt from the stored original
    // at fire time — if the task resolved while backing off, the record
    // is gone.
    const std::uint64_t id = flight.original.id;
    engine.scheduleAfter(backoffDelay(flight.attempt), [this, ticket, id] {
        const Flight* current = find(ticket, id);
        if (current == nullptr)
            return;  // resolved while backing off
        Task again = current->original;
        again.remaining = again.size;
        again.startTime = kTimeNever;
        again.finishTime = kTimeNever;
        again.attempts = current->attempt;
        offer(std::move(again));
    });
}

bool
RetryQueue::onCompleted(const Task& task)
{
    const Flight* flight = find(task.retryTicket, task.id);
    if (flight == nullptr || flight->attempt != task.attempts) {
        // Zombie work: a copy the client had already abandoned (timeout
        // fired, retry in flight) completed anyway. The server paid for
        // it; the client-visible outcome was decided elsewhere.
        ++counters.staleCompletions;
        return false;
    }
    resolve(task.retryTicket, task, true);
    return true;
}

void
RetryQueue::timeoutFired(std::uint32_t ticket, std::uint64_t id)
{
    Flight* flight = find(ticket, id);
    if (flight == nullptr)
        return;  // resolved in the same instant
    flight->hasTimeout = false;
    ++counters.tasksTimedOut;
    if (flight->attempt >= spec.maxRetries) {
        // resolve() takes its own copy: the record is released before
        // the outcome handler sees the task.
        resolve(ticket, flight->original, false);
        return;
    }
    scheduleReoffer(ticket, *flight);
}

} // namespace bighouse
