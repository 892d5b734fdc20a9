/**
 * @file
 * Client-side retry: the piece that keeps lost work from silently
 * vanishing when the simulated data center fails underneath it.
 *
 * A RetryQueue sits between a Source and its downstream (balancer or
 * server). Every task flows through it; when the downstream reports a
 * loss (server crash, rejection by a down backend, no routable backend)
 * — or the per-task timeout fires first — the task is re-offered after
 * an exponential backoff, up to a bounded number of retries, and only
 * then declared terminally lost. Terminal outcomes (success or loss)
 * feed the goodput metric and the lost/retried counters.
 */

#ifndef BIGHOUSE_QUEUEING_RETRY_HH
#define BIGHOUSE_QUEUEING_RETRY_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "queueing/failure.hh"
#include "queueing/server.hh"
#include "queueing/task.hh"
#include "sim/engine.hh"

namespace bighouse {

/** Timeout/backoff policy for one retry path. */
struct RetrySpec
{
    /// Re-offers allowed after the first attempt; 0 = no retries (the
    /// retry queue still resolves terminal outcomes for goodput).
    std::uint32_t maxRetries = 0;
    /// Client-side per-task timeout in seconds; 0 disables timeouts.
    /// A timed-out attempt is abandoned: if the abandoned copy later
    /// completes, that completion is stale (zombie work — the server
    /// paid for it, the client no longer wants it).
    double timeout = 0.0;
    /// First backoff delay (seconds); attempt k waits
    /// min(backoffBase * backoffFactor^(k-1), backoffMax).
    double backoffBase = 0.001;
    double backoffFactor = 2.0;
    double backoffMax = 1.0;
};

/**
 * Bounded-retry re-offer queue with per-task timeout.
 *
 * Ownership protocol: callers wire the downstream's lost handler to
 * onLost() and its completion handler to onCompleted(). Both look the
 * task up by the ticket accept() wrote into it (Task::retryTicket), an
 * index into a table of in-flight records, and check the record's task
 * id; completions of abandoned (timed-out, already-resolved) attempts
 * are recognized as stale and ignored for goodput.
 *
 * Every attempt's timeout fires the same fixed delay after it is
 * scheduled, so the timeouts share one of the engine's constant-delay
 * lanes, opened on first use.
 */
class RetryQueue : public TaskAcceptor
{
  public:
    /** Terminal outcome: (task, succeeded). */
    using OutcomeHandler = std::function<void(const Task&, bool)>;

    /**
     * @param engine the simulation this queue lives in
     * @param downstream where offered tasks go
     * @param spec timeout/backoff policy
     * @param counters shared failure ledger (outlives the queue)
     * @param arena optional per-simulation pool backing the in-flight
     *        table's storage; null means the global heap
     */
    RetryQueue(Engine& engine, TaskAcceptor& downstream, RetrySpec spec,
               FailureCounters& counters, TaskArena* arena = nullptr);

    /** First offer of a fresh task (from a Source). */
    void accept(Task task) override;

    /**
     * Downstream reported this task lost. Re-offers after backoff while
     * retries remain, else resolves the task as terminally lost.
     */
    void onLost(Task task, TaskLoss loss);

    /**
     * Downstream completed this task. Resolves it as successful unless
     * the attempt was already abandoned (stale completion).
     * @return true when the completion was fresh (the client was still
     *         waiting on it) — callers gate latency metrics on this, so
     *         zombie work doesn't pollute response-time statistics.
     */
    bool onCompleted(const Task& task);

    /** Observe terminal outcomes (goodput metric wiring). */
    void setOutcomeHandler(OutcomeHandler handler);

    /** Tasks currently in flight (offered, not yet resolved). */
    std::size_t outstanding() const { return inFlight; }

    /// Timeline probes (read-only observers; plain function pointers so
    /// the unset case costs one predictable branch per transition).

    /** Called whenever the in-flight population changes. The id lets a
     *  collector aggregate across the cluster's retry queues. */
    using OccupancyProbe = void (*)(void* ctx, std::size_t id, Time now,
                                    std::size_t outstanding);
    /** Called on every terminal outcome (ok = completed successfully). */
    using OutcomeProbe = void (*)(void* ctx, Time now, bool ok);

    /** Install the timeline probes (model-build time only). */
    void setProbes(OccupancyProbe onOccupancy, OutcomeProbe onOutcomeEdge,
                   void* ctx, std::size_t id)
    {
        occupancyProbe = onOccupancy;
        outcomeProbe = onOutcomeEdge;
        probeCtx = ctx;
        probeId = id;
    }

    /**
     * Backoff delay before re-offering attempt `attempt` (>= 1):
     * min(base * factor^(attempt-1), max), computed in closed form so it
     * is O(1) and finite for any attempt count.
     */
    Time backoffDelay(std::uint32_t attempt) const;

  private:
    /** One task in flight; its index is the task's ticket. */
    struct Flight
    {
        Task original;               ///< pristine copy for re-offers
        EventId timeout{};
        std::uint32_t attempt = 0;   ///< attempt the client still waits on
        bool hasTimeout = false;
        bool live = false;           ///< false once resolved (slot free)
    };

    /** The in-flight record of ticket/id, or null once resolved. */
    Flight*
    find(std::uint32_t ticket, std::uint64_t id)
    {
        if (ticket >= flights.size())
            return nullptr;
        Flight& flight = flights[ticket];
        return flight.live && flight.original.id == id ? &flight : nullptr;
    }

    /** Deliver (or re-deliver) an attempt downstream. */
    void offer(Task task);

    /** Bump the attempt and schedule the backed-off re-offer. */
    void scheduleReoffer(std::uint32_t ticket, Flight& flight);

    /** Release the flight, then report `task` (a copy, not the record). */
    void resolve(std::uint32_t ticket, Task task, bool ok);

    void timeoutFired(std::uint32_t ticket, std::uint64_t id);

    Engine& engine;
    TaskAcceptor& downstream;
    RetrySpec spec;
    /// Smallest exponent at which base * factor^e reaches backoffMax
    /// (+inf when factor == 1); attempts past it skip the power entirely,
    /// so backoffDelay never overflows and costs O(1) at any attempt.
    double clampExponent;
    FailureCounters& counters;
    OutcomeHandler onOutcome;
    OccupancyProbe occupancyProbe = nullptr;
    OutcomeProbe outcomeProbe = nullptr;
    void* probeCtx = nullptr;
    std::size_t probeId = 0;
    std::vector<Flight, ArenaAlloc<Flight>> flights;
    std::vector<std::uint32_t> freeTickets;
    std::size_t inFlight = 0;
    EventLane timeoutLane;
};

} // namespace bighouse

#endif // BIGHOUSE_QUEUEING_RETRY_HH
