/**
 * @file
 * The unit of work in the BigHouse queuing model: "a task in the queuing
 * model corresponds to the most natural unit of work for the workload
 * under study, such as a single request, transaction, query, and so on."
 */

#ifndef BIGHOUSE_QUEUEING_TASK_HH
#define BIGHOUSE_QUEUEING_TASK_HH

#include <cstdint>

#include "base/time.hh"

namespace bighouse {

/** One request/query/job flowing through the queuing network. */
struct Task
{
    std::uint64_t id = 0;
    /// When the task entered the system.
    Time arrivalTime = 0.0;
    /// Service demand in seconds at nominal (speed = 1.0) service rate.
    double size = 0.0;
    /// First instant service began; kTimeNever while still queued.
    Time startTime = kTimeNever;
    /// Completion instant; kTimeNever while in the system.
    Time finishTime = kTimeNever;
    /// Work left to do (seconds at nominal speed); maintained by servers.
    double remaining = 0.0;
    /// Delivery attempt, counted from 0; bumped by the retry path each
    /// time the task is re-offered after a loss or timeout.
    std::uint32_t attempts = 0;
    /// Index of the task's in-flight record in the RetryQueue that
    /// accepted it (it fills what would be padding). The queue checks
    /// the record's task id on every lookup, so a stale ticket is never
    /// mistaken for another task.
    std::uint32_t retryTicket = 0;

    /** Sojourn (response) time; only valid after completion. */
    Time responseTime() const { return finishTime - arrivalTime; }

    /** Delay before service first began; only valid after dispatch. */
    Time waitingTime() const { return startTime - arrivalTime; }
};

static_assert(sizeof(Task) == 56, "Task grew past its 56 bytes");

/** Anything that can receive tasks (servers, queues, load balancers). */
class TaskAcceptor
{
  public:
    virtual ~TaskAcceptor() = default;

    /** Hand a task over; the acceptor owns its fate from here. */
    virtual void accept(Task task) = 0;
};

} // namespace bighouse

#endif // BIGHOUSE_QUEUEING_TASK_HH
