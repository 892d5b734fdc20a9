/**
 * @file
 * Telemetry registry — the counter surface of the observability layer
 * (src/obs).
 *
 * Simulator internals that previously were visible only through ad-hoc
 * accessors (events executed and pushed, queue live/dead slots,
 * compactions, samples offered/accepted, failure counters) are
 * aggregated into named slabs — one per simulation instance ("serial",
 * "slave-3") — and snapshotted into a stable, ordered JSON document
 * (`bighouse-telemetry-v1`).
 *
 * Design constraints, in order:
 *  1. Zero hot-path cost when unused. Nothing in src/sim or src/stats
 *     pushes into the registry; slabs are *pulled* from engine/stats
 *     state at batch boundaries (every SqsConfig::batchEvents events) by
 *     the sampling helpers below.
 *  2. Thread safety without contention. Slab cells are relaxed atomics;
 *     each simulation thread samples into its own slab, so the atomics
 *     only matter for the final cross-thread snapshot.
 *  3. Deterministic output. snapshot() orders slabs by label and cells
 *     by enum order; JsonValue keeps object keys sorted — two identical
 *     runs serialize byte-identical telemetry.
 */

#ifndef BIGHOUSE_OBS_TELEMETRY_HH
#define BIGHOUSE_OBS_TELEMETRY_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>

#include "config/json.hh"

namespace bighouse {

class Engine;
class StatsCollection;
struct FailureTotals;

/** Monotonic counters a slab carries (one atomic cell each). */
enum class TelemetryCounter
{
    EventsExecuted,     ///< engine.eventsExecuted
    EventsPushed,       ///< engine.eventsPushed (queue pushCount)
    QueueLiveSlots,     ///< queue.liveSlots (at last sample)
    QueueDeadSlots,     ///< queue.deadSlots (at last sample)
    QueueHeapSlots,     ///< queue.heapSlots (at last sample)
    QueueCompactions,   ///< queue.compactions
    SamplesOffered,     ///< stats.samplesOffered (sum over metrics)
    SamplesAccepted,    ///< stats.samplesAccepted (sum over metrics)
    BatchesObserved,    ///< sqs.batchesObserved
    FailuresInjected,   ///< failures.injected (server Up -> Down edges)
    RepairsCompleted,   ///< failures.repaired (server Down -> Up edges)
    TasksDropped,       ///< failures.tasksDropped (lost to Drop crashes)
    TasksRequeued,      ///< failures.tasksRequeued (demoted by Requeue)
    TasksRetried,       ///< failures.tasksRetried (retry-path re-offers)
    TasksLost,          ///< failures.tasksLost (terminally lost)
    BackendsEjected,    ///< failures.backendsEjected (balancer health)
    BackendsReadmitted, ///< failures.backendsReadmitted
    RecurrenceTasks,    ///< sim.recurrenceTasks (0 under the DES)
    kCount,
};

/** Stable dotted name of a counter ("engine.eventsExecuted", ...). */
const char* telemetryCounterName(TelemetryCounter counter);

/**
 * One named bundle of telemetry cells. Writers use relaxed atomics: a
 * slab is written by one simulation thread and read by the snapshotting
 * thread after that simulation quiesced, so ordering never carries data.
 */
class TelemetrySlab
{
  public:
    explicit TelemetrySlab(std::string label) : name(std::move(label)) {}

    TelemetrySlab(const TelemetrySlab&) = delete;
    TelemetrySlab& operator=(const TelemetrySlab&) = delete;

    const std::string& label() const { return name; }

    void
    add(TelemetryCounter counter, std::uint64_t delta = 1)
    {
        cell(counter).fetch_add(delta, std::memory_order_relaxed);
    }

    /** Overwrite a counter (used for sampled absolute values). */
    void
    set(TelemetryCounter counter, std::uint64_t value)
    {
        cell(counter).store(value, std::memory_order_relaxed);
    }

    std::uint64_t
    value(TelemetryCounter counter) const
    {
        return cell(counter).load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t>&
    cell(TelemetryCounter counter)
    {
        return counters[static_cast<std::size_t>(counter)];
    }
    const std::atomic<std::uint64_t>&
    cell(TelemetryCounter counter) const
    {
        return counters[static_cast<std::size_t>(counter)];
    }

    std::string name;
    std::array<std::atomic<std::uint64_t>,
               static_cast<std::size_t>(TelemetryCounter::kCount)>
        counters{};
};

/** Registry of slabs for one run (CLI invocation, test, bench). */
class TelemetryRegistry
{
  public:
    /**
     * Create-or-get the slab named `label`. Thread-safe; returned
     * references stay valid for the registry's lifetime (deque storage).
     */
    TelemetrySlab& slab(const std::string& label);

    /**
     * Ordered `bighouse-telemetry-v1` document: build info, per-slab
     * cells (slabs sorted by label), and counter totals across slabs.
     */
    JsonValue snapshot() const;

    /** snapshot() to `path` via atomic write-then-rename. */
    void write(const std::string& path) const;

  private:
    mutable std::mutex mtx;
    std::deque<TelemetrySlab> slabs;  ///< deque: stable references
};

/**
 * Pull engine/queue state into a slab. Sets absolute values, so calling
 * it every batch is idempotent-per-instant.
 */
void sampleEngineTelemetry(TelemetrySlab& slab, const Engine& engine);

/** Pull per-metric offered/accepted totals into a slab. */
void sampleStatsTelemetry(TelemetrySlab& slab,
                          const StatsCollection& stats);

/**
 * Pull a run's failure totals into a slab (absolute values, idempotent
 * per instant). Serial runs sample once at the end; parallel runs
 * sample each slave's totals from ParallelConfig::onSlaveDone, so the
 * registry's cross-slab totals carry the ensemble counters.
 */
void sampleFailureTelemetry(TelemetrySlab& slab,
                            const FailureTotals& totals);

} // namespace bighouse

#endif // BIGHOUSE_OBS_TELEMETRY_HH
