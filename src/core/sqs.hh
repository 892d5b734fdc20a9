/**
 * @file
 * SqsSimulation — the stochastic queuing simulation runner, BigHouse's
 * primary contribution: a discrete-event simulation whose *length is
 * decided statistically*. The runner owns an Engine, a StatsCollection,
 * and a root Rng; user model code builds a queuing network over them, and
 * run() exercises the network until every registered output metric has
 * converged to its target confidence interval (or a safety valve trips).
 */

#ifndef BIGHOUSE_CORE_SQS_HH
#define BIGHOUSE_CORE_SQS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <optional>

#include "base/random.hh"
#include "obs/timeline.hh"
#include "queueing/failure.hh"
#include "queueing/task_arena.hh"
#include "sim/engine.hh"
#include "sim/stepper.hh"
#include "stats/collection.hh"

namespace bighouse {

/**
 * Which simulation backend executes the model: event dispatch or the
 * vectorized Lindley recurrence. Auto resolves to Recurrence when the
 * built network is expressible (FCFS, no dispatch / failures / capping;
 * see core/backend_select.hh) and to Des otherwise; results always carry
 * the resolved choice, never Auto.
 */
enum class SimBackend
{
    Des,         ///< the reference discrete-event engine
    Recurrence,  ///< vectorized FCFS G/G/k Lindley recurrence
    Auto,        ///< pick Recurrence when eligible, else Des
};

/** Render a SimBackend as text ("des", "recurrence", "auto"). */
const char* simBackendName(SimBackend backend);

/** Inverse of simBackendName(); fatal() on unknown names. */
SimBackend simBackendFromName(std::string_view name);

/** Sampling defaults and safety valves for one SQS run. */
struct SqsConfig
{
    /// Defaults applied by defaultMetricSpec(); individual metrics may
    /// override any of them.
    std::uint64_t warmupSamples = 1000;
    std::uint64_t calibrationSamples = 5000;  ///< the paper's figure
    double accuracy = 0.05;                   ///< E of Eq. 1
    double confidence = 0.95;
    std::vector<double> quantiles = {0.95};

    /// Convergence is polled every `batchEvents` simulated events.
    std::uint64_t batchEvents = 20000;
    /// Hard ceilings; 0 disables. A healthy run converges first.
    std::uint64_t maxEvents = 0;
    Time maxSimTime = 0;
    /// Wall-clock deadline in seconds; 0 disables. Checked at batch
    /// granularity — a run is cut at the first batch boundary past it.
    double maxWallSeconds = 0.0;
};

/**
 * Why a run stopped. `converged == false` alone is ambiguous between a
 * tripped safety valve, a drained (closed) model, and a degraded
 * parallel run — the reason disambiguates.
 */
enum class TerminationReason
{
    Converged,   ///< every metric reached its target interval
    MaxEvents,   ///< maxEvents safety valve tripped
    MaxSimTime,  ///< maxSimTime safety valve tripped
    Deadline,    ///< maxWallSeconds wall-clock deadline tripped
    Degraded,    ///< parallel quorum lost (< minHealthySlaves survive)
    Drained,     ///< the model generated no more work
};

/** Render a TerminationReason as text ("converged", "max-events", ...). */
const char* terminationReasonName(TerminationReason reason);

/** Inverse of terminationReasonName(); fatal() on unknown names. */
TerminationReason terminationReasonFromName(std::string_view name);

/** Outcome of an SQS run. */
struct SqsResult
{
    bool converged = false;
    TerminationReason termination = TerminationReason::Converged;
    /// The backend that actually ran (never Auto).
    SimBackend backend = SimBackend::Des;
    std::uint64_t events = 0;       ///< events executed by run()
                                    ///< (tasks, under the recurrence)
    Time simulatedTime = 0;         ///< final simulated clock
    double wallSeconds = 0;         ///< host time spent inside run()
    std::vector<MetricEstimate> estimates;
    /// Exact failure/availability totals — present only when the model
    /// simulates failures (absent totals keep the result JSON schema
    /// byte-identical to failure-free runs).
    std::optional<FailureTotals> failures;
    /// Simulated-time observability timeline — present only when a
    /// Timeline was attached to the simulation (absence keeps the
    /// result JSON byte-identical to timeline-off runs).
    std::optional<TimelineData> timeline;
};

/** One simulation instance (the master's, or one slave's). */
class SqsSimulation
{
  public:
    /**
     * @param config sampling defaults and safety valves
     * @param seed root seed; every stochastic component should draw its
     *        stream from rootRng().split() so instances with different
     *        seeds are statistically independent (Fig. 3's requirement)
     */
    SqsSimulation(SqsConfig config, std::uint64_t seed);

    Engine& engine() { return sim; }
    const Engine& engine() const { return sim; }

    /**
     * The per-simulation task pool — model builders pass this straight
     * to Server/RetryQueue.
     */
    TaskArena* taskArena() { return &arena; }

    StatsCollection& stats() { return collection; }
    const StatsCollection& stats() const { return collection; }
    Rng& rootRng() { return root; }
    const SqsConfig& config() const { return cfg; }

    /**
     * Observer invoked after every batch of run() with (simulation,
     * events executed so far). Runs between batches — never inside event
     * callbacks — so it may inspect engine and stats freely; it must not
     * mutate them. Used by the observability layer (telemetry sampling,
     * convergence recording). Empty by default: the batch loop pays one
     * bool test per 20k events when no observer is installed.
     */
    using BatchObserver =
        std::function<void(const SqsSimulation&, std::uint64_t)>;

    /** Install (or clear, with {}) the batch-boundary observer. */
    void setBatchObserver(BatchObserver observer);

    /**
     * Answers "what are the exact failure totals right now?" — installed
     * by model builders that simulate failures (Experiment::buildInto).
     * When set, every snapshot()/run() result carries the totals; the
     * parallel harness and the telemetry samplers read them through the
     * same probe.
     */
    using FailureProbe = std::function<FailureTotals()>;

    /** Install the failure-totals probe (model-build time only). */
    void setFailureProbe(FailureProbe probe);

    /**
     * Replace the event engine as the thing run() advances: batches come
     * from `stepper->step(batchEvents)` instead of Engine::run(), and
     * events/simulatedTime in results are the stepper's units and clock.
     * Everything else — warm-up, convergence polling, safety valves,
     * batch observers — is unchanged. Model-build time only; the
     * simulation owns the stepper.
     */
    void setStepper(std::unique_ptr<SimStepper> s);

    /** The installed stepper (nullptr when the DES runs). */
    const SimStepper* stepper() const { return stepperImpl.get(); }

    /** The backend run()/snapshot() results will report. */
    SimBackend backend() const
    {
        return stepperImpl ? SimBackend::Recurrence : SimBackend::Des;
    }

    /** The installed probe ({} when the model has no failures). */
    const FailureProbe& failureProbe() const { return failureTotals; }

    /**
     * Attach the observability timeline. The model builder wires the
     * instance's probes into the network it constructs; once attached,
     * every snapshot()/run() result carries the harvested windows.
     * Probes are read-only and draw no RNG, so an attached timeline
     * never perturbs simulation results. Model-build time only.
     */
    void setTimeline(std::shared_ptr<Timeline> t);

    /** The attached timeline (nullptr when observability is off). */
    Timeline* timeline() { return timelineImpl.get(); }
    const Timeline* timeline() const { return timelineImpl.get(); }

    /** A MetricSpec pre-filled with this run's configured defaults. */
    MetricSpec defaultMetricSpec(std::string name) const;

    /** Shorthand: register a metric with the default spec. */
    StatsCollection::MetricId addMetric(std::string name);
    StatsCollection::MetricId addMetric(MetricSpec spec);

    /**
     * Keep any model objects (servers, sources, policies) alive for the
     * simulation's lifetime.
     */
    void holdModel(std::shared_ptr<void> model);

    /**
     * Drive the event loop until every metric converges or a safety
     * valve (maxEvents / maxSimTime) trips. May be called once.
     */
    SqsResult run();

    /**
     * Execute up to `events` events (no convergence logic) — the
     * building block the parallel harness uses to drive slaves in
     * batches. @return events actually executed (< requested when the
     * queue drained).
     */
    std::uint64_t runBatch(std::uint64_t events);

    /** Snapshot of the current estimates. */
    SqsResult snapshot() const;

  private:
    SqsConfig cfg;
    Engine sim;
    /// Outlives every model object held by holdModel (declared before
    /// `model` so containers drain back into it before it is destroyed).
    TaskArena arena;
    StatsCollection collection;
    Rng root;
    std::vector<std::shared_ptr<void>> model;
    std::unique_ptr<SimStepper> stepperImpl;
    std::shared_ptr<Timeline> timelineImpl;
    BatchObserver batchObserver;
    FailureProbe failureTotals;
    bool ran = false;
};

} // namespace bighouse

#endif // BIGHOUSE_CORE_SQS_HH
