/**
 * @file
 * Distributed (master/slave) stochastic queuing simulation — the Fig. 3
 * protocol, minus its serial phase:
 *
 *  1. each slave runs its own warm-up and calibration (own lag) with a
 *     unique random seed, starting at t = 0,
 *  2. slaves measure; the master monitors aggregate sample size and
 *     signals convergence when it suffices across the whole cluster,
 *  3. slave histograms are merged into a single estimate.
 *
 * In the paper the master first runs warm-up and calibration alone to
 * fix the histogram bins and broadcasts them. The log-linear histogram
 * (stats/histogram.hh) has data-independent bins, so that phase has no
 * output left: the master simulation is built (it defines the metrics
 * and is the merge target) but runs no events.
 *
 * "In a number of ways, the master-slave relationship resembles the
 * MapReduce framework" — slaves are embarrassingly parallel, sharing only
 * the stop flag and periodic sample-count snapshots. Here slaves are
 * tasks on a SlavePool's worker threads in one process.
 *
 * The runtime treats slave failure as the normal case (SPECI-2's
 * design point): every slave runs under supervision — exceptions are
 * captured into a per-slave SlaveReport instead of terminating the
 * process, a watchdog abandons slaves that stop publishing progress, and
 * step 3 merges only the healthy quorum, reporting a degraded-but-valid
 * estimate as long as `minHealthySlaves` survive.
 * Periodic checkpoints of the merged sample (see ParallelCheckpoint in
 * core/results_io.hh) make an interrupted run resumable. docs/robustness.md describes the
 * supervision state machine.
 */

#ifndef BIGHOUSE_PARALLEL_PARALLEL_HH
#define BIGHOUSE_PARALLEL_PARALLEL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/fault_injection.hh"
#include "core/results_io.hh"
#include "core/sqs.hh"
#include "parallel/slave_pool.hh"

namespace bighouse {

/** Builds a model (metrics + network) inside a fresh simulation.
 *  Must be deterministic in registration order: master and slaves rely on
 *  identical metric ids. */
using ModelBuilder = std::function<void(SqsSimulation&)>;

/** Supervision outcome for one slave. */
enum class SlaveStatus
{
    Running,   ///< still measuring (transient; never in a final report)
    Ok,        ///< finished cleanly; sample merged
    Failed,    ///< exception escaped the batch loop; sample discarded
    TimedOut,  ///< watchdog abandoned it; sample discarded
};

/** Render a SlaveStatus as text. */
const char* slaveStatusName(SlaveStatus status);

/**
 * Live view of one slave while a parallel run is in flight — the
 * machine-readable progress surface behind the CLI's status.json.
 */
struct ParallelSlaveProgress
{
    SlaveStatus status = SlaveStatus::Running;
    bool abandoned = false;
    std::uint64_t events = 0;          ///< events published so far
    double secondsSinceBeat = 0.0;     ///< staleness of the last heartbeat
};

/** Periodic snapshot of a whole parallel run's progress. */
struct ParallelProgressSnapshot
{
    /// Phase label: "calibration" once, just before the slaves start
    /// (every slave still calibrating, no events yet), "measurement"
    /// while they run, "merged" on the terminal snapshot.
    std::string phase;
    bool converged = false;
    std::size_t healthySlaves = 0;
    std::uint64_t totalEvents = 0;     ///< published events, all slaves
    double elapsedSeconds = 0.0;
    std::vector<ParallelSlaveProgress> slaves;
};

/** Cluster shape and supervision policy of a parallel run. */
struct ParallelConfig
{
    std::size_t slaves = 4;
    SqsConfig sqs;
    /// Events a slave executes between sample-count publications.
    std::uint64_t slaveBatchEvents = 20000;

    // --- supervision ---
    /// Quorum: the run degrades (rather than completes) when fewer
    /// healthy slaves than this survive to the merge.
    std::size_t minHealthySlaves = 1;
    /// A slave that publishes no progress for this long is marked
    /// TimedOut and abandoned; 0 disables the watchdog.
    double watchdogSeconds = 0.0;
    /// Deterministic fault injection (tests).
    FaultPlan faults;

    // --- execution substrate ---
    /// Non-owning. When set, slave simulations run as tasks on this
    /// shared pool instead of a `slaves`-wide pool the run creates for
    /// itself — a campaign (src/campaign) reuses one pool across every
    /// sweep point. The pool must have at least `slaves` workers (fewer
    /// would let the watchdog abandon slaves that were only ever queued).
    /// Results are identical either way; the pool only changes thread
    /// ownership.
    SlavePool* pool = nullptr;

    // --- checkpointing ---
    /// Non-empty -> periodic resumable snapshots are written here (and
    /// a final one whenever the run stops unconverged).
    std::string checkpointPath;
    double checkpointIntervalSeconds = 1.0;
    /// Names the model and config behind the samples; written into every
    /// checkpoint, and resume() rejects a checkpoint whose identity
    /// differs. bighouse_run passes a hash of the resolved config
    /// without its run-length valves, campaigns the point key.
    std::string checkpointIdentity;

    // --- observability (all optional; empty = zero overhead) ---
    /// Called once per simulation instance right after the model is
    /// built, before any event executes: (sim, slaveIndex, isMaster).
    /// The master is index 0 with isMaster == true. Runs on the thread
    /// that will drive the instance; must not perturb model state or
    /// RNG draws if bit-identical results are expected.
    std::function<void(SqsSimulation&, std::size_t, bool)> instrument;
    /// Called on the slave's own thread after its batch loop ends and
    /// the sample is published — the instance is quiescent, so the hook
    /// may sample engine/stats state (telemetry) freely.
    std::function<void(const SqsSimulation&, std::size_t)> onSlaveDone;
    /// Progress publication from the monitor thread every half second,
    /// plus one terminal snapshot (phase "merged") after the merge
    /// completes.
    std::function<void(const ParallelProgressSnapshot&)> progress;
};

/** Per-slave supervision record (the failure roster of a run). */
struct SlaveReport
{
    SlaveStatus status = SlaveStatus::Running;
    std::string error;        ///< exception text when status == Failed
    bool abandoned = false;   ///< excluded from further work mid-run
    std::uint64_t calibrationEvents = 0;
    std::uint64_t totalEvents = 0;
};

/** Outcome of a parallel run, including the Fig. 10 phase accounting. */
struct ParallelResult
{
    bool converged = false;
    TerminationReason termination = TerminationReason::Converged;
    /// The backend the model resolves to (the master and every slave
    /// build the same model).
    SimBackend backend = SimBackend::Des;
    std::vector<MetricEstimate> estimates;  ///< merged across slaves
    /// Summed failure totals of every slave that ran; present only when
    /// the model installs a failure probe.
    std::optional<FailureTotals> failures;
    /// One timeline per healthy slave ("slave-N"), all over the same
    /// windows; empty when the model attaches no Timeline. Kept as
    /// separate tracks rather than pre-merged: per-slave series are the
    /// whole point (divergent failure waves).
    std::vector<TimelineData> timelines;

    /// True when at least one slave's sample was excluded from the
    /// merge (the estimate is built from a reduced quorum).
    bool degraded = false;
    /// Slaves whose samples were merged.
    std::size_t healthySlaves = 0;
    /// Per-slave supervision outcomes, indexed by slave.
    std::vector<SlaveReport> slaveReports;
    /// Events inherited from the checkpoint on a resumed run.
    std::uint64_t resumedBaseEvents = 0;

    /// Always 0: the master runs no events (its histogram bins need no
    /// calibration). Kept because the convbench benchmark reads it.
    std::uint64_t masterCalibrationEvents = 0;
    /// Per-slave events spent in warm-up + calibration (parallel but
    /// unsharded — every slave pays it; the Amdahl term of Fig. 10).
    std::vector<std::uint64_t> slaveCalibrationEvents;
    /// Per-slave total events (calibration + measurement share).
    std::vector<std::uint64_t> slaveTotalEvents;
    std::uint64_t totalEvents = 0;
    /// Sum of the final clocks (stepper or engine) of the healthy slaves
    /// the quorum merge took at least one metric's sample from; each
    /// simulates its own replica, so their spans add up.
    Time simulatedTime = 0.0;
    double wallSeconds = 0.0;

    /**
     * The run as a serial-shaped result (campaign cache entries, the
     * CLI's result.json). simulatedTime is the merged slaves' summed
     * clocks; timelines stay per contributor in `timelines`.
     */
    SqsResult toSqsResult() const;
};

/** Orchestrates one master and N slave simulations. */
class ParallelRunner
{
  public:
    ParallelRunner(ModelBuilder builder, ParallelConfig config);

    /**
     * Execute the Fig. 3 protocol.
     * @param rootSeed seeds the master; slave s uses a distinct stream
     *        derived from it.
     */
    ParallelResult run(std::uint64_t rootSeed);

    /**
     * Resume an interrupted run from a checkpoint: the checkpointed
     * sample seeds the aggregate convergence check and the final merge,
     * so strictly fewer new measurement events are needed than a cold
     * run. The model, config and root seed must match the original run
     * (the checkpoint's identity and metric names are verified); the
     * slave count may differ. Resumed slaves draw fresh per-epoch seed
     * streams, keeping new samples independent of the prior.
     */
    ParallelResult resume(const ParallelCheckpoint& from);

  private:
    ParallelResult execute(std::uint64_t rootSeed,
                           const ParallelCheckpoint* from);

    ModelBuilder builder;
    ParallelConfig cfg;
};

} // namespace bighouse

#endif // BIGHOUSE_PARALLEL_PARALLEL_HH
