/**
 * @file
 * Distributed (master/slave) stochastic queuing simulation — the Fig. 3
 * protocol:
 *
 *  1. the master executes just the warm-up and calibration phases and
 *     fixes the histogram bin scheme,
 *  2. the bin scheme is broadcast; each slave runs its own warm-up and
 *     calibration (own lag) with a unique random seed,
 *  3. slaves measure; the master monitors aggregate sample size and
 *     signals convergence when it suffices across the whole cluster,
 *  4. slave histograms are merged into a single estimate.
 *
 * "In a number of ways, the master-slave relationship resembles the
 * MapReduce framework" — slaves are embarrassingly parallel, sharing only
 * the stop flag and periodic sample-count snapshots.
 *
 * Here slaves are std::threads in one process; the protocol (including
 * the serialized bin-scheme broadcast) is the same one a multi-host
 * deployment would speak.
 *
 * The runtime treats slave failure as the normal case (SPECI-2's
 * design point): every slave runs under supervision — exceptions are
 * captured into a per-slave SlaveReport instead of terminating the
 * process, a watchdog abandons slaves that stop publishing progress,
 * stragglers lagging the median event count are flagged (and optionally
 * abandoned), and phase 4 merges only the healthy quorum, reporting a
 * degraded-but-valid estimate as long as `minHealthySlaves` survive.
 * Periodic checkpoints (see ParallelCheckpoint in core/results_io.hh)
 * make an interrupted run resumable. docs/robustness.md describes the
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
    Straggler, ///< lagged the median event rate; sample still merged
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
    /// Phase label: "calibration" while the master runs, "measurement"
    /// during the slave phase, "merged" on the terminal snapshot.
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
    /// A slave whose event count times this factor is below the median
    /// healthy slave's is flagged a straggler; 0 disables detection.
    /// Must be > 1 when enabled.
    double stragglerFactor = 0.0;
    /// Abandon flagged stragglers (their partial sample still merges —
    /// it is statistically valid; they just stop consuming a thread).
    bool abandonStragglers = false;
    /// Deterministic fault injection (tests / chaos soaks).
    FaultPlan faults;

    // --- execution substrate ---
    /// Non-owning. When set, slave simulations run as tasks on this
    /// shared pool instead of freshly spawned threads — a campaign
    /// (src/campaign) reuses one pool across every sweep point. The pool
    /// must have at least `slaves` workers (fewer would let the watchdog
    /// abandon slaves that were only ever queued). Results are identical
    /// either way; the pool only changes thread ownership.
    SlavePool* pool = nullptr;

    // --- checkpointing ---
    /// Non-empty -> periodic resumable snapshots are written here (and
    /// a final one whenever the run stops unconverged).
    std::string checkpointPath;
    double checkpointIntervalSeconds = 1.0;

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
    /// The backend the master ran (slaves build the same model, so they
    /// resolve to the same one).
    SimBackend backend = SimBackend::Des;
    std::vector<MetricEstimate> estimates;  ///< merged across slaves
    /// Summed failure totals (master + every slave that ran); present
    /// only when the model installs a failure probe.
    std::optional<FailureTotals> failures;
    /// One timeline per merged contributor (master first, then each
    /// healthy slave as "slave-N"), all over master-aligned windows;
    /// empty when the model attaches no Timeline. Kept as separate
    /// tracks rather than pre-merged: per-slave series are the whole
    /// point (straggler onset, divergent failure waves).
    std::vector<TimelineData> timelines;

    /// True when at least one slave's sample was excluded from the
    /// merge (the estimate is built from a reduced quorum).
    bool degraded = false;
    /// Slaves whose samples were merged (Ok or Straggler).
    std::size_t healthySlaves = 0;
    /// Per-slave supervision outcomes, indexed by slave.
    std::vector<SlaveReport> slaveReports;
    /// Events inherited from the checkpoint on a resumed run.
    std::uint64_t resumedBaseEvents = 0;

    /// Events the master spent reaching end-of-calibration (serial part).
    std::uint64_t masterCalibrationEvents = 0;
    /// Per-slave events spent in warm-up + calibration (parallel but
    /// unsharded — every slave pays it; the Amdahl term of Fig. 10).
    std::vector<std::uint64_t> slaveCalibrationEvents;
    /// Per-slave total events (calibration + measurement share).
    std::vector<std::uint64_t> slaveTotalEvents;
    std::uint64_t totalEvents = 0;
    double wallSeconds = 0.0;

    /**
     * Modeled speedup over a serial run that needed `serialEvents`
     * events: T(k) ~ masterCal + max_s(slaveTotal_s) when event cost is
     * uniform. Provided by the Fig. 10 bench.
     */
    double modeledSpeedup(std::uint64_t serialEvents) const;

    /**
     * The run as a serial-shaped result (campaign cache entries, the
     * CLI's result.json). simulatedTime is 0 because per-slave clocks do
     * not aggregate; timelines stay per contributor in `timelines`.
     */
    SqsResult toSqsResult() const;
};

/** Orchestrates one master and N slave simulations. */
class ParallelRunner
{
  public:
    ParallelRunner(ModelBuilder builder, ParallelConfig config);

    /**
     * Execute the full Fig. 3 protocol.
     * @param rootSeed seeds the master; slave s uses a distinct stream
     *        derived from it.
     */
    ParallelResult run(std::uint64_t rootSeed);

    /**
     * Resume an interrupted run from a checkpoint: the checkpointed
     * sample seeds the aggregate convergence check and the final merge,
     * so strictly fewer new measurement events are needed than a cold
     * run. The model and the checkpoint's rootSeed must match the
     * original run (the bin schemes are re-derived and verified);
     * the slave count may differ. Resumed slaves draw fresh per-epoch
     * seed streams, keeping new samples independent of the prior.
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
