/**
 * @file
 * Experiment — the declarative, config-file-driven layer over
 * SqsSimulation ("configuration files describe how BigHouse should
 * instantiate and connect these objects and supply parameters such as
 * number of cores, peak power, etc.").
 *
 * An ExperimentSpec describes a homogeneous cluster: N servers of k cores,
 * each driven by its own arrival source for one workload, optionally
 * governed by the global power-capping coordinator; the standard output
 * metrics are response time, waiting time, and per-epoch capping level
 * (the metric sets swept in Fig. 9).
 */

#ifndef BIGHOUSE_CORE_EXPERIMENT_HH
#define BIGHOUSE_CORE_EXPERIMENT_HH

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "config/config.hh"
#include "core/sqs.hh"
#include "datacenter/load_balancer.hh"
#include "policy/dreamweaver.hh"
#include "policy/power_capping.hh"
#include "power/sleep_state.hh"
#include "queueing/retry.hh"
#include "workload/workload.hh"

namespace bighouse {

/** Canonical metric names registered by Experiment. */
inline constexpr const char* kResponseTimeMetric = "response_time";
inline constexpr const char* kWaitingTimeMetric = "waiting_time";
inline constexpr const char* kCappingLevelMetric = "capping_level";
inline constexpr const char* kServerPowerMetric = "server_power";
inline constexpr const char* kAvailabilityMetric = "availability";
inline constexpr const char* kGoodputMetric = "goodput";
inline constexpr const char* kDowntimeMetric = "downtime";

/** Which station model each server in the cluster uses. */
enum class ServerModel
{
    Fcfs,              ///< stock k-core FCFS Server
    ProcessorSharing,  ///< PsServer (limited PS)
    DreamWeaver,       ///< idleness-scheduled (Sec. 3.2)
    PowerNap,          ///< nap-on-full-idle baseline
};

/** Parse "fcfs" | "ps" | "dreamweaver" | "powernap"; fatal() otherwise. */
ServerModel parseServerModel(std::string_view name);

/**
 * Failure injection for the cluster: every server gets its own
 * alternating Up/Down renewal process, the balancer (when present)
 * ejects down backends, and a client-side retry path re-offers lost
 * work. The whole block is opt-in — a spec without one builds the exact
 * pre-failure model, event for event.
 */
struct FailureSpec
{
    DistPtr uptime;    ///< time-to-failure draws (MTBF scale)
    DistPtr downtime;  ///< time-to-repair draws (MTTR scale)
    TaskDisposition disposition = TaskDisposition::Drop;
    /// Balancer health-check period; 0 wires health instantly (the
    /// balancer learns of every edge the moment it happens), > 0 routes
    /// through a HealthChecker so detection lags by up to one period.
    double detectionInterval = 0.0;
    /// Mean gap of the Poisson availability probe; 0 picks a default
    /// from the failure time scale (one tenth of MTBF + MTTR).
    double probeInterval = 0.0;
    RetrySpec retry;   ///< client timeout/backoff policy

    /** Deep copy (distributions cloned). */
    FailureSpec
    clone() const
    {
        FailureSpec copy;
        copy.uptime = uptime ? uptime->clone() : nullptr;
        copy.downtime = downtime ? downtime->clone() : nullptr;
        copy.disposition = disposition;
        copy.detectionInterval = detectionInterval;
        copy.probeInterval = probeInterval;
        copy.retry = retry;
        return copy;
    }
};

/** Full description of a cluster experiment. */
struct ExperimentSpec
{
    Workload workload;           ///< per-server workload
    std::size_t servers = 1;
    unsigned coresPerServer = 4;
    ServerModel serverModel = ServerModel::Fcfs;
    /// DreamWeaver tuning (used when serverModel == DreamWeaver).
    DreamWeaverSpec dreamweaver;
    /// PowerNap sleep transition (used when serverModel == PowerNap).
    SleepSpec powernap;
    /// Present -> one central source feeds a balancer with this
    /// discipline; absent -> one source per server. FCFS servers only.
    std::optional<Dispatch> dispatch;
    /// Arrival-rate multiplier applied to every source (load knob).
    double loadFactor = 1.0;
    /// Fixed service slowdown (SCPU of Fig. 4); 1.0 = nominal.
    /// FCFS/PS only (sleep policies own their server's speed).
    double cpuSlowdown = 1.0;
    bool recordResponseTime = true;
    bool recordWaitingTime = false;
    /// Present -> servers fail and repair; see FailureSpec. FCFS only.
    std::optional<FailureSpec> failures;
    /// Availability (probe-sampled up-fraction), goodput (terminal
    /// success indicator), and downtime (per-outage duration) metrics;
    /// all require a failures block.
    bool recordAvailability = false;
    bool recordGoodput = false;
    bool recordDowntime = false;
    /// Present -> power capping runs and (optionally) its level metric.
    std::optional<PowerCappingSpec> capping;
    bool recordCappingLevel = false;
    /// Per-epoch cluster-average server power (watts) — the "Power"
    /// output of the paper's Fig. 1. Requires a capping block (it
    /// supplies the Eq. 4-6 power model).
    bool recordServerPower = false;
    /// Which simulation backend executes the model (config `sim.backend`).
    /// Auto resolves against the eligibility analyzer at build time; a
    /// forced Recurrence on an inexpressible network is fatal (see
    /// core/backend_select.hh).
    SimBackend simBackend = SimBackend::Auto;
    /// Present -> a Timeline is attached: simulated-time windowed series
    /// of queue depth, busy cores, availability, dispatch/ejection waves
    /// and retry occupancy (config `timeline` block). Probes are read-
    /// only and draw no RNG, so results stay bit-identical.
    std::optional<TimelineSpec> timeline;
    SqsConfig sqs;

    /** Deep copy (distributions cloned). */
    ExperimentSpec clone() const;
};

/** Builds and runs one ExperimentSpec. */
class Experiment
{
  public:
    explicit Experiment(ExperimentSpec spec);

    /**
     * Parse a spec from a JSON config (docs/config_schema.md): workload
     * by Table-1 name or by interarrival and service distribution
     * blocks, cluster shape, metric switches, sqs block, capping block.
     *
     * `strict` (the default) rejects unknown keys at the top level and
     * in every block, so a misspelled key — or a typo'd campaign sweep
     * axis — fails fast instead of silently running the base
     * configuration; pass false (the CLI's --lax) to accept and ignore
     * unknown keys.
     */
    static ExperimentSpec specFromConfig(const Config& config,
                                         bool strict = true);

    /** Construct the model and metrics inside an existing simulation. */
    void buildInto(SqsSimulation& sim) const;

    /**
     * Build a fresh simulation, run to convergence, return the result.
     * A set `instrument` is invoked on the fully built simulation before
     * the event loop starts — the seam the observability layer uses to
     * attach trace buffers, batch observers and convergence recorders.
     * The instrument must not perturb model state or RNG streams if
     * bit-identical results are expected.
     */
    SqsResult run(std::uint64_t seed,
                  const std::function<void(SqsSimulation&)>& instrument =
                      {}) const;

    const ExperimentSpec& specification() const { return spec; }

  private:
    ExperimentSpec spec;
};

/**
 * One server's offered load at full speed:
 *     rho = loadFactor * E[S] * cpuSlowdown / (E[gap] * cores).
 * With `dispatch` the one source runs at the server count times the
 * per-server rate, so each server's share is the same. The Experiment
 * constructor rejects rho >= 1. Capping, DreamWeaver delays and failures
 * only take capacity away, so rho < 1 is necessary for a steady state,
 * not sufficient.
 */
double offeredLoad(const ExperimentSpec& spec);

/** "0.75 = loadFactor 0.7 x E[S] ... x 16 cores)": rho and its terms. */
std::string describeOfferedLoad(const ExperimentSpec& spec);

} // namespace bighouse

#endif // BIGHOUSE_CORE_EXPERIMENT_HH
