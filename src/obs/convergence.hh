/**
 * @file
 * Convergence recorder — a time series of every output metric's
 * statistical state, sampled at batch boundaries.
 *
 * BigHouse runs end when the confidence intervals say so; when a run is
 * slow, the question is always *which metric* is holding termination and
 * *why* (wide interval? large lag spacing discarding observations? a
 * quantile's Nq dominating the mean's Nm?). The recorder samples each
 * metric's mean, CI half-width, lag state, and accepted/required counts
 * at every batch boundary and renders an ordered
 * `bighouse-convergence-v1` JSON document whose byte stream is stable
 * across reruns of the same seed — diffable convergence history.
 *
 * Attachment is pull-based via SqsSimulation::setBatchObserver: nothing
 * is recorded (or even branched on) unless a recorder is installed.
 */

#ifndef BIGHOUSE_OBS_CONVERGENCE_HH
#define BIGHOUSE_OBS_CONVERGENCE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "config/json.hh"
#include "stats/metric.hh"

namespace bighouse {

class StatsCollection;
class SqsSimulation;

/**
 * The metric holding up termination: among the unconverged estimates,
 * the one with the largest (required - accepted) deficit. nullptr when
 * every metric converged.
 */
const MetricEstimate* bottleneckMetric(
    const std::vector<MetricEstimate>& estimates);

/** Records per-metric convergence state over a run. */
class ConvergenceRecorder
{
  public:
    /** Take a sample at `events` executed events. */
    void observe(const StatsCollection& stats, std::uint64_t events);

    /**
     * Install this recorder as `sim`'s batch observer. The recorder
     * must outlive the simulation's run() call.
     */
    void attachTo(SqsSimulation& sim);

    std::size_t sampleCount() const { return samples.size(); }

    /**
     * bottleneckMetric() at the last sample, by name. Empty when every
     * metric was converged (or nothing was sampled).
     */
    std::string bottleneck() const;

    /**
     * Ordered `bighouse-convergence-v1` document: per-metric sample
     * series (metrics name-sorted, samples in time order) and the final
     * bottleneck.
     */
    JsonValue toJson() const;

    /** toJson() to `path`, written atomically. */
    void write(const std::string& path) const;

  private:
    /// (events, per-metric estimates) in sample order.
    std::vector<std::pair<std::uint64_t, std::vector<MetricEstimate>>>
        samples;
};

} // namespace bighouse

#endif // BIGHOUSE_OBS_CONVERGENCE_HH
