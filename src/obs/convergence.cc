#include "obs/convergence.hh"

#include <algorithm>
#include <map>

#include "core/sqs.hh"
#include "stats/collection.hh"

namespace bighouse {

const MetricEstimate*
bottleneckMetric(const std::vector<MetricEstimate>& estimates)
{
    const MetricEstimate* worst = nullptr;
    std::uint64_t worstDeficit = 0;
    for (const MetricEstimate& estimate : estimates) {
        if (estimate.converged)
            continue;
        // required can trail accepted transiently (the estimate of the
        // requirement sharpens as the sample grows); clamp to zero and
        // still surface the metric — unconverged with no deficit means
        // the convergence poll simply has not caught up.
        const std::uint64_t deficit =
            estimate.required > estimate.accepted
                ? estimate.required - estimate.accepted
                : 0;
        if (worst == nullptr || deficit > worstDeficit) {
            worst = &estimate;
            worstDeficit = deficit;
        }
    }
    return worst;
}

void
ConvergenceRecorder::observe(const StatsCollection& stats,
                             std::uint64_t events)
{
    // A drained batch repeats the last boundary; record it once.
    if (!samples.empty() && samples.back().first == events)
        return;
    samples.emplace_back(events, stats.estimates());
}

void
ConvergenceRecorder::attachTo(SqsSimulation& sim)
{
    sim.setBatchObserver(
        [this](const SqsSimulation& s, std::uint64_t events) {
            observe(s.stats(), events);
        });
}

std::string
ConvergenceRecorder::bottleneck() const
{
    if (samples.empty())
        return "";
    const MetricEstimate* worst = bottleneckMetric(samples.back().second);
    return worst != nullptr ? worst->name : "";
}

JsonValue
ConvergenceRecorder::toJson() const
{
    // name -> sample array; std::map keeps metrics name-sorted.
    std::map<std::string, JsonValue::Array> series;
    for (const auto& [events, estimates] : samples) {
        for (const MetricEstimate& estimate : estimates) {
            JsonValue::Object point;
            point.emplace("events",
                          JsonValue(static_cast<double>(events)));
            point.emplace("phase", JsonValue(std::string(
                                       phaseName(estimate.phase))));
            point.emplace("converged", JsonValue(estimate.converged));
            point.emplace("accepted", JsonValue(static_cast<double>(
                                          estimate.accepted)));
            point.emplace("offered", JsonValue(static_cast<double>(
                                         estimate.offered)));
            point.emplace("required", JsonValue(static_cast<double>(
                                          estimate.required)));
            point.emplace("lag", JsonValue(static_cast<double>(
                                     estimate.lag)));
            point.emplace("mean", JsonValue(estimate.mean));
            point.emplace("meanHalfWidth",
                          JsonValue(estimate.meanHalfWidth));
            point.emplace("relativeHalfWidth",
                          JsonValue(estimate.relativeHalfWidth));
            series[estimate.name].emplace_back(std::move(point));
        }
    }
    JsonValue::Object metrics;
    for (auto& [name, points] : series) {
        JsonValue::Object metric;
        metric.emplace("samples", JsonValue(std::move(points)));
        metrics.emplace(name, JsonValue(std::move(metric)));
    }
    JsonValue::Object root;
    root.emplace("format",
                 JsonValue(std::string("bighouse-convergence-v1")));
    root.emplace("sampleCount",
                 JsonValue(static_cast<double>(samples.size())));
    root.emplace("bottleneck", JsonValue(bottleneck()));
    root.emplace("metrics", JsonValue(std::move(metrics)));
    return JsonValue(std::move(root));
}

void
ConvergenceRecorder::write(const std::string& path) const
{
    writeJsonFile(path, toJson());
}

} // namespace bighouse
