#include "obs/status.hh"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "base/logging.hh"
#include "obs/convergence.hh"

namespace bighouse {

std::string
prepareReportDir(const std::string& dir,
                 std::initializer_list<const char*> files)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (!std::filesystem::is_directory(dir))
        fatal("cannot create report directory ", dir,
              ec ? ": " + ec.message() : std::string());
    const std::string prefix = dir + "/";
    for (const char* file : files)
        std::filesystem::remove(prefix + file, ec);
    return prefix;
}

namespace {

JsonValue::Object
statusRoot(const char* kind, bool terminal)
{
    JsonValue::Object root;
    root.emplace("format", JsonValue(std::string("bighouse-status-v1")));
    root.emplace("kind", JsonValue(std::string(kind)));
    root.emplace("terminal", JsonValue(terminal));
    return root;
}

} // namespace

JsonValue
serialStatusJson(const std::vector<MetricEstimate>& estimates,
                 std::uint64_t events, double elapsedSeconds,
                 bool terminal, bool converged, const char* termination)
{
    JsonValue::Object metrics;
    for (const MetricEstimate& estimate : estimates) {
        JsonValue::Object metric;
        metric.emplace("phase",
                       JsonValue(std::string(phaseName(estimate.phase))));
        metric.emplace("converged", JsonValue(estimate.converged));
        metric.emplace(
            "accepted",
            JsonValue(static_cast<double>(estimate.accepted)));
        metric.emplace(
            "required",
            JsonValue(static_cast<double>(estimate.required)));
        metric.emplace("mean", JsonValue(estimate.mean));
        metric.emplace("relativeHalfWidth",
                       JsonValue(estimate.relativeHalfWidth));
        metrics.emplace(estimate.name, JsonValue(std::move(metric)));
    }
    JsonValue::Object root = statusRoot("serial", terminal);
    root.emplace("events", JsonValue(static_cast<double>(events)));
    root.emplace("elapsedSeconds", JsonValue(elapsedSeconds));
    root.emplace("converged", JsonValue(converged));
    root.emplace("termination", termination != nullptr
                                    ? JsonValue(std::string(termination))
                                    : JsonValue(nullptr));
    root.emplace("metrics", JsonValue(std::move(metrics)));
    return JsonValue(std::move(root));
}

JsonValue
parallelStatusJson(const ParallelProgressSnapshot& snapshot, bool terminal)
{
    JsonValue::Array slaves;
    slaves.reserve(snapshot.slaves.size());
    for (std::size_t s = 0; s < snapshot.slaves.size(); ++s) {
        const ParallelSlaveProgress& slave = snapshot.slaves[s];
        const char* state = slaveStatusName(slave.status);
        if (terminal && snapshot.converged
            && slave.status == SlaveStatus::Ok)
            state = "converged";
        JsonValue::Object obj;
        obj.emplace("slave", JsonValue(static_cast<double>(s)));
        obj.emplace("state", JsonValue(std::string(state)));
        obj.emplace("abandoned", JsonValue(slave.abandoned));
        obj.emplace("events",
                    JsonValue(static_cast<double>(slave.events)));
        obj.emplace("secondsSinceBeat",
                    JsonValue(slave.secondsSinceBeat));
        slaves.emplace_back(std::move(obj));
    }
    JsonValue::Object root = statusRoot("parallel", terminal);
    root.emplace("phase", JsonValue(snapshot.phase));
    root.emplace("converged", JsonValue(snapshot.converged));
    root.emplace("healthySlaves", JsonValue(static_cast<double>(
                                      snapshot.healthySlaves)));
    root.emplace("totalEvents", JsonValue(static_cast<double>(
                                    snapshot.totalEvents)));
    root.emplace("elapsedSeconds", JsonValue(snapshot.elapsedSeconds));
    root.emplace("slaves", JsonValue(std::move(slaves)));
    return JsonValue(std::move(root));
}

JsonValue
campaignStatusJson(const std::vector<SweepPoint>& points,
                   const CampaignReport& report, bool terminal)
{
    JsonValue::Array pointStates;
    pointStates.reserve(report.outcomes.size());
    for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
        const char* state = "pending";
        switch (report.outcomes[i].status) {
          case PointStatus::Pending: state = "pending"; break;
          case PointStatus::Running: state = "running"; break;
          case PointStatus::Cached: state = "cache-hit"; break;
          case PointStatus::Ran: state = "ran"; break;
          case PointStatus::Failed: state = "failed"; break;
        }
        JsonValue::Object obj;
        obj.emplace("point", JsonValue(static_cast<double>(i)));
        obj.emplace("state", JsonValue(std::string(state)));
        if (i < points.size()) {
            JsonValue::Object axes;
            for (const auto& [path, value] : points[i].axes)
                axes.emplace(path, JsonValue(value));
            obj.emplace("axes", JsonValue(std::move(axes)));
        }
        pointStates.emplace_back(std::move(obj));
    }
    JsonValue::Object root = statusRoot("campaign", terminal);
    root.emplace("cached",
                 JsonValue(static_cast<double>(report.cached)));
    root.emplace("ran", JsonValue(static_cast<double>(report.ran)));
    root.emplace("failed",
                 JsonValue(static_cast<double>(report.failed)));
    root.emplace("pending",
                 JsonValue(static_cast<double>(report.pending)));
    root.emplace("points", JsonValue(std::move(pointStates)));
    return JsonValue(std::move(root));
}

std::string
serialProgressLine(const std::vector<MetricEstimate>& estimates,
                   std::uint64_t events)
{
    const auto converged =
        std::count_if(estimates.begin(), estimates.end(),
                      [](const MetricEstimate& e) { return e.converged; });
    const MetricEstimate* worst = bottleneckMetric(estimates);
    std::ostringstream line;
    line << "events " << events << " | " << converged << "/"
         << estimates.size() << " metrics converged";
    if (worst != nullptr) {
        line << " | worst " << worst->name << " " << worst->accepted
             << "/" << worst->required;
    }
    return line.str();
}

std::string
parallelProgressLine(const ParallelProgressSnapshot& snapshot)
{
    std::ostringstream line;
    line << "phase " << snapshot.phase << " | " << snapshot.healthySlaves
         << "/" << snapshot.slaves.size() << " slaves healthy | events "
         << snapshot.totalEvents;
    return line.str();
}

std::string
campaignProgressLine(const CampaignReport& report)
{
    std::ostringstream line;
    line << report.outcomes.size() << " points | " << report.cached
         << " cached, " << report.ran << " ran, " << report.failed
         << " failed, " << report.pending << " pending";
    return line.str();
}

} // namespace bighouse
