#include "campaign/runner.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <utility>

#include "base/logging.hh"
#include "core/experiment.hh"
#include "parallel/parallel.hh"
#include "parallel/slave_pool.hh"

namespace bighouse {

namespace {

constexpr const char* kResultFormat = "bighouse-point-result-v1";

/** Recount the per-status totals from the outcomes. */
void
recount(CampaignReport& report)
{
    report.cached = report.ran = report.failed = report.pending = 0;
    for (const PointOutcome& outcome : report.outcomes) {
        switch (outcome.status) {
          // Running counts as pending: it has no result yet, and a
          // report is only complete() once every Running point resolved
          // to Cached/Ran/Failed (terminal totals never change).
          case PointStatus::Pending: ++report.pending; break;
          case PointStatus::Running: ++report.pending; break;
          case PointStatus::Cached: ++report.cached; break;
          case PointStatus::Ran: ++report.ran; break;
          case PointStatus::Failed: ++report.failed; break;
        }
    }
}

/** Read a whole file; false when it cannot be opened. */
bool
readFile(const std::string& path, std::string* text)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    *text = buf.str();
    return true;
}

/** Union of axis paths across all points, sorted (stable columns). */
std::vector<std::string>
axisColumns(const std::vector<SweepPoint>& points)
{
    std::set<std::string> paths;
    for (const SweepPoint& point : points)
        for (const auto& [path, value] : point.axes)
            paths.insert(path);
    return {paths.begin(), paths.end()};
}

std::string
axisCell(const SweepPoint& point, const std::string& path)
{
    const auto it = point.axes.find(path);
    return it == point.axes.end() ? "-" : it->second;
}

} // namespace

CampaignRunner::CampaignRunner(CampaignSpec spec_, CampaignOptions options)
    : spec(std::move(spec_)), opts(options)
{
    if (opts.seed.has_value())
        spec.seed = *opts.seed;
    expanded = expandCampaign(spec, opts.strict);
}

std::string
CampaignRunner::resultPath(const SweepPoint& point) const
{
    return spec.cacheDir + "/" + hashHex(point.keyHash) + ".json";
}

std::string
CampaignRunner::checkpointPath(const SweepPoint& point) const
{
    return spec.cacheDir + "/" + hashHex(point.keyHash) + ".ckpt.json";
}

std::string
CampaignRunner::manifestPath() const
{
    return spec.cacheDir + "/manifest.json";
}

bool
CampaignRunner::probe(const SweepPoint& point, SqsResult* result) const
{
    std::string text;
    const std::string path = resultPath(point);
    if (!readFile(path, &text))
        return false;
    const JsonParseResult parsed = parseJson(text);
    if (!parsed.ok) {
        warn("ignoring unreadable cache entry ", path, ": ", parsed.error);
        return false;
    }
    const JsonValue* format = parsed.value.find("format");
    const JsonValue* key = parsed.value.find("key");
    if (format == nullptr || !format->isString()
        || format->asString() != kResultFormat || key == nullptr
        || !key->isString()) {
        warn("ignoring cache entry with unknown format: ", path);
        return false;
    }
    // Full key-string equality, not just the hash the filename carries:
    // a (vanishingly unlikely) FNV collision degrades to a cache miss
    // instead of serving another point's result.
    if (key->asString() != point.key)
        return false;
    const JsonValue* payload = parsed.value.find("result");
    if (payload == nullptr) {
        warn("ignoring cache entry without a result: ", path);
        return false;
    }
    *result = resultFromJson(*payload);
    return true;
}

void
CampaignRunner::writeCacheEntry(const SweepPoint& point,
                                const SqsResult& result) const
{
    JsonValue::Object obj;
    obj.emplace("format", JsonValue(std::string(kResultFormat)));
    obj.emplace("key", JsonValue(point.key));
    obj.emplace("keyHash", JsonValue(hashHex(point.keyHash)));
    obj.emplace("result", resultToJson(result));
    // Atomic, like checkpoints and manifests: a kill mid-write can never
    // leave a truncated entry a later resume would have to distrust.
    writeJsonFile(resultPath(point), JsonValue(std::move(obj)));
}

CampaignManifest
CampaignRunner::buildManifest(const CampaignReport& report) const
{
    CampaignManifest manifest;
    manifest.campaign = spec.name;
    manifest.rootSeed = spec.seed;
    manifest.points.reserve(expanded.size());
    for (std::size_t i = 0; i < expanded.size(); ++i) {
        const SweepPoint& point = expanded[i];
        const PointOutcome& outcome = report.outcomes[i];
        ManifestPoint entry;
        entry.index = point.index;
        entry.key = point.key;
        entry.keyHash = hashHex(point.keyHash);
        entry.seed = point.seed;
        entry.slaves = point.slaves;
        entry.status = outcome.status;
        entry.axes = point.axes;
        if (outcome.status == PointStatus::Cached
            || outcome.status == PointStatus::Ran) {
            entry.converged = outcome.result.converged;
            entry.backend = simBackendName(outcome.result.backend);
            entry.events = outcome.result.events;
            entry.wallSeconds = outcome.result.wallSeconds;
        }
        manifest.points.push_back(std::move(entry));
    }
    return manifest;
}

CampaignReport
CampaignRunner::plan() const
{
    CampaignReport report;
    report.outcomes.resize(expanded.size());
    for (std::size_t i = 0; i < expanded.size(); ++i) {
        PointOutcome& outcome = report.outcomes[i];
        if (probe(expanded[i], &outcome.result)) {
            outcome.status = PointStatus::Cached;
            outcome.resultPath = resultPath(expanded[i]);
        }
    }
    recount(report);
    return report;
}

CampaignReport
CampaignRunner::run()
{
    const auto start = std::chrono::steady_clock::now();
    CampaignReport report = plan();
    if (opts.dryRun)
        return report;  // plan only — touch nothing on disk

    std::filesystem::create_directories(spec.cacheDir);

    // The misses, in expansion order; maxPoints truncates here — the
    // deterministic "killed mid-sweep" for resume tests and CI.
    std::vector<std::size_t> misses;
    for (std::size_t i = 0; i < expanded.size(); ++i)
        if (report.outcomes[i].status == PointStatus::Pending)
            misses.push_back(i);
    if (opts.maxPoints != 0 && misses.size() > opts.maxPoints)
        misses.resize(opts.maxPoints);

    std::mutex ledger;  // guards report.outcomes + manifest writes
    const auto finishPoint = [&](std::size_t index, PointOutcome outcome) {
        std::lock_guard<std::mutex> lock(ledger);
        report.outcomes[index] = std::move(outcome);
        recount(report);
        writeManifest(manifestPath(), buildManifest(report));
        if (opts.progress)
            opts.progress(report, false);
    };

    {
        std::lock_guard<std::mutex> lock(ledger);
        // Points this invocation will execute show as Running in the
        // manifest and the progress surface until they finish.
        for (const std::size_t index : misses)
            report.outcomes[index].status = PointStatus::Running;
        recount(report);
        writeManifest(manifestPath(), buildManifest(report));
        if (opts.progress)
            opts.progress(report, false);
    }

    // One shared pool for the whole campaign: serial points fan out
    // across it (points are the embarrassingly parallel unit of a
    // sweep); parallel points then run through ParallelRunner on the
    // same workers.
    SlavePool pool(spec.poolSlaves);

    std::vector<std::size_t> parallelMisses;
    for (const std::size_t index : misses) {
        if (expanded[index].slaves > 1) {
            parallelMisses.push_back(index);
            continue;
        }
        pool.submit([this, index, &finishPoint] {
            const SweepPoint& point = expanded[index];
            PointOutcome outcome;
            try {
                const Experiment experiment(Experiment::specFromConfig(
                    Config(point.config), opts.strict));
                outcome.result = experiment.run(point.seed);
                writeCacheEntry(point, outcome.result);
                outcome.status = PointStatus::Ran;
                outcome.resultPath = resultPath(point);
            } catch (const std::exception& e) {
                outcome.status = PointStatus::Failed;
                outcome.error = e.what();
            }
            finishPoint(index, std::move(outcome));
        });
    }
    pool.drain();

    // Parallel points one at a time: each runs the full master/slave
    // protocol with its slaves as tasks on the shared pool, and a
    // per-point checkpoint so an interrupted point resumes instead of
    // restarting.
    for (const std::size_t index : parallelMisses) {
        const SweepPoint& point = expanded[index];
        PointOutcome outcome;
        try {
            auto experiment =
                std::make_shared<Experiment>(Experiment::specFromConfig(
                    Config(point.config), opts.strict));
            ParallelConfig pcfg;
            pcfg.slaves = point.slaves;
            pcfg.sqs = experiment->specification().sqs;
            pcfg.pool = &pool;
            pcfg.checkpointPath = checkpointPath(point);
            pcfg.checkpointIdentity = point.key;
            ParallelRunner runner(
                [experiment](SqsSimulation& sim) {
                    experiment->buildInto(sim);
                },
                pcfg);
            ParallelResult parallel;
            if (std::filesystem::exists(pcfg.checkpointPath))
                parallel = runner.resume(readCheckpoint(pcfg.checkpointPath));
            else
                parallel = runner.run(point.seed);
            outcome.result = parallel.toSqsResult();
            // Parallel estimates depend on thread timing, so only a
            // converged result is worth caching; an unconverged one
            // leaves its checkpoint behind for the next invocation.
            if (parallel.converged) {
                writeCacheEntry(point, outcome.result);
                outcome.status = PointStatus::Ran;
                outcome.resultPath = resultPath(point);
                std::error_code ec;
                std::filesystem::remove(pcfg.checkpointPath, ec);
            } else {
                outcome.status = PointStatus::Failed;
                outcome.error =
                    std::string("parallel point stopped unconverged (")
                    + terminationReasonName(parallel.termination)
                    + "); checkpoint kept for resume";
            }
        } catch (const std::exception& e) {
            outcome.status = PointStatus::Failed;
            outcome.error = e.what();
        }
        finishPoint(index, std::move(outcome));
    }

    recount(report);
    writeManifest(manifestPath(), buildManifest(report));
    report.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - start)
            .count();
    if (opts.progress)
        opts.progress(report, true);
    return report;
}

TextTable
campaignStatusTable(const std::vector<SweepPoint>& points,
                    const CampaignReport& report)
{
    const std::vector<std::string> axes = axisColumns(points);
    std::vector<std::string> header = {"point"};
    header.insert(header.end(), axes.begin(), axes.end());
    header.insert(header.end(),
                  {"slaves", "seed", "key", "status", "converged",
                   "backend", "events"});
    TextTable table(std::move(header));
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SweepPoint& point = points[i];
        const PointOutcome& outcome = report.outcomes[i];
        std::vector<std::string> row = {std::to_string(point.index)};
        for (const std::string& path : axes)
            row.push_back(axisCell(point, path));
        row.push_back(std::to_string(point.slaves));
        row.push_back(std::to_string(point.seed));
        row.push_back(hashHex(point.keyHash));
        row.push_back(pointStatusName(outcome.status));
        const bool haveResult = outcome.status == PointStatus::Cached
                                || outcome.status == PointStatus::Ran;
        row.push_back(!haveResult ? "-"
                      : outcome.result.converged ? "yes"
                                                 : "no");
        row.push_back(haveResult
                          ? simBackendName(outcome.result.backend)
                          : "-");
        row.push_back(haveResult
                          ? std::to_string(outcome.result.events)
                          : "-");
        table.addRow(std::move(row));
    }
    return table;
}

TextTable
campaignExportTable(const std::vector<SweepPoint>& points,
                    const CampaignReport& report)
{
    const std::vector<std::string> axes = axisColumns(points);
    std::vector<std::string> header = {"point"};
    header.insert(header.end(), axes.begin(), axes.end());
    header.insert(header.end(),
                  {"seed", "converged", "metric", "mean", "mean_halfwidth",
                   "stddev", "accepted", "q", "q_value", "q_lower",
                   "q_upper"});
    TextTable table(std::move(header));
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SweepPoint& point = points[i];
        const PointOutcome& outcome = report.outcomes[i];
        if (outcome.status != PointStatus::Cached
            && outcome.status != PointStatus::Ran) {
            continue;
        }
        std::vector<std::string> prefix = {std::to_string(point.index)};
        for (const std::string& path : axes)
            prefix.push_back(axisCell(point, path));
        prefix.push_back(std::to_string(point.seed));
        prefix.push_back(outcome.result.converged ? "yes" : "no");
        // Metrics in name-sorted order: exports diff cleanly across
        // runs and across configs that register metrics differently.
        for (const MetricEstimate& metric :
             sortedEstimates(outcome.result.estimates)) {
            const auto metricRow = [&](const std::vector<std::string>&
                                           tail) {
                std::vector<std::string> row = prefix;
                row.push_back(metric.name);
                row.push_back(formatG(metric.mean));
                row.push_back(formatG(metric.meanHalfWidth));
                row.push_back(formatG(metric.stddev));
                row.push_back(std::to_string(metric.accepted));
                row.insert(row.end(), tail.begin(), tail.end());
                table.addRow(std::move(row));
            };
            if (metric.quantiles.empty()) {
                metricRow({"-", "-", "-", "-"});
            } else {
                for (const QuantileEstimate& quantile : metric.quantiles)
                    metricRow({formatG(quantile.q),
                               formatG(quantile.value),
                               formatG(quantile.lower),
                               formatG(quantile.upper)});
            }
        }
    }
    return table;
}

JsonValue
campaignExportJson(const std::vector<SweepPoint>& points,
                   const CampaignReport& report)
{
    JsonValue::Array exported;
    exported.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SweepPoint& point = points[i];
        const PointOutcome& outcome = report.outcomes[i];
        JsonValue::Object obj;
        obj.emplace("point", JsonValue(static_cast<double>(point.index)));
        JsonValue::Object axes;
        for (const auto& [path, value] : point.axes)
            axes.emplace(path, JsonValue(value));
        obj.emplace("axes", JsonValue(std::move(axes)));
        obj.emplace("seed", JsonValue(std::to_string(point.seed)));
        obj.emplace("slaves",
                    JsonValue(static_cast<double>(point.slaves)));
        obj.emplace("keyHash", JsonValue(hashHex(point.keyHash)));
        obj.emplace("status", JsonValue(std::string(
                                  pointStatusName(outcome.status))));
        if (outcome.status == PointStatus::Cached
            || outcome.status == PointStatus::Ran) {
            SqsResult sorted = outcome.result;
            sorted.estimates = sortedEstimates(std::move(sorted.estimates));
            obj.emplace("result", resultToJson(sorted));
        } else {
            obj.emplace("result", JsonValue(nullptr));
            if (!outcome.error.empty())
                obj.emplace("error", JsonValue(outcome.error));
        }
        exported.emplace_back(std::move(obj));
    }
    JsonValue::Object root;
    root.emplace("format",
                 JsonValue(std::string("bighouse-campaign-export-v1")));
    root.emplace("points", JsonValue(std::move(exported)));
    return JsonValue(std::move(root));
}

} // namespace bighouse
