#include "core/results_io.hh"

#include "base/logging.hh"
#include "base/strings.hh"
#include "obs/timeline.hh"

namespace bighouse {

namespace {

JsonValue
quantileToJson(const QuantileEstimate& qe)
{
    JsonValue::Object obj;
    obj.emplace("q", JsonValue(qe.q));
    obj.emplace("value", JsonValue(qe.value));
    obj.emplace("lower", JsonValue(qe.lower));
    obj.emplace("upper", JsonValue(qe.upper));
    return JsonValue(std::move(obj));
}

JsonValue
estimateToJson(const MetricEstimate& est)
{
    JsonValue::Object obj;
    obj.emplace("name", JsonValue(est.name));
    obj.emplace("phase", JsonValue(std::string(phaseName(est.phase))));
    obj.emplace("converged", JsonValue(est.converged));
    obj.emplace("accepted", JsonValue(static_cast<double>(est.accepted)));
    obj.emplace("offered", JsonValue(static_cast<double>(est.offered)));
    obj.emplace("lag", JsonValue(static_cast<double>(est.lag)));
    obj.emplace("required", JsonValue(static_cast<double>(est.required)));
    obj.emplace("mean", JsonValue(est.mean));
    obj.emplace("meanHalfWidth", JsonValue(est.meanHalfWidth));
    obj.emplace("relativeHalfWidth", JsonValue(est.relativeHalfWidth));
    obj.emplace("stddev", JsonValue(est.stddev));
    obj.emplace("min", JsonValue(est.min));
    obj.emplace("max", JsonValue(est.max));
    JsonValue::Array quantiles;
    for (const QuantileEstimate& qe : est.quantiles)
        quantiles.push_back(quantileToJson(qe));
    obj.emplace("quantiles", JsonValue(std::move(quantiles)));
    return JsonValue(std::move(obj));
}

Phase
phaseFromName(const std::string& name)
{
    if (name == "warmup")
        return Phase::Warmup;
    if (name == "calibration")
        return Phase::Calibration;
    if (name == "measurement")
        return Phase::Measurement;
    if (name == "converged")
        return Phase::Converged;
    fatal("unknown phase name '", name, "' in result JSON");
}

double
requireNumber(const JsonValue& obj, const char* key)
{
    const JsonValue* node = obj.find(key);
    if (node == nullptr || !node->isNumber())
        fatal("result JSON missing numeric field '", key, "'");
    return node->asNumber();
}

MetricEstimate
estimateFromJson(const JsonValue& json)
{
    MetricEstimate est;
    const JsonValue* name = json.find("name");
    const JsonValue* phase = json.find("phase");
    if (name == nullptr || !name->isString() || phase == nullptr
        || !phase->isString()) {
        fatal("result JSON estimate missing name/phase");
    }
    est.name = name->asString();
    est.phase = phaseFromName(phase->asString());
    const JsonValue* converged = json.find("converged");
    est.converged = converged != nullptr && converged->isBool()
                        ? converged->asBool()
                        : est.phase == Phase::Converged;
    est.accepted =
        static_cast<std::uint64_t>(requireNumber(json, "accepted"));
    est.offered =
        static_cast<std::uint64_t>(requireNumber(json, "offered"));
    est.lag = static_cast<std::size_t>(requireNumber(json, "lag"));
    est.required =
        static_cast<std::uint64_t>(requireNumber(json, "required"));
    est.mean = requireNumber(json, "mean");
    est.meanHalfWidth = requireNumber(json, "meanHalfWidth");
    est.relativeHalfWidth = requireNumber(json, "relativeHalfWidth");
    est.stddev = requireNumber(json, "stddev");
    est.min = requireNumber(json, "min");
    est.max = requireNumber(json, "max");
    const JsonValue* quantiles = json.find("quantiles");
    if (quantiles != nullptr && quantiles->isArray()) {
        for (const JsonValue& entry : quantiles->asArray()) {
            QuantileEstimate qe;
            qe.q = requireNumber(entry, "q");
            qe.value = requireNumber(entry, "value");
            qe.lower = requireNumber(entry, "lower");
            qe.upper = requireNumber(entry, "upper");
            est.quantiles.push_back(qe);
        }
    }
    return est;
}

// The "failures" object's counter fields, in serialization order.
// Shared by the writer and the reader so the two cannot drift.
struct CounterField
{
    const char* key;
    std::uint64_t FailureCounters::* member;
};

constexpr CounterField kCounterFields[] = {
    {"failuresInjected", &FailureCounters::failuresInjected},
    {"repairsCompleted", &FailureCounters::repairsCompleted},
    {"tasksDropped", &FailureCounters::tasksDropped},
    {"tasksRequeued", &FailureCounters::tasksRequeued},
    {"tasksRejected", &FailureCounters::tasksRejected},
    {"tasksRetried", &FailureCounters::tasksRetried},
    {"tasksLost", &FailureCounters::tasksLost},
    {"tasksCompletedOk", &FailureCounters::tasksCompletedOk},
    {"tasksTimedOut", &FailureCounters::tasksTimedOut},
    {"staleCompletions", &FailureCounters::staleCompletions},
    {"backendsEjected", &FailureCounters::backendsEjected},
    {"backendsReadmitted", &FailureCounters::backendsReadmitted},
};

JsonValue
failureTotalsToJson(const FailureTotals& totals)
{
    JsonValue::Object obj;
    for (const CounterField& field : kCounterFields) {
        obj.emplace(field.key,
                    JsonValue(static_cast<double>(
                        totals.counters.*(field.member))));
    }
    obj.emplace("serverSecondsUp", JsonValue(totals.serverSecondsUp));
    obj.emplace("serverSecondsDown", JsonValue(totals.serverSecondsDown));
    // Derived, for humans and schema checks; the reader recomputes from
    // the integrals, so round-trips stay exact.
    obj.emplace("availability", JsonValue(totals.availability()));
    obj.emplace("goodput", JsonValue(totals.goodput()));
    return JsonValue(std::move(obj));
}

FailureTotals
failureTotalsFromJson(const JsonValue& json)
{
    FailureTotals totals;
    for (const CounterField& field : kCounterFields) {
        totals.counters.*(field.member) =
            static_cast<std::uint64_t>(requireNumber(json, field.key));
    }
    totals.serverSecondsUp = requireNumber(json, "serverSecondsUp");
    totals.serverSecondsDown = requireNumber(json, "serverSecondsDown");
    return totals;
}

} // namespace

JsonValue
resultToJson(const SqsResult& result)
{
    JsonValue::Object obj;
    obj.emplace("converged", JsonValue(result.converged));
    obj.emplace("termination",
                JsonValue(std::string(
                    terminationReasonName(result.termination))));
    obj.emplace("backend",
                JsonValue(std::string(simBackendName(result.backend))));
    obj.emplace("events", JsonValue(static_cast<double>(result.events)));
    obj.emplace("simulatedTime", JsonValue(result.simulatedTime));
    obj.emplace("wallSeconds", JsonValue(result.wallSeconds));
    JsonValue::Array estimates;
    for (const MetricEstimate& est : result.estimates)
        estimates.push_back(estimateToJson(est));
    obj.emplace("estimates", JsonValue(std::move(estimates)));
    // Absent for failure-free runs: their files stay byte-identical to
    // the pre-failure schema.
    if (result.failures.has_value())
        obj.emplace("failures", failureTotalsToJson(*result.failures));
    // Absent for timeline-off runs, for the same reason.
    if (result.timeline.has_value())
        obj.emplace("timeline", timelineDataToJson(*result.timeline));
    return JsonValue(std::move(obj));
}

SqsResult
resultFromJson(const JsonValue& json)
{
    SqsResult result;
    const JsonValue* converged = json.find("converged");
    if (converged == nullptr || !converged->isBool())
        fatal("result JSON missing 'converged'");
    result.converged = converged->asBool();
    const JsonValue* termination = json.find("termination");
    if (termination != nullptr && termination->isString()) {
        result.termination =
            terminationReasonFromName(termination->asString());
    } else {
        // Legacy files predate the reason field; all we know is whether
        // the run converged or stopped early for an unrecorded cause.
        result.termination = result.converged
                                 ? TerminationReason::Converged
                                 : TerminationReason::Drained;
    }
    // Legacy files predate the backend field; everything before it was
    // event-driven.
    const JsonValue* backend = json.find("backend");
    result.backend = backend != nullptr && backend->isString()
                         ? simBackendFromName(backend->asString())
                         : SimBackend::Des;
    result.events =
        static_cast<std::uint64_t>(requireNumber(json, "events"));
    result.simulatedTime = requireNumber(json, "simulatedTime");
    result.wallSeconds = requireNumber(json, "wallSeconds");
    const JsonValue* estimates = json.find("estimates");
    if (estimates == nullptr || !estimates->isArray())
        fatal("result JSON missing 'estimates' array");
    for (const JsonValue& entry : estimates->asArray())
        result.estimates.push_back(estimateFromJson(entry));
    const JsonValue* failures = json.find("failures");
    if (failures != nullptr && failures->isObject())
        result.failures = failureTotalsFromJson(*failures);
    const JsonValue* timeline = json.find("timeline");
    if (timeline != nullptr && timeline->isObject())
        result.timeline = timelineDataFromJson(*timeline);
    return result;
}

void
writeResult(const std::string& path, const SqsResult& result)
{
    writeJsonFile(path, resultToJson(result));
}

SqsResult
readResult(const std::string& path)
{
    return resultFromJson(parseJsonFile(path));
}

namespace {

constexpr const char* kCheckpointFormat = "bighouse-checkpoint-v3";

JsonValue
checkpointMetricToJson(const std::string& name, const MetricSample& sample)
{
    const Accumulator& acc = sample.accumulator;
    // JSON has no infinity: an empty sample's extremes are written as 0
    // and never read back (Accumulator::restore ignores them).
    const bool empty = acc.count() == 0;
    JsonValue::Object obj;
    obj.emplace("name", JsonValue(name));
    obj.emplace("count", JsonValue(static_cast<double>(acc.count())));
    obj.emplace("mean", JsonValue(acc.mean()));
    obj.emplace("variance", JsonValue(acc.variance()));
    obj.emplace("min", JsonValue(empty ? 0.0 : acc.min()));
    obj.emplace("max", JsonValue(empty ? 0.0 : acc.max()));
    obj.emplace("histogram", JsonValue(sample.histogram.serialize()));
    return JsonValue(std::move(obj));
}

const JsonValue::Array&
requireArray(const JsonValue& json, const char* key)
{
    const JsonValue* node = json.find(key);
    if (node == nullptr || !node->isArray())
        fatal("checkpoint JSON missing '", key, "' array");
    return node->asArray();
}

} // namespace

JsonValue
checkpointToJson(const ParallelCheckpoint& checkpoint)
{
    BH_REQUIRE(checkpoint.samples.size() == checkpoint.metricNames.size(),
               "checkpoint has ", checkpoint.samples.size(),
               " samples for ", checkpoint.metricNames.size(), " metrics");
    JsonValue::Object obj;
    obj.emplace("format", JsonValue(std::string(kCheckpointFormat)));
    obj.emplace("identity", JsonValue(checkpoint.identity));
    obj.emplace("rootSeed",
                JsonValue(static_cast<double>(checkpoint.rootSeed)));
    obj.emplace("epoch", JsonValue(static_cast<double>(checkpoint.epoch)));
    obj.emplace("events",
                JsonValue(static_cast<double>(checkpoint.events)));
    JsonValue::Array metrics;
    // reserve() also sidesteps a GCC 12 -Wmaybe-uninitialized false
    // positive in std::variant's move-assign during vector growth.
    metrics.reserve(checkpoint.samples.size());
    for (std::size_t i = 0; i < checkpoint.samples.size(); ++i) {
        metrics.push_back(checkpointMetricToJson(checkpoint.metricNames[i],
                                                 checkpoint.samples[i]));
    }
    obj.emplace("metrics", JsonValue(std::move(metrics)));
    return JsonValue(std::move(obj));
}

ParallelCheckpoint
checkpointFromJson(const JsonValue& json)
{
    const JsonValue* format = json.find("format");
    if (format == nullptr || !format->isString()
        || !format->asString().starts_with("bighouse-checkpoint-")) {
        fatal("not a BigHouse checkpoint (missing/unknown 'format')");
    }
    if (format->asString() != kCheckpointFormat) {
        // v1 stored histograms over calibrated bins that no longer
        // exist; v2 stored per-slave samples instead of the merged one.
        fatal("checkpoint format '", format->asString(),
              "' is not supported (this build reads '", kCheckpointFormat,
              "'); start the run afresh");
    }
    ParallelCheckpoint checkpoint;
    const JsonValue* identity = json.find("identity");
    if (identity == nullptr || !identity->isString())
        fatal("checkpoint JSON missing 'identity' string");
    checkpoint.identity = identity->asString();
    checkpoint.rootSeed =
        static_cast<std::uint64_t>(requireNumber(json, "rootSeed"));
    checkpoint.epoch =
        static_cast<std::uint64_t>(requireNumber(json, "epoch"));
    checkpoint.events =
        static_cast<std::uint64_t>(requireNumber(json, "events"));
    for (const JsonValue& entry : requireArray(json, "metrics")) {
        const JsonValue* name = entry.find("name");
        const JsonValue* hist = entry.find("histogram");
        if (name == nullptr || !name->isString() || hist == nullptr
            || !hist->isString()) {
            fatal("checkpoint metric needs 'name' and 'histogram' strings");
        }
        MetricSample sample;
        sample.accumulator = Accumulator::restore(
            static_cast<std::uint64_t>(requireNumber(entry, "count")),
            requireNumber(entry, "mean"), requireNumber(entry, "variance"),
            requireNumber(entry, "min"), requireNumber(entry, "max"));
        sample.histogram = Histogram::deserialize(hist->asString());
        if (sample.histogram.count() != sample.accumulator.count()) {
            fatal("checkpoint metric '", name->asString(), "' has ",
                  sample.accumulator.count(), " observations but its "
                  "histogram holds ", sample.histogram.count());
        }
        checkpoint.metricNames.push_back(name->asString());
        checkpoint.samples.push_back(std::move(sample));
    }
    return checkpoint;
}

void
writeCheckpoint(const std::string& path,
                const ParallelCheckpoint& checkpoint)
{
    // Atomic, so a crash mid-write never corrupts the last good
    // checkpoint.
    writeJsonFile(path, checkpointToJson(checkpoint));
}

ParallelCheckpoint
readCheckpoint(const std::string& path)
{
    return checkpointFromJson(parseJsonFile(path));
}

// ---------------------------------------------------------------------
// Campaign manifest
// ---------------------------------------------------------------------

const char*
pointStatusName(PointStatus status)
{
    switch (status) {
      case PointStatus::Pending: return "pending";
      case PointStatus::Running: return "running";
      case PointStatus::Cached: return "cached";
      case PointStatus::Ran: return "ran";
      case PointStatus::Failed: return "failed";
    }
    return "unknown";
}

PointStatus
pointStatusFromName(std::string_view name)
{
    if (name == "pending")
        return PointStatus::Pending;
    if (name == "running")
        return PointStatus::Running;
    if (name == "cached")
        return PointStatus::Cached;
    if (name == "ran")
        return PointStatus::Ran;
    if (name == "failed")
        return PointStatus::Failed;
    fatalUnknownName("point status", name,
                     {"pending", "running", "cached", "ran", "failed"});
}

namespace {

/**
 * Seeds are full 64-bit values (golden-ratio mixes use the whole word),
 * so they travel as decimal strings — JSON numbers are doubles and
 * would silently drop the low bits past 2^53.
 */
std::string
u64ToString(std::uint64_t value)
{
    return std::to_string(value);
}

std::uint64_t
u64FromString(const JsonValue& json, const char* field)
{
    const JsonValue* node = json.find(field);
    if (node == nullptr || !node->isString())
        fatal("manifest field '", field, "' must be a decimal string");
    const std::string& text = node->asString();
    std::uint64_t value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            fatal("manifest field '", field, "' is not a decimal string: '",
                  text, "'");
        value = value * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return value;
}

JsonValue
manifestPointToJson(const ManifestPoint& point)
{
    JsonValue::Object obj;
    obj.emplace("index", JsonValue(static_cast<double>(point.index)));
    obj.emplace("key", JsonValue(point.key));
    obj.emplace("keyHash", JsonValue(point.keyHash));
    obj.emplace("seed", JsonValue(u64ToString(point.seed)));
    obj.emplace("slaves", JsonValue(static_cast<double>(point.slaves)));
    obj.emplace("status",
                JsonValue(std::string(pointStatusName(point.status))));
    obj.emplace("converged", JsonValue(point.converged));
    obj.emplace("backend", JsonValue(point.backend));
    obj.emplace("events", JsonValue(static_cast<double>(point.events)));
    obj.emplace("wallSeconds", JsonValue(point.wallSeconds));
    JsonValue::Object axes;
    for (const auto& [path, value] : point.axes)
        axes.emplace(path, JsonValue(value));
    obj.emplace("axes", JsonValue(std::move(axes)));
    return JsonValue(std::move(obj));
}

ManifestPoint
manifestPointFromJson(const JsonValue& json)
{
    ManifestPoint point;
    point.index = static_cast<std::uint64_t>(requireNumber(json, "index"));
    const JsonValue* key = json.find("key");
    const JsonValue* hash = json.find("keyHash");
    const JsonValue* status = json.find("status");
    if (key == nullptr || !key->isString() || hash == nullptr
        || !hash->isString() || status == nullptr || !status->isString()) {
        fatal("manifest point missing key/keyHash/status");
    }
    point.key = key->asString();
    point.keyHash = hash->asString();
    point.status = pointStatusFromName(status->asString());
    point.seed = u64FromString(json, "seed");
    point.slaves =
        static_cast<std::uint64_t>(requireNumber(json, "slaves"));
    const JsonValue* converged = json.find("converged");
    if (converged == nullptr || !converged->isBool())
        fatal("manifest point missing 'converged'");
    point.converged = converged->asBool();
    const JsonValue* backend = json.find("backend");
    if (backend != nullptr && backend->isString())
        point.backend = backend->asString();
    point.events =
        static_cast<std::uint64_t>(requireNumber(json, "events"));
    point.wallSeconds = requireNumber(json, "wallSeconds");
    const JsonValue* axes = json.find("axes");
    if (axes != nullptr && axes->isObject()) {
        for (const auto& [path, value] : axes->asObject()) {
            if (!value.isString())
                fatal("manifest point axis '", path, "' must be a string");
            point.axes.emplace(path, value.asString());
        }
    }
    return point;
}

} // namespace

JsonValue
manifestToJson(const CampaignManifest& manifest)
{
    JsonValue::Object obj;
    obj.emplace("format", JsonValue(std::string("bighouse-campaign-v1")));
    obj.emplace("campaign", JsonValue(manifest.campaign));
    obj.emplace("rootSeed", JsonValue(u64ToString(manifest.rootSeed)));
    JsonValue::Array points;
    points.reserve(manifest.points.size());
    for (const ManifestPoint& point : manifest.points)
        points.push_back(manifestPointToJson(point));
    obj.emplace("points", JsonValue(std::move(points)));
    return JsonValue(std::move(obj));
}

CampaignManifest
manifestFromJson(const JsonValue& json)
{
    const JsonValue* format = json.find("format");
    if (format == nullptr || !format->isString()
        || format->asString() != "bighouse-campaign-v1") {
        fatal("not a BigHouse campaign manifest (missing/unknown "
              "'format')");
    }
    CampaignManifest manifest;
    const JsonValue* campaign = json.find("campaign");
    if (campaign == nullptr || !campaign->isString())
        fatal("campaign manifest missing 'campaign'");
    manifest.campaign = campaign->asString();
    manifest.rootSeed = u64FromString(json, "rootSeed");
    for (const JsonValue& point : requireArray(json, "points"))
        manifest.points.push_back(manifestPointFromJson(point));
    return manifest;
}

void
writeManifest(const std::string& path, const CampaignManifest& manifest)
{
    // Atomic like checkpoints: a kill mid-write never corrupts the last
    // good ledger.
    writeJsonFile(path, manifestToJson(manifest));
}

CampaignManifest
readManifest(const std::string& path)
{
    return manifestFromJson(parseJsonFile(path));
}

} // namespace bighouse
