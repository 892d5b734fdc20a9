#include "obs/timeline.hh"

#include <algorithm>
#include <utility>

#include "base/build_info.hh"
#include "base/logging.hh"

namespace bighouse {

// ---------------------------------------------------------------------
// TimelineGauge
// ---------------------------------------------------------------------

TimeWeightedStat
TimelineGauge::foldOpenWindow() const
{
    TimeWeightedStat stat = spill;
    for (std::size_t v = 0; v < kDirect; ++v) {
        if (direct[v] > 0.0)
            stat.addWeighted(static_cast<double>(v), direct[v]);
    }
    return stat;
}

void
TimelineGauge::advanceSlow(Time t)
{
    while (t >= windowEnd) {
        if (closed.size() + 1 >= maxWindows) {
            // The final window absorbs everything past the valve; the
            // export carries a truncated flag instead of OOM-ing on a
            // tiny width over a week of simulated time.
            truncated = true;
            windowEnd = std::numeric_limits<double>::infinity();
            break;
        }
        if (windowEnd > last)
            accumulate(windowEnd - last);
        last = windowEnd;
        closed.push_back(foldOpenWindow());
        direct.fill(0.0);
        spill = TimeWeightedStat{};
        windowEnd = width * static_cast<double>(closed.size() + 1);
    }
    if (t > last) {
        accumulate(t - last);
        last = t;
    }
}

std::vector<TimeWeightedStat>
TimelineGauge::harvest(Time now, bool* truncatedOut) const
{
    // Settle a copy: the live gauge keeps accumulating, so repeated
    // snapshots and the final result see consistent prefixes.
    TimelineGauge copy = *this;
    copy.advance(now);
    std::vector<TimeWeightedStat> out = std::move(copy.closed);
    TimeWeightedStat open = copy.foldOpenWindow();
    if (!open.empty())
        out.push_back(std::move(open));
    if (truncatedOut != nullptr)
        *truncatedOut = copy.truncated;
    return out;
}

// ---------------------------------------------------------------------
// Timeline
// ---------------------------------------------------------------------

Timeline::Timeline(TimelineSpec specification) : spec(specification)
{
    if (spec.window <= 0.0)
        fatal("timeline window width must be > 0, got ", spec.window);
    if (spec.maxWindows == 0)
        fatal("timeline maxWindows must be >= 1");
    queueGauge = TimelineGauge(spec.window, spec.maxWindows);
    busyGauge = TimelineGauge(spec.window, spec.maxWindows);
    upGauge = TimelineGauge(spec.window, spec.maxWindows);
    retryGauge = TimelineGauge(spec.window, spec.maxWindows);
    dispatches = TimelineCounter(spec.window, spec.maxWindows);
    ejections = TimelineCounter(spec.window, spec.maxWindows);
    readmissions = TimelineCounter(spec.window, spec.maxWindows);
    tasksOk = TimelineCounter(spec.window, spec.maxWindows);
    tasksLost = TimelineCounter(spec.window, spec.maxWindows);
    waitSampler = TimelineSampler(spec.window, spec.maxWindows);
    sojournSampler = TimelineSampler(spec.window, spec.maxWindows);
}

void
Timeline::registerServers(std::size_t count)
{
    BH_REQUIRE(count > 0, "timeline needs at least one server");
    perServer.assign(count, ServerShadow{});
    totalQueued = 0;
    totalBusy = 0;
    upCount = static_cast<std::int64_t>(count);
    upGauge.set(0.0, static_cast<double>(upCount));
}

TimelineData
Timeline::harvest(Time now) const
{
    TimelineData data;
    data.window = spec.window;
    data.note = note;
    data.end = now;
    data.servers = perServer.size();

    bool truncated = false;
    const auto addGauge = [&](const char* name,
                              const TimelineGauge& gauge) {
        TimelineTrackData track;
        track.name = name;
        track.kind = "gauge";
        bool hitLimit = false;
        for (const TimeWeightedStat& stat : gauge.harvest(now, &hitLimit))
            track.windows.push_back(stat.serialize());
        truncated = truncated || hitLimit;
        data.tracks.push_back(std::move(track));
    };
    const auto addCounter = [&](const char* name,
                                const TimelineCounter& counter) {
        TimelineTrackData track;
        track.name = name;
        track.kind = "counter";
        track.counts = counter.values();
        truncated = truncated || counter.hitLimit();
        data.tracks.push_back(std::move(track));
    };
    const auto addSamples = [&](const char* name,
                                const TimelineSampler& sampler) {
        TimelineTrackData track;
        track.name = name;
        track.kind = "samples";
        for (const TimeWeightedStat& stat : sampler.values())
            track.windows.push_back(stat.serialize());
        truncated = truncated || sampler.hitLimit();
        data.tracks.push_back(std::move(track));
    };

    if (recurrenceWired) {
        addSamples("sojourn_time", sojournSampler);
        addSamples("wait_time", waitSampler);
    } else {
        if (!perServer.empty()) {
            if (spec.queueDepth)
                addGauge("queue_depth", queueGauge);
            if (spec.busyCores)
                addGauge("busy_cores", busyGauge);
            if (spec.availability)
                addGauge("servers_up", upGauge);
        }
        if (balancerWired && spec.dispatch) {
            addCounter("dispatches", dispatches);
            addCounter("ejections", ejections);
            addCounter("readmissions", readmissions);
        }
        if (retryWired && spec.retries) {
            addGauge("retry_inflight", retryGauge);
            addCounter("tasks_lost", tasksLost);
            addCounter("tasks_ok", tasksOk);
        }
    }
    std::sort(data.tracks.begin(), data.tracks.end(),
              [](const TimelineTrackData& a, const TimelineTrackData& b) {
                  return a.name < b.name;
              });
    data.truncated = truncated;
    return data;
}

// ---------------------------------------------------------------------
// JSON round trip (results_io embeds this in result documents)
// ---------------------------------------------------------------------

JsonValue
timelineDataToJson(const TimelineData& data)
{
    JsonValue::Array tracks;
    tracks.reserve(data.tracks.size());
    for (const TimelineTrackData& track : data.tracks) {
        JsonValue::Object obj;
        obj.emplace("kind", JsonValue(track.kind));
        obj.emplace("name", JsonValue(track.name));
        if (track.kind == "counter") {
            JsonValue::Array counts;
            counts.reserve(track.counts.size());
            for (std::uint64_t c : track.counts)
                counts.emplace_back(static_cast<double>(c));
            obj.emplace("counts", JsonValue(std::move(counts)));
        } else {
            JsonValue::Array windows;
            windows.reserve(track.windows.size());
            for (const std::string& stat : track.windows)
                windows.emplace_back(stat);
            obj.emplace("windows", JsonValue(std::move(windows)));
        }
        tracks.emplace_back(std::move(obj));
    }
    JsonValue::Object obj;
    obj.emplace("end", JsonValue(data.end));
    obj.emplace("note", JsonValue(data.note));
    obj.emplace("servers", JsonValue(static_cast<double>(data.servers)));
    obj.emplace("source", JsonValue(data.source));
    obj.emplace("tracks", JsonValue(std::move(tracks)));
    obj.emplace("truncated", JsonValue(data.truncated));
    obj.emplace("window", JsonValue(data.window));
    return JsonValue(std::move(obj));
}

TimelineData
timelineDataFromJson(const JsonValue& json)
{
    if (!json.isObject())
        fatal("timeline data must be a JSON object");
    TimelineData data;
    const auto number = [&](const char* key) {
        const JsonValue* value = json.find(key);
        if (value == nullptr || !value->isNumber())
            fatal("timeline data missing number '", key, "'");
        return value->asNumber();
    };
    data.window = number("window");
    data.end = number("end");
    data.servers = static_cast<std::uint64_t>(number("servers"));
    const JsonValue* source = json.find("source");
    if (source != nullptr && source->isString())
        data.source = source->asString();
    const JsonValue* note = json.find("note");
    if (note != nullptr && note->isString())
        data.note = note->asString();
    const JsonValue* truncated = json.find("truncated");
    if (truncated != nullptr && truncated->isBool())
        data.truncated = truncated->asBool();
    const JsonValue* tracks = json.find("tracks");
    if (tracks == nullptr || !tracks->isArray())
        fatal("timeline data missing 'tracks' array");
    for (const JsonValue& entry : tracks->asArray()) {
        TimelineTrackData track;
        const JsonValue* name = entry.find("name");
        const JsonValue* kind = entry.find("kind");
        if (name == nullptr || !name->isString() || kind == nullptr
            || !kind->isString()) {
            fatal("timeline track needs string 'name' and 'kind'");
        }
        track.name = name->asString();
        track.kind = kind->asString();
        if (track.kind == "counter") {
            const JsonValue* counts = entry.find("counts");
            if (counts == nullptr || !counts->isArray())
                fatal("counter track '", track.name, "' missing counts");
            for (const JsonValue& c : counts->asArray())
                track.counts.push_back(
                    static_cast<std::uint64_t>(c.asNumber()));
        } else {
            const JsonValue* windows = entry.find("windows");
            if (windows == nullptr || !windows->isArray())
                fatal("track '", track.name, "' missing windows");
            for (const JsonValue& w : windows->asArray())
                track.windows.push_back(w.asString());
        }
        data.tracks.push_back(std::move(track));
    }
    return data;
}

// ---------------------------------------------------------------------
// bighouse-timeline-v1 export (JSONL)
// ---------------------------------------------------------------------

namespace {

JsonValue
buildProvenance()
{
    const BuildInfo& build = buildInfo();
    JsonValue::Object obj;
    obj.emplace("compiler", JsonValue(build.compiler));
    obj.emplace("flags", JsonValue(build.flags));
    obj.emplace("gitDescribe", JsonValue(build.gitDescribe));
    obj.emplace("sanitizer", JsonValue(build.sanitizer));
    obj.emplace("type", JsonValue(build.buildType));
    return JsonValue(std::move(obj));
}

std::string
collectNote(const std::vector<TimelineData>& sources)
{
    for (const TimelineData& data : sources) {
        if (!data.note.empty())
            return data.note;
    }
    return {};
}

bool
anyTruncated(const std::vector<TimelineData>& sources)
{
    for (const TimelineData& data : sources) {
        if (data.truncated)
            return true;
    }
    return false;
}

} // namespace

void
writeTimelineJsonl(const std::string& path,
                   const std::vector<TimelineData>& sources)
{
    JsonValue::Object header;
    header.emplace("build", buildProvenance());
    header.emplace("format", JsonValue("bighouse-timeline-v1"));
    header.emplace("note", JsonValue(collectNote(sources)));
    header.emplace("sources",
                   JsonValue(static_cast<double>(sources.size())));
    header.emplace("window",
                   JsonValue(sources.empty() ? 0.0 : sources[0].window));
    header.emplace("truncated", JsonValue(anyTruncated(sources)));
    std::string out = JsonValue(std::move(header)).dump() + "\n";
    // Stable order: source position, track name, window index.
    for (const TimelineData& data : sources) {
        for (const TimelineTrackData& track : data.tracks) {
            const bool isCounter = track.kind == "counter";
            const std::size_t windows =
                isCounter ? track.counts.size() : track.windows.size();
            for (std::size_t w = 0; w < windows; ++w) {
                JsonValue::Object obj;
                if (isCounter) {
                    obj.emplace("count", JsonValue(static_cast<double>(
                                             track.counts[w])));
                } else {
                    const TimeWeightedStat stat =
                        TimeWeightedStat::deserialize(track.windows[w]);
                    if (stat.empty())
                        continue;  // an idle sample window carries nothing
                    obj.emplace("count",
                                JsonValue(static_cast<double>(stat.count())));
                    obj.emplace("max", JsonValue(stat.max()));
                    obj.emplace("mean", JsonValue(stat.mean()));
                    obj.emplace("min", JsonValue(stat.min()));
                    obj.emplace("p50", JsonValue(stat.quantile(0.50)));
                    obj.emplace("p95", JsonValue(stat.quantile(0.95)));
                    obj.emplace("p99", JsonValue(stat.quantile(0.99)));
                    obj.emplace("weight", JsonValue(stat.totalWeight()));
                }
                obj.emplace("end", JsonValue(data.window
                                             * static_cast<double>(w + 1)));
                obj.emplace("kind", JsonValue(track.kind));
                obj.emplace("source", JsonValue(data.source));
                obj.emplace("start",
                            JsonValue(data.window * static_cast<double>(w)));
                obj.emplace("track", JsonValue(track.name));
                obj.emplace("window", JsonValue(static_cast<double>(w)));
                out += JsonValue(std::move(obj)).dump();
                out += '\n';
            }
        }
    }
    writeFileAtomic(path, out);
}

} // namespace bighouse
