#include "campaign/campaign.hh"

#include <cstdio>

#include "base/logging.hh"
#include "base/random.hh"
#include "core/experiment.hh"

namespace bighouse {

std::uint64_t
derivePointSeed(std::uint64_t campaignSeed, std::uint64_t contentHash)
{
    // The epoch-mix idiom from parallel.cc: expand the discriminator
    // through golden-ratio SplitMix64, XOR into the root. Content-keyed
    // rather than index-keyed, so inserting an axis value never shifts
    // the seeds (and cache keys) of unrelated points.
    return campaignSeed
           ^ SplitMix64(contentHash * 0x9e3779b97f4a7c15ULL).next();
}

std::string
canonicalPointKey(const JsonValue& resolvedConfig, std::uint64_t seed,
                  std::size_t slaves)
{
    JsonValue::Object key;
    key.emplace("format", JsonValue(std::string("bighouse-point-key-v1")));
    key.emplace("config", resolvedConfig);
    // Decimal string, not a JSON number: derived seeds use the full
    // 64-bit word and a double would alias the low bits past 2^53.
    key.emplace("seed", JsonValue(std::to_string(seed)));
    key.emplace("slaves", JsonValue(static_cast<double>(slaves)));
    return JsonValue(std::move(key)).dump();
}

const std::vector<std::string_view>&
campaignConfigKeys()
{
    static const std::vector<std::string_view> keys = {
        "campaign", "base", "sweep", "pool", "seed", "cache",
    };
    return keys;
}

CampaignSpec
campaignSpecFromConfig(const Config& config, bool strict)
{
    if (strict) {
        rejectUnknownKeys(config.root(), campaignConfigKeys(),
                          "campaign config");
    }
    CampaignSpec spec;
    spec.name = config.getString("campaign", "campaign");
    const JsonValue* base = config.resolve("base");
    if (base == nullptr || !base->isObject())
        fatal("campaign config needs a 'base' experiment object");
    spec.base = *base;

    const JsonValue* sweep = config.resolve("sweep");
    if (sweep != nullptr) {
        if (strict)
            rejectUnknownKeys(*sweep, {"grid", "list"}, "campaign sweep");
        const JsonValue* grid = sweep->find("grid");
        if (grid != nullptr) {
            if (!grid->isObject())
                fatal("campaign sweep.grid must be an object of "
                      "path -> value-array");
            // JsonValue objects iterate in sorted key order, which makes
            // the axis order — and so the expansion order — a property
            // of the document, not of the parser.
            for (const auto& [path, values] : grid->asObject()) {
                if (!values.isArray() || values.asArray().empty())
                    fatal("sweep axis '", path,
                          "' must be a non-empty array of values");
                SweepAxis axis;
                axis.path = path;
                axis.values = values.asArray();
                spec.grid.push_back(std::move(axis));
            }
        }
        const JsonValue* list = sweep->find("list");
        if (list != nullptr) {
            if (!list->isArray())
                fatal("campaign sweep.list must be an array of override "
                      "objects");
            for (const JsonValue& entry : list->asArray()) {
                if (!entry.isObject())
                    fatal("campaign sweep.list entries must be objects "
                          "of path -> value");
                spec.list.push_back(entry);
            }
        }
    }

    const JsonValue* pool = config.resolve("pool");
    if (pool != nullptr && strict)
        rejectUnknownKeys(*pool, {"slaves", "pointSlaves"},
                          "campaign pool");
    spec.poolSlaves =
        static_cast<std::size_t>(config.getInt("pool.slaves", 2));
    spec.pointSlaves =
        static_cast<std::size_t>(config.getInt("pool.pointSlaves", 0));
    if (spec.poolSlaves == 0)
        fatal("campaign pool.slaves must be >= 1");
    if (spec.pointSlaves > spec.poolSlaves)
        fatal("campaign pool.pointSlaves (", spec.pointSlaves,
              ") exceeds pool.slaves (", spec.poolSlaves, ")");
    spec.seed = static_cast<std::uint64_t>(config.getInt("seed", 1));
    spec.cacheDir = config.getString("cache", "");
    if (spec.cacheDir.empty())
        fatal("campaign config needs a 'cache' directory path");
    return spec;
}

namespace {

/** Human-stable rendering of an axis value for manifests and reports. */
std::string
renderAxisValue(const JsonValue& value)
{
    if (value.isString())
        return value.asString();
    if (value.isBool())
        return value.asBool() ? "true" : "false";
    if (value.isNumber()) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%.12g", value.asNumber());
        return buf;
    }
    return value.dump();
}

/** Apply one override; the reserved "slaves" path targets the point. */
void
applyOverride(SweepPoint& point, const std::string& path,
              const JsonValue& value)
{
    if (path == "slaves") {
        if (!value.isNumber() || value.asNumber() < 0)
            fatal("sweep axis 'slaves' needs non-negative numeric "
                  "values");
        point.slaves = static_cast<std::size_t>(value.asNumber());
    } else {
        jsonSetPath(point.config, path, value);
    }
    point.axes[path] = renderAxisValue(value);
}

} // namespace

std::vector<SweepPoint>
expandCampaign(const CampaignSpec& spec, bool strict)
{
    if (!spec.base.isObject())
        fatal("campaign base config must be a JSON object");
    std::vector<SweepPoint> points;

    std::uint64_t gridSize = 1;
    for (const SweepAxis& axis : spec.grid) {
        if (axis.values.empty())
            fatal("sweep axis '", axis.path, "' has no values");
        gridSize *= axis.values.size();
        if (gridSize > 100000)
            fatal("campaign grid exceeds 100000 points; shard it");
    }

    // Cartesian product, first axis slowest (odometer order).
    for (std::uint64_t flat = 0; flat < gridSize; ++flat) {
        SweepPoint point;
        point.config = spec.base;
        point.slaves = spec.pointSlaves;
        std::uint64_t remainder = flat;
        std::uint64_t stride = gridSize;
        for (const SweepAxis& axis : spec.grid) {
            stride /= axis.values.size();
            const std::size_t pick =
                static_cast<std::size_t>(remainder / stride);
            remainder %= stride;
            applyOverride(point, axis.path, axis.values[pick]);
        }
        points.push_back(std::move(point));
    }

    // Explicit list entries ride after the grid.
    for (const JsonValue& entry : spec.list) {
        SweepPoint point;
        point.config = spec.base;
        point.slaves = spec.pointSlaves;
        for (const auto& [path, value] : entry.asObject())
            applyOverride(point, path, value);
        points.push_back(std::move(point));
    }

    // Resolve identity: validate, then key + seed from content only.
    for (std::size_t i = 0; i < points.size(); ++i) {
        SweepPoint& point = points[i];
        point.index = i;
        // A typo'd axis path (say "loadfactor") lands here as an unknown
        // top-level key in the resolved config, and a point the
        // constructor's cross-key checks reject (say capping on a PS
        // server, or rho >= 1) fails here too: the whole campaign stops
        // before any point simulates or anything is written.
        const Experiment validated(
            Experiment::specFromConfig(Config(point.config), strict));
        const std::string content =
            canonicalPointKey(point.config, 0, point.slaves);
        point.seed = derivePointSeed(spec.seed, fnv1a64(content));
        point.key =
            canonicalPointKey(point.config, point.seed, point.slaves);
        point.keyHash = fnv1a64(point.key);
    }
    return points;
}

} // namespace bighouse
