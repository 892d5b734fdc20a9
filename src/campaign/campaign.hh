/**
 * @file
 * Declarative parameter sweeps — the campaign layer.
 *
 * BigHouse's evaluation *is* a set of sweeps (Fig. 5's Cv × load grid,
 * Fig. 7's cluster sizes, Fig. 8/9's accuracy grids); a CampaignSpec
 * makes that a first-class, config-file-driven object instead of a
 * bespoke bench binary per figure. A campaign names a base experiment
 * config plus sweep axes; expansion overlays each axis combination onto
 * the base document and yields an ordered list of SweepPoints, each with
 * a canonical content key, a derived root seed, and a fully-resolved
 * experiment config that parses on its own.
 *
 * Determinism contract: a point's seed and cache key depend only on its
 * resolved content (config + slave count) and the campaign root seed —
 * never on expansion order, scheduling, or which pool worker runs it —
 * so any point is bit-reproducible in isolation and a cache entry keyed
 * this way can be trusted across interrupted and re-run campaigns.
 */

#ifndef BIGHOUSE_CAMPAIGN_CAMPAIGN_HH
#define BIGHOUSE_CAMPAIGN_CAMPAIGN_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "base/strings.hh"
#include "config/config.hh"
#include "config/json.hh"

namespace bighouse {

/** One sweep dimension: a dotted config path and its values. */
struct SweepAxis
{
    /// Dotted path into the experiment config ("loadFactor",
    /// "workload.service.cv", "capping.budgetFraction", ...). The
    /// reserved path "slaves" sets the point's slave count instead of a
    /// config key (0/1 = serial point, >1 = parallel via the shared
    /// pool).
    std::string path;
    std::vector<JsonValue> values;
};

/** Parsed campaign description (see docs/campaigns.md for the grammar). */
struct CampaignSpec
{
    std::string name;
    JsonValue base;              ///< base experiment config (object)
    std::vector<SweepAxis> grid; ///< cartesian product, in path order
    /// Explicit extra points: each entry is an object of dotted-path ->
    /// value overrides applied to the base config.
    std::vector<JsonValue> list;
    std::uint64_t seed = 1;      ///< campaign root seed
    std::size_t poolSlaves = 2;  ///< shared slave-pool width
    std::size_t pointSlaves = 0; ///< default per-point slave count
    std::string cacheDir;        ///< content-addressed result cache
};

/** One fully-resolved point of a sweep. */
struct SweepPoint
{
    std::size_t index = 0;       ///< expansion order
    JsonValue config;            ///< resolved experiment config (object)
    /// Sweep coordinates: axis path -> rendered value (sorted by path).
    std::map<std::string, std::string> axes;
    std::size_t slaves = 0;      ///< 0/1 = serial; >1 = parallel
    std::uint64_t seed = 0;      ///< derived via derivePointSeed()
    std::string key;             ///< canonical content key
    std::uint64_t keyHash = 0;   ///< fnv1a64(key); names the cache entry
};

/**
 * Derive a point's root seed from the campaign seed and the hash of the
 * point's resolved content, through the same golden-ratio SplitMix64
 * mixing the parallel runtime uses for resume epochs: points with any
 * config difference draw statistically independent streams, while the
 * same point re-expanded later (or after a kill) gets the same seed —
 * the bit-reproducibility anchor of the result cache.
 */
std::uint64_t derivePointSeed(std::uint64_t campaignSeed,
                              std::uint64_t contentHash);

/**
 * The canonical cache-key string of a resolved point: a compact JSON
 * document over the resolved config, seed, and slave count. Any field or
 * seed change produces a different key (and so a cache miss); key-order
 * stability comes from JsonValue's sorted object keys.
 */
std::string canonicalPointKey(const JsonValue& resolvedConfig,
                              std::uint64_t seed, std::size_t slaves);

/**
 * Parse a campaign config file. `strict` rejects unknown keys at every
 * level of the campaign grammar (base configs are validated during
 * expansion instead, where axis overlays have already been applied).
 */
CampaignSpec campaignSpecFromConfig(const Config& config,
                                    bool strict = true);

/** Top-level keys campaignSpecFromConfig() understands. */
const std::vector<std::string_view>& campaignConfigKeys();

/**
 * Expand a campaign into its ordered sweep points: the grid axes'
 * cartesian product (first axis slowest) followed by the explicit list
 * entries. Every resolved config is validated through
 * Experiment::specFromConfig (strict unless `strict` is false), so a
 * typo'd axis path fails here — before anything simulates.
 */
std::vector<SweepPoint> expandCampaign(const CampaignSpec& spec,
                                       bool strict = true);

} // namespace bighouse

#endif // BIGHOUSE_CAMPAIGN_CAMPAIGN_HH
