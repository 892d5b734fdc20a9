/**
 * @file
 * Distribution blocks in experiment configs: the workload's
 * `interarrival` and `service`, and the failures block's `uptime` and
 * `downtime` (docs/config_schema.md):
 *
 *   {"mean": M, "cv": c}                       two-moment fit (fitMeanCv)
 *   {"dist": "exponential",   "mean": M}
 *   {"dist": "weibull",       "mean": M, "shape": k}
 *   {"dist": "lognormal",     "mean": M, "cv": c}
 *   {"dist": "deterministic", "value": v}
 *   {"dist": "uniform",       "lo": a, "hi": b}
 */

#ifndef BIGHOUSE_CORE_DIST_CONFIG_HH
#define BIGHOUSE_CORE_DIST_CONFIG_HH

#include <string_view>

#include "config/config.hh"
#include "distribution/distribution.hh"

namespace bighouse {

/**
 * Build the distribution described by the block at `path`. fatal() on a
 * missing block, a missing parameter or an unknown family; `strict`
 * (false under --lax) also rejects unknown keys in the block.
 */
DistPtr distFromConfig(const Config& config, std::string_view path,
                       bool strict);

} // namespace bighouse

#endif // BIGHOUSE_CORE_DIST_CONFIG_HH
