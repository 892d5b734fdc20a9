/**
 * @file
 * Results export/import: serialize an SqsResult to JSON so downstream
 * tooling (plotting scripts, result archives, CI dashboards) can consume
 * converged estimates without parsing console tables.
 *
 * Also defines the parallel-run checkpoint format: a periodic snapshot
 * of every healthy slave's measured sample (accumulator moments plus
 * serialized histogram) that lets an interrupted master/slave run resume
 * without discarding the statistical work already paid for. See
 * docs/robustness.md for the schema.
 */

#ifndef BIGHOUSE_CORE_RESULTS_IO_HH
#define BIGHOUSE_CORE_RESULTS_IO_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "config/json.hh"
#include "core/sqs.hh"

namespace bighouse {

/** Full-fidelity JSON rendering of a result. */
JsonValue resultToJson(const SqsResult& result);

/** Inverse of resultToJson(); fatal() on schema violations. */
SqsResult resultFromJson(const JsonValue& json);

/** Write a result atomically to a .json file (pretty-printed). */
void writeResult(const std::string& path, const SqsResult& result);

/** Read a result written by writeResult(). */
SqsResult readResult(const std::string& path);

// ---------------------------------------------------------------------
// Parallel checkpoint format
// ---------------------------------------------------------------------

/** One metric's measured sample as checkpointed for one contributor. */
struct CheckpointSample
{
    std::uint64_t count = 0;  ///< accepted observations
    double mean = 0.0;
    double variance = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::string histogram;    ///< Histogram::serialize()
};

/** One slave's checkpointed contribution. */
struct CheckpointSlave
{
    std::uint64_t events = 0;  ///< events the slave had executed
    std::vector<CheckpointSample> samples;  ///< one per metric, in id order
};

/**
 * A resumable snapshot of a parallel run ("bighouse-checkpoint-v2").
 * `base` carries the merged sample inherited from earlier epochs (empty
 * on a first-generation checkpoint); `slaves` carries the current
 * epoch's per-slave samples. Resuming merges both into the new run's
 * prior.
 */
struct ParallelCheckpoint
{
    /// Caller-supplied name of the model and config that produced the
    /// samples (ParallelConfig::checkpointIdentity); resume rejects a
    /// mismatch, since the samples would mix two different systems.
    std::string identity;
    std::uint64_t rootSeed = 0;
    /// Completed resume generations (0 = never resumed). Each epoch's
    /// slaves draw distinct seed streams so resumed measurement is
    /// independent of the checkpointed sample.
    std::uint64_t epoch = 0;
    /// Events paid by earlier epochs (accounting only).
    std::uint64_t baseEvents = 0;
    std::vector<std::string> metricNames;
    std::vector<CheckpointSample> base;   ///< merged prior sample (may be empty)
    std::vector<CheckpointSlave> slaves;
};

/** Full-fidelity JSON rendering of a checkpoint. */
JsonValue checkpointToJson(const ParallelCheckpoint& checkpoint);

/** Inverse of checkpointToJson(); fatal() on schema violations. */
ParallelCheckpoint checkpointFromJson(const JsonValue& json);

/** Write a checkpoint atomically (tmp file + rename). */
void writeCheckpoint(const std::string& path,
                     const ParallelCheckpoint& checkpoint);

/** Read a checkpoint written by writeCheckpoint(). */
ParallelCheckpoint readCheckpoint(const std::string& path);

// ---------------------------------------------------------------------
// Campaign manifest format ("bighouse-campaign-v1")
// ---------------------------------------------------------------------

/** Lifecycle of one sweep point within a campaign generation. */
enum class PointStatus
{
    Pending,  ///< expanded, no cached result yet
    Running,  ///< scheduled by this generation, not yet finished
    Cached,   ///< served from the content-addressed cache
    Ran,      ///< simulated (and cached) by this generation
    Failed,   ///< execution raised; no result cached
};

/** Render a PointStatus as text ("pending", "cached", ...). */
const char* pointStatusName(PointStatus status);

/** Inverse of pointStatusName(); fatal() on unknown names. */
PointStatus pointStatusFromName(std::string_view name);

/** One sweep point's ledger entry in a campaign manifest. */
struct ManifestPoint
{
    std::uint64_t index = 0;     ///< position in expansion order
    std::string key;             ///< canonical content key (config+seed)
    std::string keyHash;         ///< 16-hex-digit FNV-1a of `key`
    std::uint64_t seed = 0;      ///< derived per-point root seed
    std::uint64_t slaves = 0;    ///< 0/1 = serial point; >1 = parallel
    PointStatus status = PointStatus::Pending;
    bool converged = false;      ///< valid when a result exists
    std::uint64_t events = 0;
    double wallSeconds = 0.0;
    /// Resolved sim backend name ("des"/"recurrence"); empty for points
    /// without a result and for manifests predating the field.
    std::string backend;
    /// Sweep coordinates: axis path -> rendered value (sorted by path).
    std::map<std::string, std::string> axes;
};

/**
 * The resumable ledger of a campaign: every expanded point, its content
 * hash (which names its cache entry), and how far execution got. Written
 * atomically after every point completes, so a killed campaign resumes
 * by re-expanding and skipping every key the cache already holds.
 */
struct CampaignManifest
{
    std::string campaign;        ///< campaign name from the spec
    std::uint64_t rootSeed = 0;  ///< campaign root seed (pre-derivation)
    std::vector<ManifestPoint> points;  ///< in expansion order
};

/** Full-fidelity JSON rendering of a manifest. */
JsonValue manifestToJson(const CampaignManifest& manifest);

/** Inverse of manifestToJson(); fatal() on schema violations. */
CampaignManifest manifestFromJson(const JsonValue& json);

/** Write a manifest atomically (tmp file + rename). */
void writeManifest(const std::string& path,
                   const CampaignManifest& manifest);

/** Read a manifest written by writeManifest(). */
CampaignManifest readManifest(const std::string& path);

} // namespace bighouse

#endif // BIGHOUSE_CORE_RESULTS_IO_HH
