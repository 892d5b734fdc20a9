/**
 * @file
 * Live status surfaces: the machine-readable status.json of a report
 * directory and one-line TTY progress rendering for the CLIs.
 *
 * A status file is a single `bighouse-status-v1` JSON document rewritten
 * atomically (writeJsonFile, like checkpoints and manifests) on every
 * progress tick — a watcher process always reads a complete, parseable
 * document, never a torn write. The `kind` field selects the
 * payload shape: "serial" (one simulation's metric state), "parallel"
 * (per-slave supervision state), or "campaign" (per-point lifecycle).
 * The terminal rewrite sets `"terminal": true`, so `jq .terminal` is the
 * liveness probe CI uses.
 */

#ifndef BIGHOUSE_OBS_STATUS_HH
#define BIGHOUSE_OBS_STATUS_HH

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "campaign/runner.hh"
#include "config/json.hh"
#include "parallel/parallel.hh"
#include "stats/metric.hh"

namespace bighouse {

/**
 * Create the report directory `dir` (and its parents) if missing and
 * delete the named files an earlier run may have left there, so the
 * directory only ever describes the current run — a watcher never reads
 * a stale terminal status.json. Returns `dir` with a trailing '/'.
 * fatal() when `dir` cannot be created.
 */
std::string prepareReportDir(const std::string& dir,
                             std::initializer_list<const char*> files);

/**
 * Status document for a serial run in flight (or finished).
 * @param termination terminationReasonName(...) once decided, nullptr
 *        while the run is still going (serialized as JSON null).
 */
JsonValue serialStatusJson(const std::vector<MetricEstimate>& estimates,
                           std::uint64_t events, double elapsedSeconds,
                           bool terminal, bool converged,
                           const char* termination);

/**
 * Status document for a parallel run. Slave states render as the
 * supervision status name ("running", "ok", "failed", "timed-out",
 * "straggler"); on the terminal snapshot of a converged run, Ok slaves
 * render as "converged".
 */
JsonValue parallelStatusJson(const ParallelProgressSnapshot& snapshot,
                             bool terminal);

/**
 * Status document for a campaign. Point states: "cache-hit", "ran",
 * "failed", "running", "pending".
 */
JsonValue campaignStatusJson(const std::vector<SweepPoint>& points,
                             const CampaignReport& report, bool terminal);

/**
 * One-line TTY progress: events, converged-metric count, and the
 * bottleneckMetric()'s accepted/required.
 */
std::string serialProgressLine(
    const std::vector<MetricEstimate>& estimates, std::uint64_t events);

/** One-line TTY progress for a parallel snapshot. */
std::string parallelProgressLine(const ParallelProgressSnapshot& snapshot);

/** One-line TTY progress for a campaign report. */
std::string campaignProgressLine(const CampaignReport& report);

} // namespace bighouse

#endif // BIGHOUSE_OBS_STATUS_HH
