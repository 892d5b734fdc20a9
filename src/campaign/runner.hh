/**
 * @file
 * CampaignRunner — the work-queue scheduler behind `bh_campaign run`.
 *
 * Expansion (campaign.hh) turns a CampaignSpec into an ordered deque of
 * SweepPoints; the runner is the execution layer on top:
 *
 *  - a content-addressed on-disk cache (`<cacheDir>/<hash>.json`, keyed
 *    by the canonical hash of the fully-resolved point config + seed)
 *    answers already-converged points without simulating — re-running a
 *    campaign, or resuming one after a kill, skips every cached point;
 *  - uncached serial points are dispatched across ONE shared SlavePool
 *    (point-level parallelism: independent sweep points are the
 *    embarrassingly parallel unit of a sweep);
 *  - uncached parallel points (slaves > 1) run one at a time through the
 *    full ParallelRunner supervision + quorum-merge protocol on the SAME
 *    pool, with a per-point checkpoint file under the cache directory so
 *    an interrupted point resumes through the PR-1 checkpoint machinery;
 *  - a `bighouse-campaign-v1` manifest (results_io.hh) is rewritten
 *    atomically after every point completes — the resumable ledger of
 *    how far the campaign got.
 *
 * Per-point results are bit-reproducible for serial points (fixed
 * derived seed, single stream); parallel points are statistically — not
 * bit — reproducible (their stopping batch depends on thread timing),
 * which is why the example campaigns sweep serial points and use the
 * pool for point-level parallelism.
 */

#ifndef BIGHOUSE_CAMPAIGN_RUNNER_HH
#define BIGHOUSE_CAMPAIGN_RUNNER_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "core/report.hh"
#include "core/results_io.hh"

namespace bighouse {

struct CampaignReport;

/** Execution knobs (CLI flags, test harness hooks). */
struct CampaignOptions
{
    /// Expand, probe the cache, and report — simulate nothing.
    bool dryRun = false;
    /// Reject unknown config keys (the --lax flag clears this).
    bool strict = true;
    /// Execute at most this many uncached points, leaving the rest
    /// pending (0 = no limit). The deterministic stand-in for "killed
    /// mid-sweep" in tests and the CI forced-resume smoke.
    std::size_t maxPoints = 0;
    /// Override the spec's campaign root seed (the CLI's --seed).
    std::optional<std::uint64_t> seed;
    /// Live progress surface (the CLI's report status.json / TTY line):
    /// called under the runner's ledger lock with the current report
    /// after scheduling (points marked Running) and after every point
    /// completes; `terminal` is true exactly once, for the final report.
    /// Keep it quick — point workers block on the ledger while it runs.
    std::function<void(const CampaignReport&, bool terminal)> progress;
};

/** What happened to one sweep point this invocation. */
struct PointOutcome
{
    PointStatus status = PointStatus::Pending;
    SqsResult result;        ///< valid when status is Cached or Ran
    std::string resultPath;  ///< cache entry (when a result exists)
    std::string error;       ///< failure text when status == Failed
};

/** Outcome of one campaign invocation. */
struct CampaignReport
{
    std::vector<PointOutcome> outcomes;  ///< indexed like points()
    std::size_t cached = 0;   ///< served from the cache
    std::size_t ran = 0;      ///< simulated this invocation
    std::size_t failed = 0;
    std::size_t pending = 0;  ///< left for a later invocation
    double wallSeconds = 0.0;

    /** Every point has a result (nothing failed or deferred). */
    bool complete() const { return failed == 0 && pending == 0; }
};

/** Schedules one campaign over a shared slave pool + result cache. */
class CampaignRunner
{
  public:
    explicit CampaignRunner(CampaignSpec spec, CampaignOptions options = {});

    const CampaignSpec& specification() const { return spec; }

    /** The expanded sweep, in execution order. */
    const std::vector<SweepPoint>& points() const { return expanded; }

    /**
     * Probe the cache without simulating: every point comes back Cached
     * (result loaded) or Pending. The engine behind --dry-run, `status`,
     * and `export`.
     */
    CampaignReport plan() const;

    /**
     * Execute the campaign: plan, then run every pending point (or
     * return the plan unchanged when options.dryRun). Writes/refreshes
     * the manifest after every completed point.
     */
    CampaignReport run();

    /// Cache layout (exposed for tools and tests).
    std::string resultPath(const SweepPoint& point) const;
    std::string checkpointPath(const SweepPoint& point) const;
    std::string manifestPath() const;

  private:
    bool probe(const SweepPoint& point, SqsResult* result) const;
    void writeCacheEntry(const SweepPoint& point,
                         const SqsResult& result) const;
    CampaignManifest buildManifest(const CampaignReport& report) const;

    CampaignSpec spec;
    CampaignOptions opts;
    std::vector<SweepPoint> expanded;
};

/**
 * Plan/status rendering: one row per point (index, axes, seed, key hash,
 * status, convergence) — what --dry-run and `bh_campaign status` print.
 */
TextTable campaignStatusTable(const std::vector<SweepPoint>& points,
                              const CampaignReport& report);

/**
 * Result export: one row per (point, metric), points in expansion order
 * and metrics name-sorted, so repeated exports diff cleanly.
 */
TextTable campaignExportTable(const std::vector<SweepPoint>& points,
                              const CampaignReport& report);

/** JSON export: per-point axes, seed, status, and name-sorted result. */
JsonValue campaignExportJson(const std::vector<SweepPoint>& points,
                             const CampaignReport& report);

} // namespace bighouse

#endif // BIGHOUSE_CAMPAIGN_RUNNER_HH
