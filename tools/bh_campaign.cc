/**
 * @file
 * bh_campaign — declarative parameter sweeps over one shared slave pool.
 *
 * Usage:
 *   bh_campaign run <campaign.json> [--seed N] [--dry-run] [--lax]
 *                   [--max-points N] [--csv] [--report DIR] [--progress]
 *   bh_campaign status <campaign.json> [--seed N] [--lax] [--csv]
 *   bh_campaign export <campaign.json> [--seed N] [--lax]
 *                      [--csv | --json] [--out FILE] [--timeline-out FILE]
 *
 * `run` expands the campaign, probes the content-addressed result cache,
 * and simulates only the missing points (across one shared slave pool);
 * the manifest under the cache directory is rewritten after every point,
 * so a killed campaign resumes by simply running again. `--dry-run`
 * prints the plan — points, seeds, cache hits — without simulating or
 * touching the cache. `--max-points N` stops after N uncached points
 * (the deterministic stand-in for an interrupted sweep). `--report DIR`
 * keeps DIR/status.json (`bighouse-status-v1`, kind "campaign") rewritten
 * atomically as points finish, terminal at the end. `status` shows the
 * per-point cache state; `export` emits every cached result as CSV
 * (default) or JSON, metrics in sorted, stable order, and
 * `--timeline-out` writes every cached point's timeline as one
 * `bighouse-timeline-v1` JSONL file. A flag given to a command that
 * does not use it is a usage error.
 *
 * Exit status: 0 when every point has a converged-or-cached result, 1
 * when any point is pending or failed, 2 on usage errors.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "base/build_info.hh"
#include "base/logging.hh"
#include "campaign/campaign.hh"
#include "campaign/runner.hh"
#include "config/config.hh"
#include "obs/status.hh"
#include "obs/timeline.hh"

using namespace bighouse;

namespace {

void
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s run <campaign.json> [--seed N] [--dry-run] "
                 "[--lax] [--max-points N] [--csv] [--report DIR] "
                 "[--progress]\n"
                 "       %s status <campaign.json> [--seed N] [--lax] "
                 "[--csv]\n"
                 "       %s export <campaign.json> [--seed N] [--lax] "
                 "[--csv | --json] [--out FILE] [--timeline-out FILE]\n"
                 "       %s --version\n",
                 argv0, argv0, argv0, argv0);
    std::exit(2);
}

/** Erase-and-rewrite a TTY progress line on stderr. */
void
printProgressLine(const std::string& line)
{
    std::fprintf(stderr, "\r\033[K%s", line.c_str());
    std::fflush(stderr);
}

void
printSummary(const CampaignReport& report, std::size_t points)
{
    std::printf("campaign %s: %zu point(s) — %zu cached, %zu ran, "
                "%zu failed, %zu pending\n",
                report.complete() ? "complete" : "INCOMPLETE", points,
                report.cached, report.ran, report.failed,
                report.pending);
}

void
emit(const std::string& text, const char* outPath)
{
    if (outPath == nullptr) {
        std::printf("%s", text.c_str());
        return;
    }
    std::ofstream out(outPath);
    if (!out)
        fatal("cannot open ", outPath, " for writing");
    out << text;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc >= 2 && std::strcmp(argv[1], "--version") == 0) {
        std::printf("%s\n", buildInfoLine("bh_campaign").c_str());
        return 0;
    }
    if (argc < 3)
        usage(argv[0]);
    const std::string command = argv[1];
    if (command != "run" && command != "status" && command != "export")
        usage(argv[0]);
    const char* configPath = nullptr;
    const char* outPath = nullptr;
    const char* timelinePath = nullptr;
    const char* reportDir = nullptr;
    bool progress = false;
    CampaignOptions options;
    bool csv = false;
    bool json = false;
    // The last flag seen that only `run` (only `export`) reads.
    const char* runOnly = nullptr;
    const char* exportOnly = nullptr;

    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
            options.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strcmp(argv[i], "--max-points") == 0
                   && i + 1 < argc) {
            options.maxPoints = std::strtoull(argv[++i], nullptr, 10);
            runOnly = "--max-points";
        } else if (std::strcmp(argv[i], "--report") == 0 && i + 1 < argc) {
            reportDir = argv[++i];
            runOnly = "--report";
        } else if (std::strcmp(argv[i], "--progress") == 0) {
            progress = true;
            runOnly = "--progress";
        } else if (std::strcmp(argv[i], "--dry-run") == 0) {
            options.dryRun = true;
            runOnly = "--dry-run";
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            outPath = argv[++i];
            exportOnly = "--out";
        } else if (std::strcmp(argv[i], "--timeline-out") == 0
                   && i + 1 < argc) {
            timelinePath = argv[++i];
            exportOnly = "--timeline-out";
        } else if (std::strcmp(argv[i], "--json") == 0) {
            json = true;
            exportOnly = "--json";
        } else if (std::strcmp(argv[i], "--lax") == 0) {
            options.strict = false;
        } else if (std::strcmp(argv[i], "--csv") == 0) {
            csv = true;
        } else if (argv[i][0] == '-') {
            usage(argv[0]);
        } else if (configPath == nullptr) {
            configPath = argv[i];
        } else {
            usage(argv[0]);
        }
    }
    if (configPath == nullptr || (csv && json))
        usage(argv[0]);
    if (runOnly != nullptr && command != "run")
        fatal(runOnly, " applies to `run` only");
    if (exportOnly != nullptr && command != "export")
        fatal(exportOnly, " applies to `export` only");

    const Config config = Config::fromFile(configPath);
    CampaignSpec spec = campaignSpecFromConfig(config, options.strict);

    if (command == "run") {
        if (options.dryRun && reportDir != nullptr)
            std::printf("report: would write %s/status.json\n", reportDir);
        const std::string statusPath =
            reportDir == nullptr || options.dryRun
                ? std::string()
                : prepareReportDir(reportDir, {"status.json"})
                      + "status.json";
        // The progress callback needs runner.points() for the per-point
        // axes, so the runner is built after the callback captures the
        // (stable) pointer slot. The runner never invokes progress from
        // its constructor.
        std::unique_ptr<CampaignRunner> runner;
        if (!statusPath.empty() || progress) {
            options.progress = [&runner, &statusPath, progress](
                                   const CampaignReport& report,
                                   bool terminal) {
                if (!statusPath.empty())
                    writeJsonFile(statusPath,
                                  campaignStatusJson(runner->points(),
                                                     report, terminal));
                if (progress)
                    printProgressLine(campaignProgressLine(report));
            };
        }
        runner = std::make_unique<CampaignRunner>(std::move(spec),
                                                  options);
        const CampaignReport report = runner->run();
        if (progress)
            std::fprintf(stderr, "\r\033[K");
        const TextTable table =
            campaignStatusTable(runner->points(), report);
        std::printf("%s", csv ? table.toCsv().c_str()
                              : table.toText().c_str());
        if (options.dryRun) {
            std::printf("dry run: %zu point(s), %zu cache hit(s), "
                        "%zu to simulate — nothing simulated\n",
                        runner->points().size(), report.cached,
                        report.pending);
            return 0;
        }
        printSummary(report, runner->points().size());
        for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
            const PointOutcome& outcome = report.outcomes[i];
            if (outcome.status == PointStatus::Failed)
                std::printf("point %zu failed: %s\n", i,
                            outcome.error.c_str());
        }
        return report.complete() ? 0 : 1;
    }

    if (command == "status") {
        options.dryRun = true;
        CampaignRunner runner(std::move(spec), options);
        const CampaignReport report = runner.plan();
        const TextTable table =
            campaignStatusTable(runner.points(), report);
        std::printf("%s", csv ? table.toCsv().c_str()
                              : table.toText().c_str());
        printSummary(report, runner.points().size());
        return report.complete() ? 0 : 1;
    }

    if (command == "export") {
        options.dryRun = true;
        CampaignRunner runner(std::move(spec), options);
        const CampaignReport report = runner.plan();
        if (json) {
            emit(campaignExportJson(runner.points(), report).dump(2)
                     + "\n",
                 outPath);
        } else {
            emit(campaignExportTable(runner.points(), report).toCsv(),
                 outPath);
        }
        if (timelinePath != nullptr) {
            // Timelines ride the result cache, so every cached point
            // whose base config carries a `timeline` block contributes a
            // "point-N" source to one concatenated export.
            std::vector<TimelineData> sources;
            for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
                const PointOutcome& outcome = report.outcomes[i];
                if (outcome.status != PointStatus::Cached
                    && outcome.status != PointStatus::Ran)
                    continue;
                if (!outcome.result.timeline.has_value())
                    continue;
                TimelineData data = *outcome.result.timeline;
                data.source = "point-" + std::to_string(i);
                sources.push_back(std::move(data));
            }
            if (sources.empty())
                fatal("--timeline-out: no cached point carries a "
                      "timeline (add a `timeline` block to the base "
                      "config and re-run the campaign)");
            writeTimelineJsonl(timelinePath, sources);
        }
        return report.complete() ? 0 : 1;
    }

    usage(argv[0]);
    return 2;
}
