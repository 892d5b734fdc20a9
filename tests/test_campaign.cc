/**
 * @file
 * Campaign layer tests: manifest round trip, content-addressed cache
 * keying (any config/seed change is a miss), deterministic expansion,
 * strict-key rejection, end-to-end run/cache/resume bit-reproducibility,
 * parallel points on the shared pool, and dry-run isolation.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "campaign/campaign.hh"
#include "campaign/runner.hh"
#include "config/config.hh"
#include "core/results_io.hh"

namespace bighouse {
namespace {

/** Fresh scratch directory per test (idempotent across reruns). */
std::string
scratchDir(const std::string& name)
{
    const std::string dir = ::testing::TempDir() + "/bh_campaign_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

/** A tiny, seconds-fast 2-point campaign over an M/M/1 base config. */
std::string
campaignText(const std::string& cacheDir, const char* pointSlaves = "0")
{
    return std::string(R"({
        "campaign": "test",
        "seed": 42,
        "cache": ")") + cacheDir + R"(",
        "pool": {"slaves": 2, "pointSlaves": )" + pointSlaves + R"(},
        "base": {
            "workload": {
                "name": "campaign-test",
                "interarrival": {"mean": 0.02, "cv": 1.0},
                "service": {"mean": 0.01, "cv": 1.0}
            },
            "cluster": {"servers": 1, "cores": 1},
            "sqs": {"accuracy": 0.1, "quantile": 0.95}
        },
        "sweep": {"grid": {"loadFactor": [0.5, 0.7]}}
    })";
}

CampaignSpec
specFor(const std::string& cacheDir, const char* pointSlaves = "0")
{
    return campaignSpecFromConfig(
        Config::fromString(campaignText(cacheDir, pointSlaves)));
}

/** Bit-equality of the statistical payload (host wall time excluded). */
void
expectSameResult(const SqsResult& a, const SqsResult& b)
{
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.events, b.events);
    ASSERT_EQ(a.estimates.size(), b.estimates.size());
    for (std::size_t i = 0; i < a.estimates.size(); ++i) {
        EXPECT_EQ(a.estimates[i].name, b.estimates[i].name);
        EXPECT_EQ(a.estimates[i].accepted, b.estimates[i].accepted);
        EXPECT_DOUBLE_EQ(a.estimates[i].mean, b.estimates[i].mean);
        EXPECT_DOUBLE_EQ(a.estimates[i].meanHalfWidth,
                         b.estimates[i].meanHalfWidth);
        ASSERT_EQ(a.estimates[i].quantiles.size(),
                  b.estimates[i].quantiles.size());
        for (std::size_t q = 0; q < a.estimates[i].quantiles.size(); ++q)
            EXPECT_DOUBLE_EQ(a.estimates[i].quantiles[q].value,
                             b.estimates[i].quantiles[q].value);
    }
}

TEST(CampaignManifest, JsonRoundTripIsLossless)
{
    CampaignManifest manifest;
    manifest.campaign = "round-trip";
    manifest.rootSeed = 0xdeadbeefcafef00dULL;  // needs all 64 bits
    ManifestPoint point;
    point.index = 3;
    point.key = "{\"k\":1}";
    point.keyHash = "00ff00ff00ff00ff";
    point.seed = 0xfedcba9876543210ULL;
    point.slaves = 2;
    point.status = PointStatus::Ran;
    point.converged = true;
    point.events = 123456;
    point.wallSeconds = 1.25;
    point.axes["loadFactor"] = "0.5";
    manifest.points.push_back(point);

    const CampaignManifest back =
        manifestFromJson(manifestToJson(manifest));
    EXPECT_EQ(back.campaign, manifest.campaign);
    EXPECT_EQ(back.rootSeed, manifest.rootSeed);
    ASSERT_EQ(back.points.size(), 1u);
    EXPECT_EQ(back.points[0].index, point.index);
    EXPECT_EQ(back.points[0].key, point.key);
    EXPECT_EQ(back.points[0].keyHash, point.keyHash);
    EXPECT_EQ(back.points[0].seed, point.seed);
    EXPECT_EQ(back.points[0].slaves, point.slaves);
    EXPECT_EQ(back.points[0].status, PointStatus::Ran);
    EXPECT_TRUE(back.points[0].converged);
    EXPECT_EQ(back.points[0].events, point.events);
    EXPECT_DOUBLE_EQ(back.points[0].wallSeconds, point.wallSeconds);
    EXPECT_EQ(back.points[0].axes, point.axes);
}

TEST(CampaignManifest, FileRoundTripAndFormatRejection)
{
    const std::string dir = scratchDir("manifest");
    std::filesystem::create_directories(dir);
    CampaignManifest manifest;
    manifest.campaign = "file-trip";
    manifest.rootSeed = 7;
    const std::string path = dir + "/manifest.json";
    writeManifest(path, manifest);
    const CampaignManifest back = readManifest(path);
    EXPECT_EQ(back.campaign, "file-trip");
    EXPECT_EQ(back.rootSeed, 7u);

    JsonValue::Object bogus;
    bogus.emplace("format", JsonValue(std::string("not-a-manifest")));
    EXPECT_EXIT(manifestFromJson(JsonValue(std::move(bogus))),
                ::testing::ExitedWithCode(1), "format");
}

TEST(CampaignKeys, AnycontentChangeIsACacheMiss)
{
    const Config base = Config::fromString(
        R"({"loadFactor": 0.5, "cluster": {"cores": 2}})");
    const std::string key = canonicalPointKey(base.root(), 99, 0);
    // Identical content -> identical key and hash (the cache hit).
    EXPECT_EQ(canonicalPointKey(base.root(), 99, 0), key);

    JsonValue changed = base.root();
    jsonSetPath(changed, "loadFactor", JsonValue(0.51));
    EXPECT_NE(canonicalPointKey(changed, 99, 0), key);   // field change
    EXPECT_NE(canonicalPointKey(base.root(), 100, 0), key);  // seed
    EXPECT_NE(canonicalPointKey(base.root(), 99, 2), key);   // slaves
    EXPECT_NE(fnv1a64(canonicalPointKey(changed, 99, 0)), fnv1a64(key));
}

TEST(CampaignExpansion, GridOrderAxesAndSlaves)
{
    const std::string dir = scratchDir("expand");
    const std::string text = std::string(R"({
        "campaign": "expand",
        "seed": 9,
        "cache": ")") + dir + R"(",
        "base": {
            "workload": {
                "name": "w",
                "interarrival": {"mean": 0.02, "cv": 1.0},
                "service": {"mean": 0.01, "cv": 1.0}
            },
            "cluster": {"servers": 1, "cores": 1},
            "sqs": {"accuracy": 0.1}
        },
        "sweep": {
            "grid": {"loadFactor": [0.5, 0.7],
                     "workload.service.cv": [1.0, 2.0]},
            "list": [{"loadFactor": 0.9, "slaves": 2}]
        }
    })";
    const std::vector<SweepPoint> points =
        expandCampaign(campaignSpecFromConfig(Config::fromString(text)));
    ASSERT_EQ(points.size(), 5u);
    // Axes iterate in sorted path order; the first axis is slowest.
    EXPECT_EQ(points[0].axes.at("loadFactor"), "0.5");
    EXPECT_EQ(points[0].axes.at("workload.service.cv"), "1");
    EXPECT_EQ(points[1].axes.at("workload.service.cv"), "2");
    EXPECT_EQ(points[2].axes.at("loadFactor"), "0.7");
    EXPECT_DOUBLE_EQ(
        points[3].config.find("workload")->find("service")->find("cv")
            ->asNumber(),
        2.0);
    // The list entry rides last; its "slaves" axis targets the point.
    EXPECT_EQ(points[4].axes.at("loadFactor"), "0.9");
    EXPECT_EQ(points[4].slaves, 2u);
    EXPECT_EQ(points[0].slaves, 0u);
    for (const SweepPoint& point : points) {
        EXPECT_FALSE(point.key.empty());
        EXPECT_NE(point.keyHash, 0u);
    }
}

TEST(CampaignExpansion, SeedsAreContentKeyedNotIndexKeyed)
{
    const std::string dir = scratchDir("seeds");
    const auto expand = [&](const char* values) {
        std::string text = campaignText(dir);
        const std::string from = "[0.5, 0.7]";
        text.replace(text.find(from), from.size(), values);
        return expandCampaign(
            campaignSpecFromConfig(Config::fromString(text)));
    };
    const std::vector<SweepPoint> narrow = expand("[0.5, 0.7]");
    const std::vector<SweepPoint> wide = expand("[0.3, 0.5, 0.7]");
    ASSERT_EQ(narrow.size(), 2u);
    ASSERT_EQ(wide.size(), 3u);
    // Inserting 0.3 shifted every index, but the 0.5 and 0.7 points
    // keep their seeds and keys: identity is content, not position.
    EXPECT_EQ(narrow[0].seed, wide[1].seed);
    EXPECT_EQ(narrow[0].key, wide[1].key);
    EXPECT_EQ(narrow[1].seed, wide[2].seed);
    EXPECT_EQ(narrow[1].key, wide[2].key);
    EXPECT_NE(wide[0].seed, wide[1].seed);
}

TEST(CampaignStrictKeys, TypoedAxisPathFailsBeforeSimulating)
{
    const std::string dir = scratchDir("typo");
    std::string text = campaignText(dir);
    const std::string from = "\"loadFactor\"";
    text.replace(text.find(from), from.size(), "\"loadfactor\"");
    EXPECT_EXIT(
        expandCampaign(
            campaignSpecFromConfig(Config::fromString(text)), true),
        ::testing::ExitedWithCode(1), "loadfactor.*loadFactor");
    // --lax accepts (and ignores) the unknown key.
    const std::vector<SweepPoint> points = expandCampaign(
        campaignSpecFromConfig(Config::fromString(text), false), false);
    EXPECT_EQ(points.size(), 2u);
}

TEST(CampaignStrictKeys, TypoedCampaignKeyFails)
{
    const std::string dir = scratchDir("typo2");
    std::string text = campaignText(dir);
    const std::string from = "\"sweep\"";
    text.replace(text.find(from), from.size(), "\"sweeps\"");
    EXPECT_EXIT(campaignSpecFromConfig(Config::fromString(text)),
                ::testing::ExitedWithCode(1), "sweeps.*sweep");
}

TEST(CampaignExpansion, CrossKeyCheckFailsBeforeWritingAnything)
{
    // Capping needs FCFS servers, so the "ps" point is invalid although
    // each key parses on its own. Expansion applies the Experiment
    // constructor's checks, so neither a run nor a dry run gets as far
    // as a manifest or a cache entry.
    const std::string dir = scratchDir("crosskey");
    std::string text = campaignText(dir);
    const std::string cluster = "\"cluster\"";
    text.replace(text.find(cluster), cluster.size(),
                 "\"capping\": {}, \"cluster\"");
    const std::string axis = "\"loadFactor\": [0.5, 0.7]";
    text.replace(text.find(axis), axis.size(),
                 "\"serverModel\": [\"fcfs\", \"ps\"]");
    for (const bool dryRun : {true, false}) {
        CampaignOptions options;
        options.dryRun = dryRun;
        EXPECT_EXIT(
            CampaignRunner(campaignSpecFromConfig(Config::fromString(text)),
                           options)
                .run(),
            ::testing::ExitedWithCode(1),
            "power capping requires the FCFS server model");
        EXPECT_FALSE(std::filesystem::exists(dir));
    }
}

TEST(CampaignRunner, RunsCachesAndServesBitIdenticalHits)
{
    const std::string dir = scratchDir("run");
    CampaignRunner first(specFor(dir));
    const CampaignReport ran = first.run();
    EXPECT_TRUE(ran.complete());
    EXPECT_EQ(ran.ran, 2u);
    EXPECT_EQ(ran.cached, 0u);
    EXPECT_TRUE(std::filesystem::exists(first.manifestPath()));

    // Same campaign again: pure cache hits, bit-identical payloads.
    CampaignRunner second(specFor(dir));
    const CampaignReport hits = second.run();
    EXPECT_TRUE(hits.complete());
    EXPECT_EQ(hits.cached, 2u);
    EXPECT_EQ(hits.ran, 0u);
    for (std::size_t i = 0; i < 2; ++i)
        expectSameResult(hits.outcomes[i].result,
                         ran.outcomes[i].result);

    // Any seed change is a miss for every point.
    CampaignOptions reseeded;
    reseeded.seed = 43;
    CampaignRunner third(specFor(dir), reseeded);
    const CampaignReport misses = third.plan();
    EXPECT_EQ(misses.cached, 0u);
    EXPECT_EQ(misses.pending, 2u);
}

TEST(CampaignRunner, KillAndResumeMatchesUninterruptedRun)
{
    const std::string reference = scratchDir("ref");
    CampaignRunner uninterrupted(specFor(reference));
    const CampaignReport full = uninterrupted.run();
    ASSERT_TRUE(full.complete());

    // "Kill" after one point (the deterministic stand-in), then resume.
    const std::string dir = scratchDir("resume");
    CampaignOptions truncated;
    truncated.maxPoints = 1;
    const CampaignReport partial =
        CampaignRunner(specFor(dir), truncated).run();
    EXPECT_FALSE(partial.complete());
    EXPECT_EQ(partial.ran, 1u);
    EXPECT_EQ(partial.pending, 1u);
    const CampaignManifest ledger =
        readManifest(dir + "/manifest.json");
    EXPECT_EQ(ledger.points[0].status, PointStatus::Ran);
    EXPECT_EQ(ledger.points[1].status, PointStatus::Pending);

    CampaignRunner resumed(specFor(dir));
    const CampaignReport rest = resumed.run();
    EXPECT_TRUE(rest.complete());
    EXPECT_EQ(rest.cached, 1u);  // the point paid before the kill
    EXPECT_EQ(rest.ran, 1u);     // only the remaining point simulates
    for (std::size_t i = 0; i < 2; ++i)
        expectSameResult(rest.outcomes[i].result,
                         full.outcomes[i].result);
}

TEST(CampaignRunner, ParallelPointRunsOnTheSharedPool)
{
    const std::string dir = scratchDir("parallel");
    CampaignRunner runner(specFor(dir, "2"));
    const CampaignReport report = runner.run();
    EXPECT_TRUE(report.complete());
    EXPECT_EQ(report.ran, 2u);
    for (const PointOutcome& outcome : report.outcomes) {
        EXPECT_TRUE(outcome.result.converged);
        EXPECT_TRUE(std::filesystem::exists(outcome.resultPath));
    }
    // Converged parallel points leave no checkpoint behind.
    for (const SweepPoint& point : runner.points())
        EXPECT_FALSE(
            std::filesystem::exists(runner.checkpointPath(point)));
    // And they hit the cache on the next invocation like any other.
    const CampaignReport again = CampaignRunner(specFor(dir, "2")).run();
    EXPECT_EQ(again.cached, 2u);
}

TEST(CampaignRunner, DryRunTouchesNothingOnDisk)
{
    const std::string dir = scratchDir("dry");
    CampaignOptions options;
    options.dryRun = true;
    CampaignRunner runner(specFor(dir), options);
    const CampaignReport report = runner.run();
    EXPECT_EQ(report.pending, 2u);
    EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(CampaignExport, RowsAreSortedAndStable)
{
    const std::string dir = scratchDir("export");
    // Two metrics registered response-first; exports must sort by name.
    std::string text = campaignText(dir);
    const std::string from = "\"cluster\": {\"servers\": 1, \"cores\": 1},";
    text.replace(text.find(from), from.size(),
                 from + R"("metrics": {"response": true, "waiting": true},)");
    CampaignRunner runner(campaignSpecFromConfig(Config::fromString(text)));
    const CampaignReport report = runner.run();
    ASSERT_TRUE(report.complete());
    const std::string csv =
        campaignExportTable(runner.points(), report).toCsv();
    EXPECT_NE(csv.find("response_time"), std::string::npos);
    EXPECT_NE(csv.find("waiting_time"), std::string::npos);
    EXPECT_LT(csv.find("response_time"), csv.find("waiting_time"));
    // Byte-stable across repeated exports of the same cache.
    const CampaignReport replay =
        CampaignRunner(campaignSpecFromConfig(Config::fromString(text)))
            .plan();
    EXPECT_EQ(campaignExportTable(runner.points(), replay).toCsv(), csv);
}

} // namespace
} // namespace bighouse
