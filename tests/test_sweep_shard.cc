/**
 * @file
 * Tests of the crash-tolerant sharded sweep engine: byte-identical
 * merges across worker counts, recovery from injected chaos (worker
 * kill, stalled cell, corrupted result frame), retry-exhaustion
 * degradation, and lossless cell-report serialization.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "nn/model_zoo.hh"
#include "obs/metrics_registry.hh"
#include "obs/telemetry.hh"
#include "robust/campaign_sweep.hh"
#include "robust/sweep_shard.hh"
#include "util/logging.hh"

namespace rana {
namespace {

DatasetConfig
tinyDataset()
{
    DatasetConfig config;
    config.trainSamples = 256;
    config.testSamples = 128;
    config.imageSize = 12;
    config.numClasses = 4;
    return config;
}

TrainerConfig
tinyTrainer()
{
    TrainerConfig config;
    config.pretrainEpochs = 6;
    config.retrainEpochs = 2;
    config.evalRepeats = 2;
    return config;
}

CampaignSweepConfig
tinySweep()
{
    CampaignSweepConfig config;
    config.failureRates = {0.0, 1e-4};
    config.refreshIntervals = {45e-6, 734e-6};
    config.campaign = FaultCampaignConfigBuilder()
                          .trials(4)
                          .seed(3)
                          .dataset(tinyDataset())
                          .trainer(tinyTrainer())
                          .build();
    return config;
}

DesignPoint
ranaDesign()
{
    return makeDesignPoint(DesignKind::RanaE5,
                           RetentionDistribution::typical65nm());
}

SweepShardConfig
fastShard(unsigned workers)
{
    SweepShardConfig config;
    config.workers = workers;
    config.cellTimeoutMs = 60000;
    config.maxRetries = 2;
    config.backoffBaseMs = 1;
    return config;
}

/** The single-process reference, canonicalized once per suite. */
const std::string &
referenceSweepJson()
{
    static const std::string json = [] {
        Result<CampaignSweepReport> report = runCampaignSweep(
            ranaDesign(), makeAlexNet(), tinySweep());
        RANA_ASSERT(report.ok(), "reference sweep failed");
        return canonicalSweepJson(report.value());
    }();
    return json;
}

TEST(SweepShard, SingleWorkerMatchesInProcessByteForByte)
{
    Result<ShardedSweepResult> sharded = runShardedCampaignSweep(
        ranaDesign(), makeAlexNet(), tinySweep(), fastShard(1));
    ASSERT_TRUE(sharded.ok()) << sharded.error().describe();
    EXPECT_EQ(canonicalSweepJson(sharded.value().report),
              referenceSweepJson());
    EXPECT_EQ(sharded.value().stats.workers, 1u);
    EXPECT_EQ(sharded.value().stats.cells, 4u);
    EXPECT_EQ(sharded.value().stats.degradedCells, 0u);
}

TEST(SweepShard, MergeIsByteIdenticalAcrossWorkerCounts)
{
    for (unsigned workers : {2u, 4u, 8u}) {
        Result<ShardedSweepResult> sharded = runShardedCampaignSweep(
            ranaDesign(), makeAlexNet(), tinySweep(),
            fastShard(workers));
        ASSERT_TRUE(sharded.ok()) << sharded.error().describe();
        EXPECT_EQ(canonicalSweepJson(sharded.value().report),
                  referenceSweepJson())
            << "diverged at workers=" << workers;
        // More workers than cells forks one per cell, never more.
        EXPECT_LE(sharded.value().stats.workers, 4u);
        EXPECT_EQ(sharded.value().stats.degradedCells, 0u);
    }
}

TEST(SweepShard, RecoversFromChaosKillByteForByte)
{
    SweepShardConfig shard = fastShard(2);
    shard.chaos.killCell = 1;
    Result<ShardedSweepResult> sharded = runShardedCampaignSweep(
        ranaDesign(), makeAlexNet(), tinySweep(), shard);
    ASSERT_TRUE(sharded.ok()) << sharded.error().describe();
    EXPECT_EQ(canonicalSweepJson(sharded.value().report),
              referenceSweepJson());
    const SweepShardStats &stats = sharded.value().stats;
    EXPECT_GE(stats.workerCrashes, 1u);
    EXPECT_GE(stats.retries, 1u);
    EXPECT_EQ(stats.degradedCells, 0u);
}

TEST(SweepShard, RecoversFromStalledCellViaTimeout)
{
    SweepShardConfig shard = fastShard(2);
    shard.cellTimeoutMs = 1500; // stalled attempt dies fast
    shard.chaos.stallCell = 2;
    Result<ShardedSweepResult> sharded = runShardedCampaignSweep(
        ranaDesign(), makeAlexNet(), tinySweep(), shard);
    ASSERT_TRUE(sharded.ok()) << sharded.error().describe();
    EXPECT_EQ(canonicalSweepJson(sharded.value().report),
              referenceSweepJson());
    const SweepShardStats &stats = sharded.value().stats;
    EXPECT_GE(stats.timeouts, 1u);
    EXPECT_GE(stats.retries, 1u);
    EXPECT_EQ(stats.degradedCells, 0u);
}

TEST(SweepShard, RecoversFromCorruptedResultFrame)
{
    SweepShardConfig shard = fastShard(2);
    shard.chaos.corruptCell = 1;
    Result<ShardedSweepResult> sharded = runShardedCampaignSweep(
        ranaDesign(), makeAlexNet(), tinySweep(), shard);
    ASSERT_TRUE(sharded.ok()) << sharded.error().describe();
    EXPECT_EQ(canonicalSweepJson(sharded.value().report),
              referenceSweepJson());
    const SweepShardStats &stats = sharded.value().stats;
    EXPECT_GE(stats.corruptFrames, 1u);
    EXPECT_GE(stats.retries, 1u);
    EXPECT_EQ(stats.degradedCells, 0u);
}

TEST(SweepShard, RetryExhaustionDegradesButStaysByteIdentical)
{
    // A permanently stalled first attempt with zero retries forces
    // the degradation path: the cell must run in-process and the
    // merged report must still match.
    SweepShardConfig shard = fastShard(2);
    shard.cellTimeoutMs = 1500;
    shard.maxRetries = 0;
    shard.chaos.stallCell = 0;
    Result<ShardedSweepResult> sharded = runShardedCampaignSweep(
        ranaDesign(), makeAlexNet(), tinySweep(), shard);
    ASSERT_TRUE(sharded.ok()) << sharded.error().describe();
    EXPECT_EQ(canonicalSweepJson(sharded.value().report),
              referenceSweepJson());
    const SweepShardStats &stats = sharded.value().stats;
    EXPECT_GE(stats.degradedCells, 1u);
    EXPECT_TRUE(stats.degraded());
}

TEST(SweepShard, GuardPolicyComparisonShardsByteForByte)
{
    CampaignSweepConfig config = tinySweep();
    config.failureRates = {1e-4};
    config.refreshIntervals = {734e-6};
    Result<GuardPolicyComparisonReport> reference =
        runGuardPolicyComparison(ranaDesign(), makeAlexNet(),
                                 config);
    ASSERT_TRUE(reference.ok()) << reference.error().describe();

    Result<ShardedComparisonResult> sharded =
        runShardedGuardPolicyComparison(ranaDesign(), makeAlexNet(),
                                        config, fastShard(3));
    ASSERT_TRUE(sharded.ok()) << sharded.error().describe();
    EXPECT_EQ(canonicalComparisonJson(sharded.value().report),
              canonicalComparisonJson(reference.value()));
    EXPECT_EQ(sharded.value().stats.cells, 3u);
}

TEST(SweepShard, InvalidGridFailsLikeTheInProcessPath)
{
    CampaignSweepConfig config = tinySweep();
    config.failureRates.clear();
    Result<ShardedSweepResult> sharded = runShardedCampaignSweep(
        ranaDesign(), makeAlexNet(), config, fastShard(2));
    ASSERT_FALSE(sharded.ok());
    EXPECT_EQ(sharded.error().code, ErrorCode::InvalidArgument);
}

TEST(SweepShard, CellReportSerializationRoundTripsBitIdentically)
{
    CampaignSweepConfig config = tinySweep();
    Result<PreparedSweep> plan = PreparedSweep::prepareSweep(
        ranaDesign(), makeAlexNet(), config);
    ASSERT_TRUE(plan.ok()) << plan.error().describe();
    Result<FaultCampaignReport> cell = plan.value().runCell(3);
    ASSERT_TRUE(cell.ok());

    const std::string payload = serializeCellReport(cell.value());
    Result<FaultCampaignReport> reread = parseCellReport(payload);
    ASSERT_TRUE(reread.ok()) << reread.error().describe();
    // Re-serializing the parsed report must reproduce the payload
    // byte for byte — the merge contract in miniature.
    EXPECT_EQ(serializeCellReport(reread.value()), payload);
}

TEST(SweepShard, CellReportParserSurvivesHostileBytes)
{
    const std::string good = [] {
        FaultCampaignReport report;
        report.designName = "d";
        report.trials.resize(1);
        report.exposures.resize(1);
        return serializeCellReport(report);
    }();

    EXPECT_FALSE(parseCellReport("").ok());
    EXPECT_FALSE(parseCellReport("{}").ok());
    EXPECT_FALSE(parseCellReport("[1,2,3]").ok());
    EXPECT_FALSE(parseCellReport("not json at all").ok());
    EXPECT_FALSE(
        parseCellReport(good.substr(0, good.size() / 2)).ok());
    std::string flipped = good;
    flipped[good.size() / 3] ^= 0x40;
    // A flipped byte either still parses (hit a value) or fails
    // cleanly; it must never crash.
    (void)parseCellReport(flipped);
}

TEST(SweepShard, WorkerTelemetryMergesDeterministically)
{
    // The cells-completed accounting must close identically at every
    // worker count: on a clean run each of the 4 cells is completed
    // by exactly one worker, so the merged per-worker sum equals the
    // stored-cell count no matter how the grid was partitioned.
    for (unsigned workers : {1u, 2u, 4u, 8u}) {
        MetricsRegistry::global().reset();
        Result<ShardedSweepResult> sharded = runShardedCampaignSweep(
            ranaDesign(), makeAlexNet(), tinySweep(),
            fastShard(workers));
        ASSERT_TRUE(sharded.ok()) << sharded.error().describe();
        const MetricsSnapshot snap =
            MetricsRegistry::global().snapshot();
        EXPECT_EQ(counterValue(snap,
                               "worker_cells_completed_total_"
                               "worker_sum"),
                  4u)
            << "diverged at workers=" << workers;
        EXPECT_EQ(counterValue(snap,
                               "worker_cells_completed_total_"
                               "worker_sum"),
                  counterValue(snap, "shard_cells_completed_total"))
            << "diverged at workers=" << workers;
    }
}

TEST(SweepShard, CleanExitDrainsTheFinalTelemetryFrame)
{
    // worker_clean_exits_total is incremented after the Shutdown
    // frame arrives, in the worker's final telemetry export: the
    // counter can only reach the merged snapshot if the coordinator
    // drains that last frame before reaping (the telemetry-loss fix).
    MetricsRegistry::global().reset();
    Result<ShardedSweepResult> sharded = runShardedCampaignSweep(
        ranaDesign(), makeAlexNet(), tinySweep(), fastShard(4));
    ASSERT_TRUE(sharded.ok()) << sharded.error().describe();
    const SweepShardStats &stats = sharded.value().stats;
    const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
    EXPECT_EQ(counterValue(snap,
                           "worker_clean_exits_total_worker_sum"),
              stats.workers);
    // At least one startup frame and one final frame per worker.
    EXPECT_GE(stats.telemetryFrames, 2u * stats.workers);
    EXPECT_EQ(stats.postmortemDumps, 0u);
}

TEST(SweepShard, CrashedWorkerLeavesAReadablePostmortem)
{
    const std::string dir =
        ::testing::TempDir() + "rana_postmortem_test";
    std::filesystem::remove_all(dir);
    // Cells are handed out lowest index first, so whichever worker
    // draws cell 0 dies on its very first assignment.
    SweepShardConfig shard = fastShard(2);
    shard.chaos.killCell = 0;
    shard.postmortemDir = dir;
    Result<ShardedSweepResult> sharded = runShardedCampaignSweep(
        ranaDesign(), makeAlexNet(), tinySweep(), shard);
    ASSERT_TRUE(sharded.ok()) << sharded.error().describe();
    EXPECT_EQ(canonicalSweepJson(sharded.value().report),
              referenceSweepJson());
    const SweepShardStats &stats = sharded.value().stats;
    ASSERT_EQ(stats.postmortemDumps, 1u);

    std::vector<std::filesystem::path> dumps;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        dumps.push_back(entry.path());
    ASSERT_EQ(dumps.size(), 1u) << "expected one postmortem file";
    std::ifstream in(dumps[0]);
    ASSERT_TRUE(in.good()) << "postmortem file unreadable";
    std::ostringstream text;
    text << in.rdbuf();
    Result<PostmortemReport> report = parsePostmortem(text.str());
    ASSERT_TRUE(report.ok()) << report.error().describe();
    EXPECT_LT(report.value().worker, stats.workers);
    EXPECT_EQ(report.value().incident, 1u);
    EXPECT_EQ(dumps[0].filename().string(),
              "postmortem-worker" +
                  std::to_string(report.value().worker) + "-1.json");
    // The coordinator saw the killed cell start.
    EXPECT_TRUE(report.value().busy);
    EXPECT_EQ(report.value().lastCell, 0u);
    EXPECT_EQ(report.value().lastAttempt, 0u);
    // The victim usually exits with the chaos-kill code (11), but
    // the coordinator SIGKILLs stragglers it declares dead, so a
    // close race may surface as a signal instead.
    EXPECT_TRUE(report.value().exited || report.value().signaled);
    if (report.value().exited) {
        EXPECT_EQ(report.value().exitCode, 11);
    }
    // The victim died on its first assignment, after exporting its
    // startup telemetry: the last-known snapshot holds no completed
    // cell and the flight ring holds the hello.
    EXPECT_EQ(counterValue(report.value().lastMetrics,
                           "worker_cells_completed_total"),
              0u);
    EXPECT_FALSE(report.value().flight.empty());
}

TEST(SweepShard, NonFiniteCellValuesSurviveTheWire)
{
    FaultCampaignReport report;
    report.designName = "poisoned";
    report.meanAccuracy = std::numeric_limits<double>::quiet_NaN();
    report.worstAccuracy =
        -std::numeric_limits<double>::infinity();
    report.p95Accuracy = std::numeric_limits<double>::infinity();
    Result<FaultCampaignReport> reread =
        parseCellReport(serializeCellReport(report));
    ASSERT_TRUE(reread.ok()) << reread.error().describe();
    EXPECT_TRUE(std::isnan(reread.value().meanAccuracy));
    EXPECT_EQ(reread.value().worstAccuracy,
              -std::numeric_limits<double>::infinity());
    EXPECT_EQ(reread.value().p95Accuracy,
              std::numeric_limits<double>::infinity());
}

} // namespace
} // namespace rana
