/**
 * @file
 * Tests for the parallel scheduling engine: the thread pool and
 * parallelFor primitive, byte-identical parallel vs. serial
 * schedules, the evaluation memoization cache, and the non-aborting
 * Result contract on infeasible input.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "nn/model_zoo.hh"
#include "rana.hh"
#include "sched/config_io.hh"
#include "sched/eval_cache.hh"
#include "sched/layer_scheduler.hh"
#include "util/thread_pool.hh"

namespace rana {
namespace {

// ----------------------------------------------------------------
// Thread pool primitives.

TEST(ThreadPool, SubmitRunsTasksAndResolvesFutures)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 16; ++i)
        futures.push_back(pool.submit([&] { ran.fetch_add(1); }));
    for (auto &future : futures)
        future.get();
    EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPool, SubmitPropagatesExceptionsThroughFutures)
{
    ThreadPool pool(1);
    auto future =
        pool.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ZeroWorkerPoolRunsInline)
{
    ThreadPool pool(0);
    bool ran = false;
    pool.submit([&] { ran = true; }).get();
    EXPECT_TRUE(ran);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    for (unsigned jobs : {1u, 2u, 8u}) {
        std::vector<std::atomic<int>> counts(503);
        parallelFor(counts.size(), jobs, [&](std::size_t i) {
            counts[i].fetch_add(1);
        });
        for (const auto &count : counts)
            EXPECT_EQ(count.load(), 1);
    }
}

TEST(ParallelFor, NestedInvocationsDoNotDeadlock)
{
    std::atomic<int> total{0};
    parallelFor(8, 4, [&](std::size_t) {
        parallelFor(8, 4, [&](std::size_t) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 64);
}

TEST(ParallelFor, RethrowsTheFirstException)
{
    EXPECT_THROW(parallelFor(64, 4,
                             [&](std::size_t i) {
                                 if (i == 3)
                                     throw std::runtime_error("bad");
                             }),
                 std::runtime_error);
}

// ----------------------------------------------------------------
// Deterministic parallel scheduling.

SchedulerOptions
sweepOptions(unsigned jobs, bool memoize)
{
    return SchedulerOptionsBuilder()
        .policy(RefreshPolicy::GatedGlobal)
        .refreshInterval(45e-6)
        .jobs(jobs)
        .memoize(memoize)
        .build();
}

TEST(ParallelSched, NetworkScheduleByteIdenticalAcrossJobs)
{
    const AcceleratorConfig config = testAcceleratorEdram();
    for (const NetworkModel &net : {makeAlexNet(), makeVgg16()}) {
        // memoize off so every jobs value runs the full search
        // rather than replaying the first run's cache entries.
        const std::string serial = writeConfigString(toConfigRecord(
            scheduleNetwork(config, net, sweepOptions(1, false))
                .valueOrDie()));
        for (unsigned jobs : {2u, 8u}) {
            const std::string parallel =
                writeConfigString(toConfigRecord(scheduleNetwork(
                    config, net, sweepOptions(jobs, false)).valueOrDie()));
            EXPECT_EQ(serial, parallel)
                << net.name() << " with jobs=" << jobs;
        }
    }
}

TEST(ParallelSched, AutoJobsMatchesSerial)
{
    const AcceleratorConfig config = testAcceleratorEdram();
    const NetworkModel net = makeAlexNet();
    const std::string serial = writeConfigString(toConfigRecord(
        scheduleNetwork(config, net, sweepOptions(1, false)).valueOrDie()));
    // jobs = 0 resolves to the hardware width.
    const std::string automatic = writeConfigString(toConfigRecord(
        scheduleNetwork(config, net, sweepOptions(0, false)).valueOrDie()));
    EXPECT_EQ(serial, automatic);
}

// ----------------------------------------------------------------
// Evaluation memoization cache.

TEST(EvalCacheTest, SecondSearchHitsAndReturnsIdenticalSchedule)
{
    EvalCache::global().clear();
    const AcceleratorConfig config = testAcceleratorEdram();
    const ConvLayerSpec layer = makeConv("c", 64, 28, 64, 3, 1, 1);
    const SchedulerOptions options = sweepOptions(2, true);

    const LayerSchedule first =
        scheduleLayer(config, layer, options).valueOrDie();
    const EvalCache::Stats after_first = EvalCache::global().stats();
    EXPECT_GE(after_first.entries, 1u);

    const LayerSchedule second =
        scheduleLayer(config, layer, options).valueOrDie();
    const EvalCache::Stats after_second = EvalCache::global().stats();
    EXPECT_GT(after_second.hits, after_first.hits);

    EXPECT_EQ(first.layerName, second.layerName);
    EXPECT_EQ(first.dataflow(), second.dataflow());
    EXPECT_EQ(first.tiling(), second.tiling());
    EXPECT_EQ(first.refreshFlags, second.refreshFlags);
    EXPECT_EQ(first.gateOn, second.gateOn);
    EXPECT_DOUBLE_EQ(first.energy.total(), second.energy.total());
    EXPECT_DOUBLE_EQ(first.analysis.layerSeconds,
                     second.analysis.layerSeconds);
}

TEST(EvalCacheTest, EvaluateLayerChoiceMemoizes)
{
    EvalCache::global().clear();
    const AcceleratorConfig config = testAcceleratorEdram();
    const ConvLayerSpec layer = makeConv("c", 32, 14, 32, 3, 1, 1);
    const SchedulerOptions options = sweepOptions(1, true);
    const LayerSchedule chosen =
        scheduleLayer(config, layer, options).valueOrDie();

    // The winning choice was inserted under its candidate key, so an
    // explicit re-evaluation of that exact choice is a hit.
    const EvalCache::Stats before = EvalCache::global().stats();
    const Result<LayerSchedule> replay = evaluateLayerChoice(
        config, layer, chosen.dataflow(), chosen.tiling(), options,
        chosen.analysis.inputsPromoted);
    ASSERT_TRUE(replay.ok());
    EXPECT_GT(EvalCache::global().stats().hits, before.hits);
    EXPECT_DOUBLE_EQ(replay.value().energy.total(),
                     chosen.energy.total());
}

TEST(EvalCacheTest, DistinctOptionsDoNotCollide)
{
    EvalCache::global().clear();
    const AcceleratorConfig config = testAcceleratorEdram();
    const ConvLayerSpec layer = makeConv("c", 32, 14, 32, 3, 1, 1);
    SchedulerOptions a = sweepOptions(1, true);
    SchedulerOptions b = a;
    b.refreshIntervalSeconds = 734e-6;
    const LayerSchedule first = scheduleLayer(config, layer, a).valueOrDie();
    const EvalCache::Stats between = EvalCache::global().stats();
    const LayerSchedule second = scheduleLayer(config, layer, b).valueOrDie();
    const EvalCache::Stats after = EvalCache::global().stats();
    // The interval is part of the key: the second search must miss
    // (and re-run), not replay the 45us record verbatim.
    EXPECT_EQ(after.hits, between.hits);
    EXPECT_GT(after.misses, between.misses);
    // A longer interval can only remove refresh energy.
    EXPECT_LE(second.energy.refresh, first.energy.refresh + 1e-15);
}

// ----------------------------------------------------------------
// Non-aborting failure contract.

/** Hardware whose core local storage fits no 3x3 tile at all. */
AcceleratorConfig
impossibleHardware()
{
    AcceleratorConfig config = testAcceleratorEdram();
    config.localInputWords = 1;
    config.localOutputWords = 1;
    config.localWeightWords = 1;
    return config;
}

TEST(ResultContract, InfeasibleLayerReturnsErrorNotExit)
{
    const ConvLayerSpec layer = makeConv("c", 32, 14, 32, 3, 1, 1);
    const Result<LayerSchedule> result = scheduleLayer(
        impossibleHardware(), layer, sweepOptions(2, false));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, ErrorCode::Infeasible);
    EXPECT_NE(result.error().message.find("no feasible schedule"),
              std::string::npos);
}

TEST(ResultContract, EmptyPatternListIsInvalidArgument)
{
    SchedulerOptions options = sweepOptions(1, false);
    options.dataflows.clear();
    const ConvLayerSpec layer = makeConv("c", 8, 7, 8, 3, 1, 1);
    const Result<LayerSchedule> result =
        scheduleLayer(testAcceleratorEdram(), layer, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, ErrorCode::InvalidArgument);
}

TEST(ResultContract, NetworkPropagatesFirstLayerError)
{
    const Result<NetworkSchedule> result = scheduleNetwork(
        impossibleHardware(), makeAlexNet(), sweepOptions(4, false));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, ErrorCode::Infeasible);
}

TEST(ResultContract, InfeasibleEvaluateLayerChoiceReturnsError)
{
    const ConvLayerSpec layer = makeConv("c", 32, 14, 32, 3, 1, 1);
    const Result<LayerSchedule> result = evaluateLayerChoice(
        impossibleHardware(), layer, DataflowKind::OD,
        Tiling{16, 16, 7, 7}, sweepOptions(1, false));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, ErrorCode::Infeasible);
}

TEST(ResultContractDeathTest, OrDieWrapperStillAborts)
{
    // The one death test of valueOrDie(): an edge that treats a
    // failure as fatal aborts with the error's describe() string.
    const ConvLayerSpec layer = makeConv("c", 32, 14, 32, 3, 1, 1);
    EXPECT_DEATH(scheduleLayer(impossibleHardware(), layer,
                               sweepOptions(1, false))
                     .valueOrDie(),
                 "infeasible: no feasible schedule");
}

} // namespace
} // namespace rana
