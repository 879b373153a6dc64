/**
 * @file
 * Tests for the tiling search and the layer-based scheduling scheme,
 * including an exhaustive-minimum property check and the paper's
 * pattern-selection behaviour (WD on shallow layers whose OD storage
 * exceeds the buffer, OD elsewhere).
 */

#include <gtest/gtest.h>

#include "nn/model_zoo.hh"
#include "sched/layer_scheduler.hh"
#include "sched/tiling_search.hh"
#include "util/random.hh"

namespace rana {
namespace {

TEST(TilingSearch, DimensionCandidates)
{
    const auto values = dimensionCandidates(28, 16);
    // Divisors of 28 up to 16 (1,2,4,7,14) plus powers of two
    // (8, 16) and the clamp (16).
    for (std::uint32_t v : {1u, 2u, 4u, 7u, 8u, 14u, 16u}) {
        EXPECT_NE(std::find(values.begin(), values.end(), v),
                  values.end())
            << v;
    }
    for (std::uint32_t v : values)
        EXPECT_LE(v, 16u);
}

TEST(TilingSearch, CandidatesRespectLocalStorage)
{
    const AcceleratorConfig config = testAcceleratorEdram();
    const ConvLayerSpec layer = makeConv("c", 256, 28, 256, 3, 1, 1);
    const auto candidates = tilingCandidates(config, layer);
    ASSERT_FALSE(candidates.empty());
    for (const Tiling &t : candidates) {
        const TileSizes sizes = tileSizes(layer, t);
        EXPECT_LE(sizes.input, config.localInputWords);
        EXPECT_LE(sizes.output, config.localOutputWords);
        EXPECT_LE(sizes.weight, config.localWeightWords);
        EXPECT_LE(t.tm, config.peRows);
    }
}

TEST(TilingSearch, CandidateCountTractable)
{
    const AcceleratorConfig config = testAcceleratorEdram();
    const ConvLayerSpec layer = makeVgg16().findLayer("conv1_1");
    const auto candidates = tilingCandidates(config, layer);
    EXPECT_GT(candidates.size(), 10u);
    EXPECT_LT(candidates.size(), 20000u);
}

TEST(Scheduler, MatchesExhaustiveMinimum)
{
    // The scheduler's choice must cost no more than every candidate
    // it explored (allowing the runtime tie-break margin).
    const AcceleratorConfig config = testAcceleratorEdram();
    SchedulerOptions options;
    options.policy = RefreshPolicy::GatedGlobal;
    options.refreshIntervalSeconds = 45e-6;

    Rng rng(2024);
    for (int trial = 0; trial < 10; ++trial) {
        const ConvLayerSpec layer = makeConv(
            "rand",
            static_cast<std::uint32_t>(rng.uniformInt(std::int64_t{8},
                                                      128)),
            static_cast<std::uint32_t>(rng.uniformInt(std::int64_t{7},
                                                      56)),
            static_cast<std::uint32_t>(rng.uniformInt(std::int64_t{8},
                                                      128)),
            3, 1, 1);
        const LayerSchedule best =
            scheduleLayer(config, layer, options).valueOrDie();
        double exhaustive_min = 1e300;
        for (DataflowKind pattern : options.dataflows) {
            for (const Tiling &t : tilingCandidates(config, layer)) {
                const auto analysis =
                    analyzeLayer(config, layer, dataflowSpec(pattern), t);
                if (!analysis.feasible)
                    continue;
                const auto counts = layerOperationCounts(
                    config, layer, analysis, options.policy,
                    options.refreshIntervalSeconds);
                const double energy =
                    computeEnergy(counts,
                                  energyTable65nm(
                                      config.buffer.technology))
                        .total();
                exhaustive_min = std::min(exhaustive_min, energy);
            }
        }
        EXPECT_LE(best.energy.total(),
                  exhaustive_min * (1.0 + 1e-3) + 1e-15);
    }
}

TEST(Scheduler, PicksWdForShallowVggLayers)
{
    // Section V-B3: on VGG layers 2-8 the buffer storage of OD
    // exceeds the capacity, so RANA selects WD.
    const AcceleratorConfig config = testAcceleratorEdram();
    SchedulerOptions options;
    options.policy = RefreshPolicy::GatedGlobal;
    options.refreshIntervalSeconds = 45e-6;
    const NetworkModel vgg = makeVgg16();
    const NetworkSchedule schedule =
        scheduleNetwork(config, vgg, options).valueOrDie();
    // Layers 2..7 (indices 1..6) have output maps larger than the
    // buffer, so OD would spill partial sums and WD wins.
    for (std::size_t i = 1; i < 7; ++i) {
        EXPECT_EQ(schedule.layers[i].dataflow(), DataflowKind::WD)
            << vgg.layer(i).name;
    }
    // Deep layers prefer OD.
    EXPECT_EQ(schedule.layers[12].dataflow(), DataflowKind::OD);
}

TEST(Scheduler, FixedTilingIsRespected)
{
    const AcceleratorConfig ddn = daDianNaoNode();
    SchedulerOptions options;
    options.fixedTiling = Tiling{64, 64, 1, 1};
    options.dataflows = {DataflowKind::WD};
    options.policy = RefreshPolicy::GatedGlobal;
    options.refreshIntervalSeconds = 45e-6;
    const ConvLayerSpec layer = makeConv("c", 256, 14, 256, 3, 1, 1);
    const LayerSchedule schedule =
        scheduleLayer(ddn, layer, options).valueOrDie();
    EXPECT_EQ(schedule.tiling(), clampTiling({64, 64, 1, 1}, layer));
    EXPECT_EQ(schedule.dataflow(), DataflowKind::WD);
}

TEST(Scheduler, GateFollowsLifetimes)
{
    const AcceleratorConfig config = testAcceleratorEdram();
    SchedulerOptions options;
    options.policy = RefreshPolicy::GatedGlobal;
    options.refreshIntervalSeconds = 45e-6;
    const ConvLayerSpec layer = makeVgg16().findLayer("conv4_2");
    const LayerSchedule schedule =
        scheduleLayer(config, layer, options).valueOrDie();
    bool any_long_lifetime = false;
    const auto lifetimes = schedule.analysis.lifetimes();
    for (std::size_t i = 0; i < numDataTypes; ++i) {
        any_long_lifetime |=
            schedule.analysis.types[i].storageWords > 0 &&
            lifetimes[i] >= options.refreshIntervalSeconds;
    }
    EXPECT_EQ(schedule.gateOn, any_long_lifetime);
}

TEST(Scheduler, LongerRetentionNeverRaisesEnergy)
{
    // With everything else fixed, a longer tolerable retention time
    // can only remove refresh work.
    const AcceleratorConfig config = testAcceleratorEdram();
    const NetworkModel net = makeResNet50();
    double previous = 1e300;
    for (double interval : {45e-6, 180e-6, 734e-6}) {
        SchedulerOptions options;
        options.policy = RefreshPolicy::GatedGlobal;
        options.refreshIntervalSeconds = interval;
        const double energy =
            scheduleNetwork(config, net, options)
                .valueOrDie().totalEnergy().total();
        EXPECT_LE(energy, previous * (1.0 + 1e-6));
        previous = energy;
    }
}

TEST(Scheduler, HybridNoWorseThanSinglePattern)
{
    const AcceleratorConfig config = testAcceleratorEdram();
    const NetworkModel net = makeVgg16();
    SchedulerOptions hybrid;
    hybrid.policy = RefreshPolicy::GatedGlobal;
    hybrid.refreshIntervalSeconds = 45e-6;
    SchedulerOptions od_only = hybrid;
    od_only.dataflows = {DataflowKind::OD};
    const double hybrid_energy =
        scheduleNetwork(config, net, hybrid)
            .valueOrDie().totalEnergy().total();
    const double od_energy =
        scheduleNetwork(config, net, od_only)
            .valueOrDie().totalEnergy().total();
    EXPECT_LE(hybrid_energy, od_energy * (1.0 + 1e-6));
}

TEST(Scheduler, EvaluateLayerChoiceMatchesScheduler)
{
    const AcceleratorConfig config = testAcceleratorEdram();
    SchedulerOptions options;
    options.policy = RefreshPolicy::GatedGlobal;
    options.refreshIntervalSeconds = 45e-6;
    const ConvLayerSpec layer = makeConv("c", 32, 28, 32, 3, 1, 1);
    const LayerSchedule best =
        scheduleLayer(config, layer, options).valueOrDie();
    const LayerSchedule same = evaluateLayerChoice(
        config, layer, best.dataflow(), best.tiling(), options).valueOrDie();
    EXPECT_DOUBLE_EQ(best.energy.total(), same.energy.total());
}

TEST(Scheduler, NetworkScheduleAggregates)
{
    const AcceleratorConfig config = testAcceleratorEdram();
    SchedulerOptions options;
    options.policy = RefreshPolicy::GatedGlobal;
    options.refreshIntervalSeconds = 45e-6;
    const NetworkModel net = makeAlexNet();
    const NetworkSchedule schedule =
        scheduleNetwork(config, net, options).valueOrDie();
    EXPECT_EQ(schedule.layers.size(), net.size());
    OperationCounts manual;
    for (const auto &layer : schedule.layers)
        manual += layer.counts;
    EXPECT_EQ(schedule.totalCounts().macOps, manual.macOps);
    EXPECT_EQ(schedule.totalCounts().macOps, net.totalMacs());
    EXPECT_EQ(schedule.dataflowCount(DataflowKind::OD) +
                  schedule.dataflowCount(DataflowKind::WD) +
                  schedule.dataflowCount(DataflowKind::ID),
              net.size());
}

} // namespace
} // namespace rana
