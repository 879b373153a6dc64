/**
 * @file
 * Unit tests for the closed-form layer analysis, anchored on the
 * quantities the paper reports for its running examples Layer-A
 * (ResNet res4a_branch1) and Layer-B (VGG conv4_2).
 */

#include <gtest/gtest.h>

#include "nn/model_zoo.hh"
#include "sim/pattern_analytics.hh"
#include "util/units.hh"

namespace rana {
namespace {

constexpr double kUs = 1e-6;

ConvLayerSpec
layerA()
{
    return makeResNet50().findLayer("res4a_branch1");
}

ConvLayerSpec
layerB()
{
    return makeVgg16().findLayer("conv4_2");
}

TEST(Analytics, LayerA_ID_BufferStorage)
{
    // Section III-B1: at Tm,Tn,Tr,Tc = 1, BS = 785KB.
    const auto analysis =
        analyzeLayer(testAcceleratorEdram(), layerA(),
                     dataflowSpec(DataflowKind::ID), {1, 1, 1, 1});
    ASSERT_TRUE(analysis.feasible);
    const std::uint64_t total_words =
        analysis.of(DataType::Input).naturalStorageWords +
        analysis.of(DataType::Output).naturalStorageWords +
        analysis.of(DataType::Weight).naturalStorageWords;
    EXPECT_NEAR(static_cast<double>(wordsToBytes(total_words)) / 1024.0,
                785.0, 1.0);
}

TEST(Analytics, LayerA_ID_InputLifetimeIs2294us)
{
    // Section III-B2: LTo < LTw < LTi = 2294us.
    const auto analysis =
        analyzeLayer(testAcceleratorEdram(), layerA(),
                     dataflowSpec(DataflowKind::ID), {16, 16, 1, 14});
    ASSERT_TRUE(analysis.feasible);
    const auto lt = analysis.lifetimes();
    EXPECT_NEAR(lt[0], 2294 * kUs, 10 * kUs);
    EXPECT_LT(lt[2], lt[0]);
    EXPECT_LT(lt[1], lt[2]);
}

TEST(Analytics, LayerA_OD_LifetimeIs72us)
{
    // Section IV-C1: OD with Tm,Tn,Tc=16, Tr=1 gives LTo = 72us.
    const auto analysis =
        analyzeLayer(testAcceleratorEdram(), layerA(),
                     dataflowSpec(DataflowKind::OD), {16, 16, 1, 16});
    ASSERT_TRUE(analysis.feasible);
    EXPECT_NEAR(analysis.of(DataType::Output).lifetimeSeconds, 72 * kUs,
                2 * kUs);
    EXPECT_NEAR(analysis.of(DataType::Input).lifetimeSeconds, 72 * kUs,
                2 * kUs);
}

TEST(Analytics, LayerB_OD_LifetimesMatchSection4D2)
{
    // Section IV-D2: Layer-B with Tn=16: LTi = LTo = 1290us,
    // LTw = 40us.
    const auto analysis =
        analyzeLayer(testAcceleratorEdram(), layerB(),
                     dataflowSpec(DataflowKind::OD), {16, 16, 1, 14});
    ASSERT_TRUE(analysis.feasible);
    EXPECT_NEAR(analysis.of(DataType::Input).lifetimeSeconds,
                1290 * kUs, 15 * kUs);
    EXPECT_NEAR(analysis.of(DataType::Output).lifetimeSeconds,
                1290 * kUs, 15 * kUs);
    EXPECT_NEAR(analysis.of(DataType::Weight).lifetimeSeconds, 40 * kUs,
                2 * kUs);
}

TEST(Analytics, LayerB_OD_HalvingTnHalvesLifetime)
{
    // Section IV-C1: reducing Tn from 16 to 8 cuts the lifetime from
    // 1290us to 645us.
    const auto analysis =
        analyzeLayer(testAcceleratorEdram(), layerB(),
                     dataflowSpec(DataflowKind::OD), {16, 8, 1, 14});
    ASSERT_TRUE(analysis.feasible);
    EXPECT_NEAR(analysis.of(DataType::Output).lifetimeSeconds,
                645 * kUs, 10 * kUs);
}

TEST(Analytics, BufferStorageEquationsID)
{
    // Equations 1-3.
    const ConvLayerSpec layer = makeConv("c", 32, 28, 64, 3, 1, 1);
    const Tiling t{8, 4, 7, 7};
    const auto analysis = analyzeLayer(testAcceleratorEdram(), layer,
                                       dataflowSpec(DataflowKind::ID), t);
    ASSERT_TRUE(analysis.feasible);
    EXPECT_EQ(analysis.of(DataType::Input).naturalStorageWords,
              layer.inputWords());
    EXPECT_EQ(analysis.of(DataType::Output).naturalStorageWords,
              8u * 7 * 7);
    EXPECT_EQ(analysis.of(DataType::Weight).naturalStorageWords,
              8u * 32 * 9);
}

TEST(Analytics, BufferStorageEquationsOD)
{
    // Equations 6-8.
    const ConvLayerSpec layer = makeConv("c", 32, 28, 64, 3, 1, 1);
    const Tiling t{8, 4, 7, 7};
    const auto analysis = analyzeLayer(testAcceleratorEdram(), layer,
                                       dataflowSpec(DataflowKind::OD), t);
    ASSERT_TRUE(analysis.feasible);
    EXPECT_EQ(analysis.of(DataType::Input).naturalStorageWords,
              4u * 28 * 28);
    EXPECT_EQ(analysis.of(DataType::Output).naturalStorageWords,
              layer.outputWords());
    EXPECT_EQ(analysis.of(DataType::Weight).naturalStorageWords,
              8u * 4 * 9);
}

TEST(Analytics, BufferStorageEquationsWD)
{
    // Equations 11-13.
    const ConvLayerSpec layer = makeConv("c", 32, 28, 64, 3, 1, 1);
    const Tiling t{8, 4, 7, 7};
    const auto analysis = analyzeLayer(testAcceleratorEdram(), layer,
                                       dataflowSpec(DataflowKind::WD), t);
    ASSERT_TRUE(analysis.feasible);
    EXPECT_EQ(analysis.of(DataType::Input).naturalStorageWords,
              32u * 9 * 9); // N * Th * Tl with halo
    EXPECT_EQ(analysis.of(DataType::Output).naturalStorageWords,
              8u * 7 * 7);
    EXPECT_EQ(analysis.of(DataType::Weight).naturalStorageWords,
              layer.weightWords());
}

TEST(Analytics, OdWeightTrafficFarBelowWd)
{
    // Section V-C insight: with Tr=Tc=1 (DaDianNao tiling) WD
    // re-reads every weight tile per output pixel while OD reads it
    // once per (n, m); the gap is what saves 97.2% buffer access.
    const ConvLayerSpec layer = makeConv("c", 512, 14, 512, 3, 1, 1);
    const AcceleratorConfig ddn = daDianNaoNode();
    const Tiling t{64, 64, 1, 1};
    const auto wd =
        analyzeLayer(ddn, layer, dataflowSpec(DataflowKind::WD), t);
    const auto od =
        analyzeLayer(ddn, layer, dataflowSpec(DataflowKind::OD), t);
    ASSERT_TRUE(wd.feasible);
    ASSERT_TRUE(od.feasible);
    const double wd_weight_loads =
        wd.of(DataType::Weight).coreLoadWords;
    const double od_weight_loads =
        od.of(DataType::Weight).coreLoadWords;
    EXPECT_GT(wd_weight_loads, 100.0 * od_weight_loads);
}

TEST(Analytics, InfeasibleWhenTileExceedsLocalStorage)
{
    const ConvLayerSpec layer = makeConv("c", 512, 28, 512, 3, 1, 1);
    const auto analysis =
        analyzeLayer(testAcceleratorEdram(), layer,
                     dataflowSpec(DataflowKind::OD), {16, 512, 14, 14});
    EXPECT_FALSE(analysis.feasible);
    EXPECT_FALSE(analysis.infeasibleReason.empty());
}

TEST(Analytics, OdSpillsPartialSumsWhenOutputsExceedCapacity)
{
    // VGG conv1_2 outputs (6.4MB) cannot fit the 1.45MB buffer: OD
    // must stream partial sums, costing extra DRAM reads and writes.
    const ConvLayerSpec layer = makeVgg16().findLayer("conv1_2");
    const auto analysis =
        analyzeLayer(testAcceleratorEdram(), layer,
                     dataflowSpec(DataflowKind::OD), {16, 16, 4, 16});
    ASSERT_TRUE(analysis.feasible);
    const TypeAnalysis &out = analysis.of(DataType::Output);
    EXPECT_LT(out.residentFraction, 1.0);
    EXPECT_GT(out.dramReadWords, 0.0);
    EXPECT_GT(out.dramWriteWords,
              static_cast<double>(layer.outputWords()));
}

TEST(Analytics, WdAvoidsTheSpillOnShallowLayers)
{
    // The same layer under WD keeps all weights resident: only the
    // unavoidable cold traffic remains (Section IV-C2).
    const ConvLayerSpec layer = makeVgg16().findLayer("conv1_2");
    const auto analysis =
        analyzeLayer(testAcceleratorEdram(), layer,
                     dataflowSpec(DataflowKind::WD), {16, 16, 4, 16});
    ASSERT_TRUE(analysis.feasible);
    EXPECT_DOUBLE_EQ(
        analysis.of(DataType::Weight).residentFraction, 1.0);
    EXPECT_DOUBLE_EQ(
        analysis.of(DataType::Output).residentFraction, 1.0);
    const auto od = analyzeLayer(testAcceleratorEdram(), layer,
                                 dataflowSpec(DataflowKind::OD),
                                 {16, 16, 4, 16});
    EXPECT_LT(analysis.totalDramWords(), od.totalDramWords());
}

TEST(Analytics, NoSpillTrafficEqualsColdTraffic)
{
    // When everything fits, each operand moves on/off chip once.
    const ConvLayerSpec layer = makeConv("c", 32, 14, 32, 3, 1, 1);
    for (auto pattern : {DataflowKind::ID, DataflowKind::OD,
                         DataflowKind::WD}) {
        const auto analysis = analyzeLayer(
            testAcceleratorEdram(), layer, dataflowSpec(pattern),
            {16, 16, 14, 14});
        ASSERT_TRUE(analysis.feasible);
        EXPECT_FALSE(analysis.spilled());
        const double expected_min =
            static_cast<double>(layer.inputWords() +
                                layer.weightWords() +
                                layer.outputWords());
        EXPECT_GE(analysis.totalDramWords(), expected_min * 0.99);
        EXPECT_LE(analysis.totalDramWords(), expected_min * 1.30)
            << dataflowName(pattern);
    }
}

TEST(Analytics, RuntimeIdenticalAcrossPatterns)
{
    const ConvLayerSpec layer = makeConv("c", 64, 28, 64, 3, 1, 1);
    const Tiling t{16, 16, 7, 7};
    const double id =
        analyzeLayer(testAcceleratorEdram(), layer,
                     dataflowSpec(DataflowKind::ID), t)
            .layerSeconds;
    const double od =
        analyzeLayer(testAcceleratorEdram(), layer,
                     dataflowSpec(DataflowKind::OD), t)
            .layerSeconds;
    const double wd =
        analyzeLayer(testAcceleratorEdram(), layer,
                     dataflowSpec(DataflowKind::WD), t)
            .layerSeconds;
    EXPECT_DOUBLE_EQ(id, od);
    EXPECT_DOUBLE_EQ(id, wd);
}

TEST(Analytics, OutputLifetimeZeroInIdAndWd)
{
    const ConvLayerSpec layer = makeConv("c", 64, 28, 64, 3, 1, 1);
    const Tiling t{16, 16, 7, 7};
    EXPECT_DOUBLE_EQ(analyzeLayer(testAcceleratorEdram(), layer,
                                  dataflowSpec(DataflowKind::ID), t)
                         .of(DataType::Output)
                         .lifetimeSeconds,
                     0.0);
    EXPECT_DOUBLE_EQ(analyzeLayer(testAcceleratorEdram(), layer,
                                  dataflowSpec(DataflowKind::WD), t)
                         .of(DataType::Output)
                         .lifetimeSeconds,
                     0.0);
}

TEST(Analytics, RefreshDemandAssembly)
{
    const ConvLayerSpec layer = makeConv("c", 64, 28, 64, 3, 1, 1);
    const auto analysis =
        analyzeLayer(testAcceleratorEdram(), layer,
                     dataflowSpec(DataflowKind::OD), {16, 16, 7, 7});
    ASSERT_TRUE(analysis.feasible);
    const LayerRefreshDemand demand =
        refreshDemand(testAcceleratorEdram(), analysis);
    EXPECT_DOUBLE_EQ(demand.layerSeconds, analysis.layerSeconds);
    EXPECT_EQ(demand.allocation.totalBanks(), 46u);
}

TEST(Analytics, OperationCountsIncludeRefresh)
{
    const ConvLayerSpec layer = layerB();
    const auto config = testAcceleratorEdram();
    const auto analysis = analyzeLayer(config, layer,
                                       dataflowSpec(DataflowKind::OD),
                                       {16, 16, 1, 16});
    ASSERT_TRUE(analysis.feasible);
    const OperationCounts with_refresh = layerOperationCounts(
        config, layer, analysis, RefreshPolicy::GatedGlobal, 45e-6);
    const OperationCounts no_refresh = layerOperationCounts(
        config, layer, analysis, RefreshPolicy::None, 45e-6);
    EXPECT_EQ(with_refresh.macOps, layer.macs());
    EXPECT_GT(with_refresh.refreshOps, 0u);
    EXPECT_EQ(no_refresh.refreshOps, 0u);
    EXPECT_EQ(with_refresh.bufferAccesses, no_refresh.bufferAccesses);
}

TEST(Analytics, LongerIntervalNeverIncreasesRefresh)
{
    const ConvLayerSpec layer = layerB();
    const auto config = testAcceleratorEdram();
    const auto analysis = analyzeLayer(config, layer,
                                       dataflowSpec(DataflowKind::OD),
                                       {16, 16, 1, 16});
    ASSERT_TRUE(analysis.feasible);
    std::uint64_t previous = ~0ULL;
    for (double interval : {45e-6, 90e-6, 180e-6, 360e-6, 734e-6,
                            1440e-6}) {
        const std::uint64_t ops =
            layerOperationCounts(config, layer, analysis,
                                 RefreshPolicy::GatedGlobal, interval)
                .refreshOps;
        EXPECT_LE(ops, previous);
        previous = ops;
    }
}

} // namespace
} // namespace rana
