/**
 * @file
 * Unit tests for the paper's computation patterns (as dataflow
 * specs), tilings and the PE array timing model.
 */

#include <gtest/gtest.h>

#include "nn/model_zoo.hh"
#include "sim/accelerator_config.hh"
#include "sim/dataflow.hh"
#include "sim/pattern.hh"
#include "sim/pe_array_model.hh"
#include "util/units.hh"

namespace rana {
namespace {

TEST(Pattern, LoopOrders)
{
    // The paper's loop orders, outermost (3rd-level loop) first.
    const auto id = dataflowSpec(DataflowKind::ID).order;
    EXPECT_EQ(id[0], LoopAxis::M);
    EXPECT_EQ(id[1], LoopAxis::RC);
    EXPECT_EQ(id[2], LoopAxis::N);

    const auto od = dataflowSpec(DataflowKind::OD).order;
    EXPECT_EQ(od[0], LoopAxis::N);
    EXPECT_EQ(od[1], LoopAxis::M);
    EXPECT_EQ(od[2], LoopAxis::RC);

    const auto wd = dataflowSpec(DataflowKind::WD).order;
    EXPECT_EQ(wd[0], LoopAxis::RC);
    EXPECT_EQ(wd[1], LoopAxis::M);
    EXPECT_EQ(wd[2], LoopAxis::N);
}

TEST(Pattern, Names)
{
    // The dataflow names of the paper's patterns are the pattern
    // names, so config artifacts and cache keys keep their spelling.
    EXPECT_STREQ(dataflowName(DataflowKind::ID), "ID");
    EXPECT_STREQ(dataflowName(DataflowKind::OD), "OD");
    EXPECT_STREQ(dataflowName(DataflowKind::WD), "WD");
}

TEST(Pattern, TripCountsCeil)
{
    const ConvLayerSpec layer = makeConv("c", 50, 30, 70, 3, 1, 1);
    const TripCounts trips = tripCounts(layer, {16, 16, 8, 8});
    EXPECT_EQ(trips.nm, 5u);  // ceil(70/16)
    EXPECT_EQ(trips.nn, 4u);  // ceil(50/16)
    EXPECT_EQ(trips.nr, 4u);  // ceil(30/8)
    EXPECT_EQ(trips.nc, 4u);
    EXPECT_EQ(trips.nrc(), 16u);
    EXPECT_EQ(trips.total(), 5u * 4 * 16);
}

TEST(Pattern, TripOf)
{
    const ConvLayerSpec layer = makeConv("c", 32, 16, 64, 1);
    const TripCounts trips = tripCounts(layer, {16, 16, 4, 4});
    EXPECT_EQ(tripOf(trips, LoopAxis::M), 4u);
    EXPECT_EQ(tripOf(trips, LoopAxis::N), 2u);
    EXPECT_EQ(tripOf(trips, LoopAxis::RC), 16u);
}

TEST(Pattern, ClampTiling)
{
    const ConvLayerSpec layer = makeConv("c", 3, 16, 8, 3, 1, 1);
    const Tiling clamped = clampTiling({16, 16, 32, 32}, layer);
    EXPECT_EQ(clamped.tm, 8u);
    EXPECT_EQ(clamped.tn, 3u);
    EXPECT_EQ(clamped.tr, 16u);
    EXPECT_EQ(clamped.tc, 16u);
}

TEST(Pattern, TileSizesWithHalo)
{
    const ConvLayerSpec layer = makeConv("c", 8, 32, 16, 3, 1, 1);
    const TileSizes sizes = tileSizes(layer, {4, 2, 4, 4});
    EXPECT_EQ(sizes.input, 2u * 6 * 6);
    EXPECT_EQ(sizes.output, 4u * 4 * 4);
    EXPECT_EQ(sizes.weight, 4u * 2 * 9);
}

TEST(PeArray, AggregateTimingMatchesPaperFormula)
{
    // Equation 4 for Layer-A: LTi = M*N*R*C*K^2 / (MAC * f * eta)
    // = 2294us on the 256-MAC test accelerator with eta = 0.875.
    const AcceleratorConfig config = testAcceleratorEdram();
    const ConvLayerSpec layer =
        makeResNet50().findLayer("res4a_branch1");
    const double seconds =
        layerSeconds(config, layer, {16, 16, 1, 14});
    EXPECT_NEAR(seconds, 2294e-6, 10e-6);
}

TEST(PeArray, TimingIndependentOfTiling)
{
    // The aggregate model divides by MAC*f*eta regardless of the
    // tiling, so any tiling that exactly covers the layer gives the
    // same runtime (RANA preserves performance).
    const AcceleratorConfig config = testAcceleratorEdram();
    const ConvLayerSpec layer = makeConv("c", 64, 28, 64, 3, 1, 1);
    const double a = layerSeconds(config, layer, {16, 16, 7, 7});
    const double b = layerSeconds(config, layer, {8, 32, 14, 28});
    EXPECT_NEAR(a, b, a * 1e-9);
}

TEST(PeArray, UtilizationEqualsPipelineEfficiency)
{
    const AcceleratorConfig config = testAcceleratorEdram();
    const ConvLayerSpec layer = makeConv("c", 64, 28, 64, 3, 1, 1);
    EXPECT_NEAR(layerUtilization(config, layer, {16, 16, 7, 7}), 0.875,
                1e-9);
}

TEST(PeArray, CeilTripsLowerUtilization)
{
    // A tiling that does not divide the layer pads edge tiles.
    const AcceleratorConfig config = testAcceleratorEdram();
    const ConvLayerSpec layer = makeConv("c", 24, 28, 24, 3, 1, 1);
    const double util =
        layerUtilization(config, layer, {16, 16, 7, 7});
    EXPECT_LT(util, 0.875);
}

TEST(PeArray, ArrayMappedSpatialColumns)
{
    AcceleratorConfig config = testAcceleratorEdram();
    config.timing = TimingModel::ArrayMapped;
    const ConvLayerSpec layer = makeConv("c", 16, 16, 16, 1);
    // Tile 16x16x(4x4 = 16 positions): one row group, one column
    // group, tn*k^2 = 16 active cycles.
    const TileTiming timing = tileTiming(config, layer, {16, 16, 4, 4});
    EXPECT_NEAR(timing.cycles, 16.0 / 0.875, 1e-9);
    EXPECT_EQ(timing.macs, 16u * 16 * 16);
}

TEST(PeArray, ArrayMappedInputChannelColumns)
{
    AcceleratorConfig config = daDianNaoNode();
    config.timing = TimingModel::ArrayMapped;
    const ConvLayerSpec layer = makeConv("c", 64, 16, 64, 3, 1, 1);
    // Tile 64x64x1x1: one row group, one column group, tr*tc*k^2 = 9
    // active cycles.
    const TileTiming timing = tileTiming(config, layer, {64, 64, 1, 1});
    EXPECT_NEAR(timing.cycles, 9.0 / 0.875, 1e-9);
}

TEST(PeArray, DaDianNaoThroughput)
{
    const AcceleratorConfig ddn = daDianNaoNode();
    EXPECT_EQ(ddn.macUnits(), 4096u);
    EXPECT_NEAR(ddn.peakMacsPerSecond(), 4096.0 * 606e6, 1.0);
    EXPECT_EQ(ddn.buffer.capacityBytes(), 36u * mib);
}

TEST(PeArray, TestAcceleratorPresets)
{
    const AcceleratorConfig sram = testAcceleratorSram();
    EXPECT_EQ(sram.buffer.capacityBytes(), 384u * kib);
    EXPECT_EQ(sram.buffer.technology, MemoryTechnology::Sram);
    EXPECT_EQ(sram.macUnits(), 256u);

    const AcceleratorConfig edram = testAcceleratorEdram();
    EXPECT_EQ(edram.buffer.numBanks, 46u);
    EXPECT_EQ(edram.buffer.technology, MemoryTechnology::Edram);
    // Core local storage: 36KB total (Section III-A).
    EXPECT_EQ(wordsToBytes(edram.localInputWords +
                           edram.localOutputWords +
                           edram.localWeightWords),
              36u * kib);
}

} // namespace
} // namespace rana
