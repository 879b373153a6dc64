/**
 * @file
 * Tests for the inter-layer output reuse extension.
 */

#include <gtest/gtest.h>

#include "core/design_point.hh"
#include "nn/model_zoo.hh"
#include "sched/interlayer_reuse.hh"
#include "sched/layer_scheduler.hh"

namespace rana {
namespace {

const RetentionDistribution &
retention()
{
    static const RetentionDistribution dist =
        RetentionDistribution::typical65nm();
    return dist;
}

TEST(InterLayerReuse, ChainDetection)
{
    const ConvLayerSpec a = makeConv("a", 32, 28, 64, 3, 1, 1);
    const ConvLayerSpec b = makeConv("b", 64, 28, 64, 3, 1, 1);
    const ConvLayerSpec c = makeConv("c", 32, 28, 64, 3, 1, 1);
    EXPECT_TRUE(layersChain(a, b));
    EXPECT_FALSE(layersChain(a, c)); // channel mismatch
    // Spatial mismatch (as after pooling).
    const ConvLayerSpec d = makeConv("d", 64, 14, 64, 3, 1, 1);
    EXPECT_FALSE(layersChain(a, d));
}

TEST(InterLayerReuse, FindsFusionsOnChainedNetwork)
{
    // A deep chain of same-size layers that all fit on chip.
    NetworkModel net("chain");
    for (int i = 0; i < 4; ++i) {
        net.addLayer(makeConv("c" + std::to_string(i), 64, 28, 64, 3,
                              1, 1));
    }
    const DesignPoint design =
        makeDesignPoint(DesignKind::RanaStarE5, retention());
    const NetworkSchedule schedule =
        scheduleNetwork(design.config, net, design.options).valueOrDie();
    const InterLayerReuseResult result =
        applyInterLayerReuse(design.config, net, schedule);
    EXPECT_GE(result.fusions.size(), 1u);
    EXPECT_GT(result.totalSavedDramWords(), 0.0);
    EXPECT_LT(result.adjustedEnergy.total(),
              result.originalEnergy.total());
}

TEST(InterLayerReuse, ConsumersAreDistinctAndOrdered)
{
    // A layer's inputs come from at most one fusion; fusion chains
    // (c0->c1, c1->c2) are allowed because a layer's held inputs
    // and kept outputs occupy different banks.
    NetworkModel net("chain");
    for (int i = 0; i < 5; ++i) {
        net.addLayer(makeConv("c" + std::to_string(i), 64, 28, 64, 3,
                              1, 1));
    }
    const DesignPoint design =
        makeDesignPoint(DesignKind::RanaStarE5, retention());
    const NetworkSchedule schedule =
        scheduleNetwork(design.config, net, design.options).valueOrDie();
    const InterLayerReuseResult result =
        applyInterLayerReuse(design.config, net, schedule);
    EXPECT_GE(result.fusions.size(), 2u);
    for (std::size_t f = 1; f < result.fusions.size(); ++f) {
        EXPECT_GT(result.fusions[f].consumer,
                  result.fusions[f - 1].consumer);
        EXPECT_EQ(result.fusions[f].consumer,
                  result.fusions[f].producer + 1);
    }
}

TEST(InterLayerReuse, AccountsCarriedRetention)
{
    NetworkModel net("chain");
    net.addLayer(makeConv("p", 64, 28, 64, 3, 1, 1));
    net.addLayer(makeConv("q", 64, 28, 64, 3, 1, 1));
    const DesignPoint design =
        makeDesignPoint(DesignKind::RanaStarE5, retention());
    const NetworkSchedule schedule =
        scheduleNetwork(design.config, net, design.options).valueOrDie();
    const InterLayerReuseResult result =
        applyInterLayerReuse(design.config, net, schedule);
    for (const FusedPair &pair : result.fusions) {
        EXPECT_GT(pair.carriedLifetimeSeconds,
                  schedule.layers[pair.consumer]
                      .analysis.layerSeconds);
        if (pair.carriedLifetimeSeconds >=
            schedule.refreshIntervalSeconds) {
            // Long-lived kept outputs must be charged refresh.
            EXPECT_GT(pair.addedRefreshOps, 0u);
        }
        // Fusions are only kept when they pay off.
        EXPECT_GT(pair.savedEnergy, 0.0);
    }
}

TEST(InterLayerReuse, VggBenefits)
{
    // VGG's back-to-back convolutions inside one stage chain
    // directly; several should fuse on the RANA* design.
    const DesignPoint design =
        makeDesignPoint(DesignKind::RanaStarE5, retention());
    const NetworkModel net = makeVgg16();
    const NetworkSchedule schedule =
        scheduleNetwork(design.config, net, design.options).valueOrDie();
    const InterLayerReuseResult result =
        applyInterLayerReuse(design.config, net, schedule);
    // Only the conv5 pairs fuse on the 46-bank buffer: the conv4
    // pairs would need the held inputs (25 banks) and the consumer's
    // own resident outputs (25 banks) simultaneously.
    EXPECT_GE(result.fusions.size(), 2u);
    EXPECT_GT(result.savingFraction(), 0.004);
    EXPECT_GT(result.totalSavedDramWords(), 3e5);
}

TEST(InterLayerReuse, CountsStayConsistent)
{
    const DesignPoint design =
        makeDesignPoint(DesignKind::RanaStarE5, retention());
    const NetworkModel net = makeVgg16();
    const NetworkSchedule schedule =
        scheduleNetwork(design.config, net, design.options).valueOrDie();
    const InterLayerReuseResult result =
        applyInterLayerReuse(design.config, net, schedule);
    ASSERT_EQ(result.adjustedCounts.size(), schedule.layers.size());
    for (std::size_t i = 0; i < schedule.layers.size(); ++i) {
        // MACs are untouched; adjusted traffic never exceeds the
        // original.
        EXPECT_EQ(result.adjustedCounts[i].macOps,
                  schedule.layers[i].counts.macOps);
        EXPECT_LE(result.adjustedCounts[i].ddrAccesses,
                  schedule.layers[i].counts.ddrAccesses);
        EXPECT_LE(result.adjustedCounts[i].bufferAccesses,
                  schedule.layers[i].counts.bufferAccesses);
    }
}

TEST(InterLayerReuse, SramDesignAlsoFuses)
{
    // Reuse is orthogonal to eDRAM: the SRAM design fuses whatever
    // fits its smaller buffer, with no refresh penalty at all.
    const DesignPoint design =
        makeDesignPoint(DesignKind::SramId, retention());
    NetworkModel net("chain");
    net.addLayer(makeConv("p", 16, 28, 16, 3, 1, 1));
    net.addLayer(makeConv("q", 16, 28, 16, 3, 1, 1));
    const NetworkSchedule schedule =
        scheduleNetwork(design.config, net, design.options).valueOrDie();
    const InterLayerReuseResult result =
        applyInterLayerReuse(design.config, net, schedule);
    for (const FusedPair &pair : result.fusions)
        EXPECT_EQ(pair.addedRefreshOps, 0u);
}

} // namespace
} // namespace rana
