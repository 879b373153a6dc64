/**
 * @file
 * Tests of the first-class DataflowSpec axis: spec derivation and
 * naming, analytics/trace parity of the one pricing engine across
 * all six dataflows (and promoted WD), ragged-channel staging,
 * config v1/v2 serialization, and byte-identity of the paper's
 * schedules against golden artifacts compiled before the dataflow
 * refactor.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <tuple>

#include "core/design_point.hh"
#include "core/experiments.hh"
#include "nn/model_zoo.hh"
#include "sched/config_io.hh"
#include "sched/layer_scheduler.hh"
#include "sched/tiling_search.hh"
#include "sim/dataflow.hh"
#include "sim/loopnest_simulator.hh"
#include "random_scenario.hh"
#include "sim/pattern_analytics.hh"

namespace rana {
namespace {

/** The loop axis a data type does not depend on. */
LoopAxis
freeAxisOf(DataType type)
{
    switch (type) {
      case DataType::Input:
        return LoopAxis::M;
      case DataType::Output:
        return LoopAxis::N;
      case DataType::Weight:
        return LoopAxis::RC;
    }
    return LoopAxis::M;
}

TEST(Dataflow, SpecsDeriveFromLoopOrder)
{
    for (DataflowKind kind : allDataflows()) {
        const DataflowSpec &spec = dataflowSpec(kind);
        EXPECT_EQ(spec.kind, kind);
        // The order is a permutation of {M, RC, N}.
        bool seen[3] = {false, false, false};
        for (LoopAxis axis : spec.order)
            seen[static_cast<int>(axis)] = true;
        EXPECT_TRUE(seen[0] && seen[1] && seen[2])
            << spec.name << " order is not a permutation";
        // Each type's reuse level is the position of its free axis,
        // and its residency class follows the level.
        for (std::size_t t = 0; t < numDataTypes; ++t) {
            const auto type = static_cast<DataType>(t);
            int position = -1;
            for (int p = 0; p < 3; ++p) {
                if (spec.order[p] == freeAxisOf(type))
                    position = p;
            }
            EXPECT_EQ(spec.reuseOf(type), position) << spec.name;
            const Residency expected =
                position == 0 ? Residency::Whole
                              : (position == 1 ? Residency::Slab
                                               : Residency::Tile);
            EXPECT_EQ(spec.residencyOf(type), expected) << spec.name;
        }
    }
}

TEST(Dataflow, LegacyKindsMatchPatterns)
{
    for (DataflowKind kind :
         {DataflowKind::ID, DataflowKind::OD, DataflowKind::WD})
        EXPECT_FALSE(dataflowSpec(kind).systolic) << dataflowName(kind);
    for (DataflowKind kind :
         {DataflowKind::SystolicWS, DataflowKind::SystolicIS,
          DataflowKind::SystolicOS})
        EXPECT_TRUE(dataflowSpec(kind).systolic) << dataflowName(kind);
    const std::vector<DataflowKind> legacy = legacyDataflows();
    ASSERT_EQ(legacy.size(), 3u);
    EXPECT_EQ(legacy[0], DataflowKind::ID);
    EXPECT_EQ(legacy[1], DataflowKind::OD);
    EXPECT_EQ(legacy[2], DataflowKind::WD);
}

TEST(Dataflow, StationarySemantics)
{
    // The core-pinned tile is the data type of reuse level 2: OD and
    // sys-ws pin weights, sys-is and sys-os pin inputs, and ID and WD
    // accumulate outputs in the core while both operands stream.
    const std::map<DataflowKind, DataType> pinned = {
        {DataflowKind::ID, DataType::Output},
        {DataflowKind::OD, DataType::Weight},
        {DataflowKind::WD, DataType::Output},
        {DataflowKind::SystolicWS, DataType::Weight},
        {DataflowKind::SystolicIS, DataType::Input},
        {DataflowKind::SystolicOS, DataType::Input},
    };
    for (const auto &[kind, type] : pinned) {
        const DataflowSpec &spec = dataflowSpec(kind);
        EXPECT_EQ(spec.arrayTile(), type) << spec.name;
        EXPECT_EQ(spec.reuseOf(type), 2) << spec.name;
    }
    // Outputs accumulate across the outermost loop exactly for OD
    // and sys-os.
    for (DataflowKind kind : allDataflows()) {
        const bool expected = kind == DataflowKind::OD ||
                              kind == DataflowKind::SystolicOS;
        EXPECT_EQ(dataflowSpec(kind).outputsAccumulateAcrossOuter(),
                  expected)
            << dataflowName(kind);
    }
}

TEST(Dataflow, NamesRoundTrip)
{
    for (DataflowKind kind : allDataflows()) {
        const Result<DataflowKind> parsed =
            parseDataflowName(dataflowName(kind));
        ASSERT_TRUE(parsed.ok()) << dataflowName(kind);
        EXPECT_EQ(parsed.value(), kind);
    }
    // CLI spelling of the legacy names.
    EXPECT_EQ(parseDataflowName("id").valueOrDie(), DataflowKind::ID);
    EXPECT_EQ(parseDataflowName("od").valueOrDie(), DataflowKind::OD);
    EXPECT_EQ(parseDataflowName("wd").valueOrDie(), DataflowKind::WD);
    const Result<DataflowKind> bad = parseDataflowName("sys-zz");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, ErrorCode::ParseError);
    EXPECT_NE(bad.error().message.find("unknown dataflow"),
              std::string::npos);
}

TEST(Dataflow, DefaultAxisIsTheHybridPattern)
{
    // Without an explicit axis the scheduler searches the paper's
    // hybrid OD + WD pattern, in that order.
    const SchedulerOptions options;
    ASSERT_EQ(options.dataflows.size(), 2u);
    EXPECT_EQ(options.dataflows[0], DataflowKind::OD);
    EXPECT_EQ(options.dataflows[1], DataflowKind::WD);
}

/**
 * Analytics/trace parity of one random scenario under one dataflow,
 * optionally with WD input promotion.
 */
void
expectParity(int seed, DataflowKind kind, bool promote)
{
    const DataflowSpec &spec = dataflowSpec(kind);
    const AcceleratorConfig config = testAcceleratorEdram();
    const double interval = 45e-6;

    // Same scenario stream as the legacy SimEquivalence suite so a
    // failure here against a pass there isolates the dataflow.
    const Scenario s = feasibleScenario(seed, config, spec, promote);
    const LayerAnalysis &analysis = s.analysis;
    ASSERT_TRUE(analysis.feasible) << "seed " << seed;
    EXPECT_EQ(analysis.dataflow, kind);
    EXPECT_EQ(analysis.inputsPromoted, promote);

    LoopNestSimulator sim(config, RefreshPolicy::PerBank, interval);
    const LayerSimResult result =
        sim.runLayerChecked(s.layer, analysis).valueOrDie();

    const std::string label = std::string(spec.name) +
                              (promote ? "+promoted " : " ") +
                              s.layer.describe() + " " +
                              s.tiling.describe();

    // Runtime and utilization.
    EXPECT_NEAR(result.layerSeconds, analysis.layerSeconds,
                analysis.layerSeconds * 1e-9)
        << label;
    EXPECT_NEAR(result.utilization, analysis.utilization, 1e-9)
        << label;

    // Traffic (tolerate floating-point accumulation differences).
    const auto near = [](double a, double b) {
        return std::abs(a - b) <= 1e-6 * std::max(1.0, std::abs(b));
    };
    const OperationCounts expected = layerOperationCounts(
        config, s.layer, analysis, RefreshPolicy::PerBank, interval);
    EXPECT_TRUE(near(static_cast<double>(result.counts.bufferAccesses),
                     static_cast<double>(expected.bufferAccesses)))
        << result.counts.bufferAccesses << " vs "
        << expected.bufferAccesses << " for " << label;
    EXPECT_TRUE(near(static_cast<double>(result.counts.ddrAccesses),
                     static_cast<double>(expected.ddrAccesses)))
        << result.counts.ddrAccesses << " vs " << expected.ddrAccesses
        << " for " << label;

    // Refresh operations issued by the event-driven controller match
    // the closed form, and a correctly compiled schedule never reads
    // stale data.
    EXPECT_EQ(result.counts.refreshOps, expected.refreshOps) << label;
    EXPECT_EQ(result.violations, 0u) << label;

    // Observed lifetimes approach the analytic values from below.
    for (std::size_t t = 0; t < numDataTypes; ++t) {
        const double analytic = analysis.lifetimes()[t];
        const double observed = result.observedLifetime[t];
        EXPECT_LE(observed, analytic * (1.0 + 1e-6) + 1e-12)
            << label << " " << dataTypeName(static_cast<DataType>(t));
    }

    // Stall accounting: the paper's patterns never stall; systolic
    // ones report the same total in the trace and the closed form.
    if (!spec.systolic) {
        EXPECT_EQ(result.stallSeconds, 0.0) << label;
        EXPECT_EQ(analysis.systolic.stallSeconds, 0.0) << label;
    } else {
        EXPECT_GT(result.stallSeconds, 0.0) << label;
        EXPECT_NEAR(result.stallSeconds, analysis.systolic.stallSeconds,
                    analysis.systolic.stallSeconds * 1e-9)
            << label;
        EXPECT_LE(result.stallSeconds, result.layerSeconds) << label;
        EXPECT_GT(analysis.systolic.denseUtilization,
                  analysis.utilization * (1.0 - 1e-12))
            << label;
    }
}

class DataflowParity
    : public ::testing::TestWithParam<std::tuple<int, DataflowKind>>
{
};

TEST_P(DataflowParity, AnalyticsMatchTrace)
{
    expectParity(std::get<0>(GetParam()), std::get<1>(GetParam()),
                 false);
}

INSTANTIATE_TEST_SUITE_P(
    RandomScenarios, DataflowParity,
    ::testing::Combine(::testing::Range(0, 16),
                       ::testing::Values(DataflowKind::ID,
                                         DataflowKind::OD,
                                         DataflowKind::WD,
                                         DataflowKind::SystolicWS,
                                         DataflowKind::SystolicIS,
                                         DataflowKind::SystolicOS)));

/** The same parity check for WD with its whole input set promoted. */
class PromotedWdParity : public ::testing::TestWithParam<int>
{
};

TEST_P(PromotedWdParity, AnalyticsMatchTrace)
{
    expectParity(GetParam(), DataflowKind::WD, true);
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, PromotedWdParity,
                         ::testing::Range(0, 16));

TEST(DataflowStaging, RaggedChannelTilesChargeOnlyExistingWords)
{
    // N = 90 and M = 45 leave ragged edge tiles at Tn = 4, Tm = 8.
    // Off-chip staging charges the channel words that exist, so each
    // dataflow's closed form matches its trace exactly, and orders
    // that stage the same words price the same DRAM traffic: sys-ws
    // reads inputs and weights once like ID; sys-is and sys-os
    // re-read the input halo per RC tile like WD.
    const AcceleratorConfig config = testAcceleratorEdram();
    const ConvLayerSpec layer = makeConv("r", 90, 36, 45, 5, 1, 2);
    const Tiling tiling{8, 4, 8, 4};
    const double interval = 45e-6;
    std::map<DataflowKind, std::uint64_t> dram_words;
    for (DataflowKind kind : allDataflows()) {
        const LayerAnalysis analysis =
            analyzeLayer(config, layer, dataflowSpec(kind), tiling);
        ASSERT_TRUE(analysis.feasible) << dataflowName(kind);
        const OperationCounts counts = layerOperationCounts(
            config, layer, analysis, RefreshPolicy::PerBank, interval);
        LoopNestSimulator sim(config, RefreshPolicy::PerBank, interval);
        const LayerSimResult traced =
            sim.runLayerChecked(layer, analysis).valueOrDie();
        EXPECT_EQ(traced.counts.ddrAccesses, counts.ddrAccesses)
            << dataflowName(kind);
        dram_words[kind] = counts.ddrAccesses;
    }
    EXPECT_EQ(dram_words[DataflowKind::ID], 287010u);
    EXPECT_EQ(dram_words[DataflowKind::SystolicWS], 287010u);
    EXPECT_EQ(dram_words[DataflowKind::WD], 559170u);
    EXPECT_EQ(dram_words[DataflowKind::SystolicIS], 559170u);
    EXPECT_EQ(dram_words[DataflowKind::SystolicOS], 559170u);
}

TEST(DataflowConfig, V2RoundTripsSystolicKinds)
{
    NetworkConfigRecord record;
    record.networkName = "net";
    record.refreshIntervalSeconds = 45e-6;
    record.policy = RefreshPolicy::PerBank;
    for (DataflowKind kind : allDataflows()) {
        LayerConfigRecord layer;
        layer.layerName =
            std::string("l_") + dataflowName(kind);
        layer.dataflow = kind;
        layer.tiling = {16, 8, 7, 7};
        record.layers.push_back(layer);
    }
    const std::string text = writeConfigString(record);
    EXPECT_EQ(text.rfind("rana-config v2\n", 0), 0u) << text;
    const Result<NetworkConfigRecord> reread =
        readConfigStringChecked(text);
    ASSERT_TRUE(reread.ok()) << reread.error().message;
    // The interval text form loses the last ulp; everything else
    // (including every dataflow token) round-trips exactly.
    EXPECT_EQ(reread.value().networkName, record.networkName);
    EXPECT_EQ(reread.value().policy, record.policy);
    EXPECT_NEAR(reread.value().refreshIntervalSeconds,
                record.refreshIntervalSeconds, 1e-12);
    EXPECT_EQ(reread.value().layers, record.layers);
}

TEST(DataflowConfig, V1ParsesOntoCanonicalDataflows)
{
    const Result<NetworkConfigRecord> parsed = readConfigStringChecked(
        "rana-config v1\n"
        "network a\n"
        "interval_us 45\n"
        "policy gated-global\n"
        "layer c1 ID 16 8 7 7 0 000 0\n"
        "layer c2 OD 16 8 7 7 0 010 1\n"
        "layer c3 WD 16 8 7 7 1 100 1\n"
        "end\n");
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    const NetworkConfigRecord &record = parsed.value();
    ASSERT_EQ(record.layers.size(), 3u);
    EXPECT_EQ(record.layers[0].dataflow, DataflowKind::ID);
    EXPECT_EQ(record.layers[1].dataflow, DataflowKind::OD);
    EXPECT_EQ(record.layers[2].dataflow, DataflowKind::WD);
}

TEST(DataflowSearch, WidenedAxisNeverWorsensEnergy)
{
    // Adding dataflows can only grow the candidate space, so the
    // six-dataflow search is at most the legacy minimum.
    const AcceleratorConfig config = testAcceleratorEdram();
    const ConvLayerSpec layer = makeConv("c", 64, 28, 64, 3, 1, 1);
    SchedulerOptions legacy;
    legacy.policy = RefreshPolicy::PerBank;
    legacy.refreshIntervalSeconds = 45e-6;
    legacy.dataflows = legacyDataflows();
    legacy.memoize = false;
    SchedulerOptions widened = legacy;
    const auto all = allDataflows();
    widened.dataflows.assign(all.begin(), all.end());

    const LayerSchedule legacy_best =
        scheduleLayer(config, layer, legacy).valueOrDie();
    const LayerSchedule widened_best =
        scheduleLayer(config, layer, widened).valueOrDie();
    EXPECT_LE(widened_best.energy.total(),
              legacy_best.energy.total() * (1.0 + 1e-3));
}

TEST(DataflowSearch, ChoiceSpaceOrdersDataflowsOuter)
{
    const AcceleratorConfig config = testAcceleratorEdram();
    const ConvLayerSpec layer = makeConv("c", 32, 14, 32, 3, 1, 1);
    SchedulerOptions options;
    options.dataflows = {DataflowKind::OD, DataflowKind::WD,
                         DataflowKind::SystolicWS};
    const std::vector<DataflowChoice> choices =
        dataflowChoices(config, layer, options);
    ASSERT_FALSE(choices.empty());
    // Dataflows appear in axis order, WD carries the promoted twin.
    std::size_t promoted = 0;
    int last_axis_index = 0;
    for (const DataflowChoice &choice : choices) {
        int axis_index = -1;
        for (std::size_t i = 0; i < options.dataflows.size(); ++i) {
            if (options.dataflows[i] == choice.dataflow)
                axis_index = static_cast<int>(i);
        }
        ASSERT_GE(axis_index, 0);
        EXPECT_GE(axis_index, last_axis_index);
        last_axis_index = axis_index;
        if (choice.promoteInputs) {
            EXPECT_EQ(choice.dataflow, DataflowKind::WD);
            ++promoted;
        }
    }
    EXPECT_GT(promoted, 0u);
}

/** Golden artifacts: design-name fragment -> Table-IV design kind. */
DesignKind
goldenDesignKind(const std::string &token)
{
    if (token == "SID")
        return DesignKind::SramId;
    if (token == "eDID")
        return DesignKind::EdramId;
    if (token == "eDOD")
        return DesignKind::EdramOd;
    if (token == "RANA0")
        return DesignKind::Rana0;
    if (token == "RANAE5")
        return DesignKind::RanaE5;
    EXPECT_EQ(token, "RANA") << "unknown golden design " << token;
    return DesignKind::RanaStarE5;
}

TEST(DataflowGolden, LegacySchedulesAreByteIdentical)
{
    // The golden configs were compiled from the seed tree before the
    // DataflowSpec refactor. Recompiling through the new interface
    // must reproduce them byte for byte — only the format header
    // advanced from v1 to v2.
    const RetentionDistribution retention =
        RetentionDistribution::typical65nm();
    const char *networks[] = {"AlexNet", "VGG", "GoogLeNet",
                              "ResNet"};
    const char *designs[] = {"SID",   "eDID",   "eDOD",
                             "RANA0", "RANAE5", "RANA"};
    int compared = 0;
    for (const char *network_name : networks) {
        const NetworkModel network =
            makeBenchmarkChecked(network_name).valueOrDie();
        for (const char *design_token : designs) {
            const std::string path = std::string(RANA_GOLDEN_DIR) +
                                     "/" + network_name + "_" +
                                     design_token + ".cfg";
            std::ifstream in(path);
            ASSERT_TRUE(in) << "missing golden file " << path;
            std::ostringstream golden;
            golden << in.rdbuf();
            std::string expected = golden.str();
            const std::string v1_header = "rana-config v1\n";
            ASSERT_EQ(expected.rfind(v1_header, 0), 0u) << path;
            expected.replace(0, v1_header.size(), "rana-config v2\n");

            DesignPoint design = makeDesignPoint(
                goldenDesignKind(design_token), retention);
            design.options.jobs = 0;
            const Result<DesignResult> result =
                runDesignChecked(design, network);
            ASSERT_TRUE(result.ok())
                << path << ": " << result.error().message;
            const std::string actual = writeConfigString(
                toConfigRecord(result.value().schedule));
            EXPECT_EQ(actual, expected) << path;
            ++compared;
        }
    }
    EXPECT_EQ(compared, 24);
}

} // namespace
} // namespace rana
