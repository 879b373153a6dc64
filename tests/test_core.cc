/**
 * @file
 * Tests for the Table-IV design points, the experiment runner and
 * the end-to-end RANA pipeline, asserting the paper's qualitative
 * results as invariants.
 */

#include <gtest/gtest.h>

#include "core/design_point.hh"
#include "core/experiments.hh"
#include "core/rana_pipeline.hh"
#include "nn/model_zoo.hh"

namespace rana {
namespace {

const RetentionDistribution &
retention()
{
    static const RetentionDistribution dist =
        RetentionDistribution::typical65nm();
    return dist;
}

TEST(DesignPoints, TableIvConfigurations)
{
    const auto designs = tableIvDesigns(retention());
    ASSERT_EQ(designs.size(), 6u);

    EXPECT_EQ(designs[0].name, "S+ID");
    EXPECT_EQ(designs[0].config.buffer.technology,
              MemoryTechnology::Sram);
    EXPECT_EQ(designs[0].options.policy, RefreshPolicy::None);

    EXPECT_EQ(designs[1].name, "eD+ID");
    EXPECT_EQ(designs[1].options.dataflows.size(), 1u);
    EXPECT_EQ(designs[1].options.dataflows[0], DataflowKind::ID);
    EXPECT_NEAR(designs[1].options.refreshIntervalSeconds, 45e-6,
                1e-9);

    EXPECT_EQ(designs[2].name, "eD+OD");
    EXPECT_EQ(designs[2].options.dataflows[0], DataflowKind::OD);

    EXPECT_EQ(designs[3].name, "RANA (0)");
    EXPECT_EQ(designs[3].options.dataflows.size(), 2u);

    EXPECT_EQ(designs[4].name, "RANA (E-5)");
    EXPECT_NEAR(designs[4].options.refreshIntervalSeconds, 734e-6,
                1e-7);
    EXPECT_EQ(designs[4].options.policy, RefreshPolicy::GatedGlobal);

    EXPECT_EQ(designs[5].name, "RANA*(E-5)");
    EXPECT_EQ(designs[5].options.policy, RefreshPolicy::PerBank);
}

TEST(DesignPoints, Overrides)
{
    DesignPointParams params;
    params.edramBanks = 92;
    params.retentionSeconds = 180e-6;
    const DesignPoint design =
        makeDesignPoint(DesignKind::RanaE5, retention(), params);
    EXPECT_EQ(design.config.buffer.numBanks, 92u);
    EXPECT_NEAR(design.options.refreshIntervalSeconds, 180e-6, 1e-9);
}

TEST(DesignPoints, DaDianNao)
{
    const auto designs = daDianNaoDesigns(retention());
    ASSERT_EQ(designs.size(), 4u);
    EXPECT_EQ(designs[0].name, "DaDianNao");
    EXPECT_EQ(designs[0].config.macUnits(), 4096u);
    EXPECT_TRUE(designs[0].options.fixedTiling.has_value());
    EXPECT_EQ(designs[3].options.policy, RefreshPolicy::PerBank);
    EXPECT_NEAR(designs[3].options.refreshIntervalSeconds, 734e-6,
                1e-7);
}

/** Fixture computing the six designs once for the whole suite. */
class Figure15Invariants : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        designs_ = new std::vector<DesignPoint>(
            tableIvDesigns(retention()));
        networks_ = new std::vector<NetworkModel>(makeBenchmarkSuite());
        results_ = new std::vector<std::vector<DesignResult>>();
        for (const auto &design : *designs_)
            results_->push_back(runDesignSuite(design, *networks_));
    }

    static void TearDownTestSuite()
    {
        delete designs_;
        delete networks_;
        delete results_;
        designs_ = nullptr;
        networks_ = nullptr;
        results_ = nullptr;
    }

    /** Result of design d on network n. */
    static const DesignResult &at(std::size_t d, std::size_t n)
    {
        return (*results_)[d][n];
    }

    static std::vector<DesignPoint> *designs_;
    static std::vector<NetworkModel> *networks_;
    static std::vector<std::vector<DesignResult>> *results_;
};

std::vector<DesignPoint> *Figure15Invariants::designs_ = nullptr;
std::vector<NetworkModel> *Figure15Invariants::networks_ = nullptr;
std::vector<std::vector<DesignResult>> *Figure15Invariants::results_ =
    nullptr;

TEST_F(Figure15Invariants, RuntimeIdenticalAcrossDesigns)
{
    // RANA does not change the core computing part (Section IV-A);
    // designs only differ by sub-percent edge-tile padding when
    // their chosen tilings do not divide a layer exactly.
    for (std::size_t n = 0; n < networks_->size(); ++n) {
        const double base = at(0, n).seconds;
        for (std::size_t d = 1; d < designs_->size(); ++d)
            EXPECT_NEAR(at(d, n).seconds, base, base * 0.005);
    }
}

TEST_F(Figure15Invariants, EdramIdRaisesAlexNetEnergy)
{
    // Section V-B1: AlexNet fits on chip either way, so eD+ID only
    // adds refresh energy (a ~2.3x increase in the paper).
    const double ratio =
        at(1, 0).energy.total() / at(0, 0).energy.total();
    EXPECT_GT(ratio, 1.8);
    EXPECT_LT(ratio, 3.0);
}

TEST_F(Figure15Invariants, EdramSavesOffChipAccess)
{
    // eD+ID never increases off-chip traffic vs. S+ID and saves
    // substantially on the large networks.
    for (std::size_t n = 0; n < networks_->size(); ++n) {
        EXPECT_LE(at(1, n).energy.offChipAccess,
                  at(0, n).energy.offChipAccess * (1.0 + 1e-9));
    }
    EXPECT_LT(at(1, 3).energy.offChipAccess,
              at(0, 3).energy.offChipAccess * 0.8);
}

TEST_F(Figure15Invariants, EdOdCutsRefreshVersusEdId)
{
    double id_refresh = 0.0;
    double od_refresh = 0.0;
    for (std::size_t n = 0; n < networks_->size(); ++n) {
        id_refresh += at(1, n).energy.refresh;
        od_refresh += at(2, n).energy.refresh;
    }
    EXPECT_LT(od_refresh, id_refresh);
}

TEST_F(Figure15Invariants, HybridBeatsOdOnVgg)
{
    // Section V-B3: RANA(0) vs eD+OD on VGG: the hybrid pattern
    // saves off-chip access (-19.4% total in the paper).
    EXPECT_LT(at(3, 1).energy.total(), at(2, 1).energy.total() * 0.95);
    EXPECT_LT(at(3, 1).energy.offChipAccess,
              at(2, 1).energy.offChipAccess * 0.7);
}

TEST_F(Figure15Invariants, LongRetentionRemovesMostRefresh)
{
    // Section V-B1: RANA(E-5) removes ~98.5% of RANA(0)'s refresh.
    double rana0 = 0.0;
    double ranae5 = 0.0;
    for (std::size_t n = 0; n < networks_->size(); ++n) {
        rana0 += at(3, n).energy.refresh;
        ranae5 += at(4, n).energy.refresh;
    }
    EXPECT_LT(ranae5, rana0 * 0.10);
}

TEST_F(Figure15Invariants, RanaStarNearlyRefreshFree)
{
    // Section V-B1: refresh is ~0.4% of RANA*(E-5) total energy, and
    // 99%+ of eD+ID's refresh operations are removed.
    double star_refresh = 0.0;
    double star_total = 0.0;
    double edid_refresh = 0.0;
    for (std::size_t n = 0; n < networks_->size(); ++n) {
        star_refresh += at(5, n).energy.refresh;
        star_total += at(5, n).energy.total();
        edid_refresh += at(1, n).energy.refresh;
    }
    EXPECT_LT(star_refresh / star_total, 0.05);
    EXPECT_LT(star_refresh, edid_refresh * 0.05);
}

TEST_F(Figure15Invariants, RanaStarSavesSystemEnergy)
{
    // The headline: RANA*(E-5) saves off-chip access and total
    // energy against the SRAM baseline on the large networks.
    for (std::size_t n : {1u, 2u, 3u}) { // VGG, GoogLeNet, ResNet
        EXPECT_LT(at(5, n).energy.total(), at(0, n).energy.total())
            << (*networks_)[n].name();
    }
    // And it is the best eDRAM design overall.
    for (std::size_t n = 0; n < networks_->size(); ++n) {
        for (std::size_t d = 1; d < 5; ++d) {
            EXPECT_LE(at(5, n).energy.total(),
                      at(d, n).energy.total() * 1.02);
        }
    }
}

TEST(Execution, TraceMatchesAnalyticSchedule)
{
    const DesignPoint design =
        makeDesignPoint(DesignKind::RanaStarE5, retention());
    const NetworkModel net = makeGoogLeNet();
    const DesignResult scheduled = runDesignChecked(design, net).valueOrDie();
    const ExecutionResult executed =
        executeScheduleChecked(design, net, scheduled.schedule).valueOrDie();
    EXPECT_EQ(executed.violations, 0u);
    EXPECT_NEAR(executed.seconds, scheduled.seconds,
                scheduled.seconds * 1e-9);
    EXPECT_NEAR(executed.energy.total(), scheduled.energy.total(),
                scheduled.energy.total() * 1e-6);
    EXPECT_EQ(executed.counts.refreshOps,
              scheduled.counts.refreshOps);
}

TEST(Execution, AllDesignsRunViolationFree)
{
    const NetworkModel net = makeAlexNet();
    for (const auto &design : tableIvDesigns(retention())) {
        const DesignResult scheduled =
            runDesignChecked(design, net).valueOrDie();
        const ExecutionResult executed =
            executeScheduleChecked(design, net, scheduled.schedule)
                .valueOrDie();
        EXPECT_EQ(executed.violations, 0u) << design.name;
    }
}

TEST(Pipeline, EndToEnd)
{
    PipelineInputs inputs;
    inputs.tolerableFailureRate = 1e-5;
    const PipelineResult result =
        runRanaPipeline(makeAlexNet(), inputs);
    EXPECT_NEAR(result.tolerableRetentionSeconds, 734e-6, 1e-7);
    EXPECT_TRUE(result.executedPhase);
    EXPECT_EQ(result.executed.violations, 0u);
    EXPECT_NEAR(result.executed.energy.total(),
                result.scheduledEnergy.total(),
                result.scheduledEnergy.total() * 1e-6);
}

TEST(Pipeline, ZeroFailureRateFallsBackToWorstCase)
{
    PipelineInputs inputs;
    inputs.tolerableFailureRate = 0.0;
    inputs.execute = false;
    const PipelineResult result =
        runRanaPipeline(makeAlexNet(), inputs);
    EXPECT_NEAR(result.tolerableRetentionSeconds, 45e-6, 1e-9);
}

TEST(DaDianNaoScalability, RanaSavesBufferAndRefreshEnergy)
{
    // Section V-C: RANA(0) saves most of DaDianNao's weight-buffer
    // access energy; RANA*(E-5) removes nearly all refresh; off-chip
    // access stays unchanged (everything fits in 36MB).
    const auto designs = daDianNaoDesigns(retention());
    const NetworkModel net = makeResNet50();
    const DesignResult base = runDesignChecked(designs[0], net).valueOrDie();
    const DesignResult rana0 = runDesignChecked(designs[1], net).valueOrDie();
    const DesignResult star = runDesignChecked(designs[3], net).valueOrDie();

    EXPECT_LT(rana0.energy.bufferAccess,
              base.energy.bufferAccess * 0.2);
    EXPECT_LT(star.energy.refresh, base.energy.refresh * 0.01);
    EXPECT_NEAR(star.energy.offChipAccess, base.energy.offChipAccess,
                base.energy.offChipAccess * 0.05);
    EXPECT_LT(star.energy.total(), base.energy.total() * 0.7);
}

} // namespace
} // namespace rana
