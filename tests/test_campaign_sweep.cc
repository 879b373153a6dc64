/**
 * @file
 * Tests of the campaign sweep engine: degenerate-grid validation,
 * grid shape and cell addressing, lane-count determinism of the
 * rendered percentile table, the policy axis (a one-policy grid is
 * the guarded plain sweep; the stock policy list), and the
 * copy-on-corrupt contract of the shared weight store.
 */

#include <gtest/gtest.h>

#include <vector>

#include "nn/model_zoo.hh"
#include "robust/campaign_sweep.hh"
#include "robust/fault_campaign.hh"
#include "robust/sweep_shard.hh"

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

TEST(CampaignSweep, DegenerateGridsAreInvalid)
{
    const DesignPoint design = ranaDesign();
    const NetworkModel network = makeAlexNet();

    CampaignSweepConfig no_rates = tinySweep();
    no_rates.failureRates.clear();
    EXPECT_EQ(runCampaignSweep(design, network, no_rates)
                  .error()
                  .code,
              ErrorCode::InvalidArgument);

    CampaignSweepConfig no_intervals = tinySweep();
    no_intervals.refreshIntervals.clear();
    EXPECT_EQ(runCampaignSweep(design, network, no_intervals)
                  .error()
                  .code,
              ErrorCode::InvalidArgument);

    CampaignSweepConfig bad_rate = tinySweep();
    bad_rate.failureRates = {0.0, 1.0};
    EXPECT_EQ(runCampaignSweep(design, network, bad_rate)
                  .error()
                  .code,
              ErrorCode::InvalidArgument);

    CampaignSweepConfig negative_rate = tinySweep();
    negative_rate.failureRates = {-1e-5};
    EXPECT_EQ(runCampaignSweep(design, network, negative_rate)
                  .error()
                  .code,
              ErrorCode::InvalidArgument);

    CampaignSweepConfig bad_interval = tinySweep();
    bad_interval.refreshIntervals = {45e-6, 0.0};
    EXPECT_EQ(runCampaignSweep(design, network, bad_interval)
                  .error()
                  .code,
              ErrorCode::InvalidArgument);

    CampaignSweepConfig no_trials = tinySweep();
    no_trials.campaign.trials = 0;
    EXPECT_EQ(runCampaignSweep(design, network, no_trials)
                  .error()
                  .code,
              ErrorCode::InvalidArgument);
}

TEST(CampaignSweep, GridShapeAndPercentileBands)
{
    const Result<CampaignSweepReport> swept =
        runCampaignSweep(ranaDesign(), makeAlexNet(), tinySweep());
    ASSERT_TRUE(swept.ok());
    const CampaignSweepReport &report = swept.value();

    ASSERT_EQ(report.failureRates.size(), 2u);
    ASSERT_EQ(report.refreshIntervals.size(), 2u);
    ASSERT_EQ(report.cells.size(), 4u);
    EXPECT_GT(report.baselineAccuracy, 0.7);

    for (std::size_t r = 0; r < report.failureRates.size(); ++r) {
        for (std::size_t i = 0; i < report.refreshIntervals.size();
             ++i) {
            const SweepCell &cell = report.at(r, i);
            EXPECT_DOUBLE_EQ(cell.failureRate,
                             report.failureRates[r]);
            EXPECT_DOUBLE_EQ(cell.refreshIntervalSeconds,
                             report.refreshIntervals[i]);
            ASSERT_EQ(cell.report.trials.size(), 4u);
            // The band is ordered: worst <= p5 <= p50 <= p95, and
            // all of them bounded by the worst/best trial.
            EXPECT_LE(cell.report.worstAccuracy,
                      cell.report.p5Accuracy);
            EXPECT_LE(cell.report.p5Accuracy,
                      cell.report.p50Accuracy);
            EXPECT_LE(cell.report.p50Accuracy,
                      cell.report.p95Accuracy);
            // Every cell shares the one pretrained baseline.
            EXPECT_DOUBLE_EQ(cell.report.baselineAccuracy,
                             report.baselineAccuracy);
        }
    }

    // The certified-or-better cells keep their relative accuracy;
    // the rendered grid mentions every axis value.
    EXPECT_GT(report.at(0, 0).report.p50RelativeAccuracy, 0.9);
    const std::string table = report.percentileTable();
    EXPECT_NE(table.find("Failure rate"), std::string::npos);
    // Every cell renders its band as "p50 [p5, p95]".
    EXPECT_NE(table.find(" ["), std::string::npos);
    EXPECT_NE(table.find("]"), std::string::npos);
}

TEST(CampaignSweep, DeterministicAcrossLaneCounts)
{
    CampaignSweepConfig serial = tinySweep();
    serial.campaign.trials = 3;
    serial.campaign.jobs = 1;
    CampaignSweepConfig parallel = serial;
    parallel.campaign.jobs = 0; // one lane per hardware thread

    const Result<CampaignSweepReport> first =
        runCampaignSweep(ranaDesign(), makeAlexNet(), serial);
    const Result<CampaignSweepReport> second =
        runCampaignSweep(ranaDesign(), makeAlexNet(), parallel);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    const CampaignSweepReport &a = first.value();
    const CampaignSweepReport &b = second.value();

    // The rendered table must be byte-identical across lane counts.
    EXPECT_EQ(a.percentileTable(), b.percentileTable());
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.cells[i].report.p5Accuracy,
                         b.cells[i].report.p5Accuracy);
        EXPECT_DOUBLE_EQ(a.cells[i].report.p50Accuracy,
                         b.cells[i].report.p50Accuracy);
        EXPECT_DOUBLE_EQ(a.cells[i].report.p95Accuracy,
                         b.cells[i].report.p95Accuracy);
        EXPECT_DOUBLE_EQ(a.cells[i].report.worstAccuracy,
                         b.cells[i].report.worstAccuracy);
        EXPECT_DOUBLE_EQ(a.cells[i].report.meanAccuracy,
                         b.cells[i].report.meanAccuracy);
    }
}

TEST(CampaignSweep, OnePolicyAxisIsTheGuardedPlainSweep)
{
    // The stock policy axis: permanent, hysteresis, binned, in that
    // order, each carrying the caller's knobs.
    GuardPolicySpec knobs;
    knobs.kind = GuardPolicyKind::Binned;
    knobs.hysteresisK = 7;
    knobs.bins = 3;
    const std::vector<GuardPolicySpec> stock = stockGuardPolicies(knobs);
    ASSERT_EQ(stock.size(), 3u);
    EXPECT_EQ(stock[0].kind, GuardPolicyKind::Permanent);
    EXPECT_EQ(stock[1].kind, GuardPolicyKind::Hysteresis);
    EXPECT_EQ(stock[2].kind, GuardPolicyKind::Binned);
    for (const GuardPolicySpec &spec : stock) {
        EXPECT_EQ(spec.hysteresisK, 7u);
        EXPECT_EQ(spec.bins, 3u);
    }

    // A grid whose policy axis is {permanent} is the plain sweep
    // with the guard attached under that policy, byte for byte.
    GuardPolicySpec permanent;
    permanent.kind = GuardPolicyKind::Permanent;
    CampaignSweepConfig axis = tinySweep();
    axis.guardPolicies = {permanent};
    CampaignSweepConfig plain = tinySweep();
    plain.campaign.guard = true;
    plain.campaign.guardPolicy = permanent;

    const Result<CampaignSweepReport> from_axis =
        runCampaignSweep(ranaDesign(), makeAlexNet(), axis);
    const Result<CampaignSweepReport> from_plain =
        runCampaignSweep(ranaDesign(), makeAlexNet(), plain);
    ASSERT_TRUE(from_axis.ok());
    ASSERT_TRUE(from_plain.ok());
    ASSERT_EQ(from_plain.value().policyNames.size(), 1u);
    EXPECT_EQ(from_plain.value().policyNames[0], "permanent");
    EXPECT_EQ(canonicalSweepJson(from_axis.value()),
              canonicalSweepJson(from_plain.value()));
}

TEST(CampaignSweep, CopyOnCorruptLeavesSharedStoreIntact)
{
    // The copy-on-corrupt contract: a trial that injects bit errors
    // works on a private copy, so the shared pre-quantized store is
    // bit-identical before and after a campaign whose trials all
    // corrupt.
    const DesignPoint design = ranaDesign();
    const NetworkModel network = makeAlexNet();
    FaultCampaignConfig config = tinySweep().campaign;
    config.timingFaults.scanStallSeconds = 0.03; // force exposures
    config.retrain = false;

    const Result<CampaignExposures> exposures =
        simulateExposures(design, network, config);
    ASSERT_TRUE(exposures.ok());
    RetentionAwareTrainer trainer(config.model, config.dataset,
                                  config.trainer);
    trainer.pretrain();
    const CampaignModel model =
        prepareCampaignModel(trainer, config, design.failureRate);
    ASSERT_NE(model.weights, nullptr);

    std::vector<std::vector<float>> snapshot;
    for (const Tensor &tensor : *model.weights) {
        snapshot.emplace_back(tensor.data(),
                              tensor.data() + tensor.size());
    }

    const Result<FaultCampaignReport> result = runPreparedCampaign(
        design, exposures.value(), model, config);
    ASSERT_TRUE(result.ok());
    const FaultCampaignReport &report = result.value();

    // The stalls actually injected errors (otherwise this test
    // would not exercise the corrupting path at all)...
    EXPECT_GT(report.meanWeightFailureRate +
                  report.meanActivationFailureRate,
              0.0);
    // ...yet the shared store is untouched.
    ASSERT_EQ(snapshot.size(), model.weights->size());
    for (std::size_t t = 0; t < snapshot.size(); ++t) {
        const Tensor &tensor = (*model.weights)[t];
        ASSERT_EQ(snapshot[t].size(), tensor.size());
        for (std::size_t i = 0; i < snapshot[t].size(); ++i)
            ASSERT_EQ(snapshot[t][i], tensor[i])
                << "tensor " << t << " word " << i;
    }
}

TEST(CampaignSweep, PreparedPhasesMatchSingleCampaign)
{
    // runFaultCampaign is the composition of the exposed phases; a
    // caller driving the phases by hand must get the same report.
    const DesignPoint design = ranaDesign();
    const NetworkModel network = makeAlexNet();
    FaultCampaignConfig config = tinySweep().campaign;

    const Result<FaultCampaignReport> whole =
        runFaultCampaign(design, network, config);
    ASSERT_TRUE(whole.ok());

    const Result<CampaignExposures> exposures =
        simulateExposures(design, network, config);
    ASSERT_TRUE(exposures.ok());
    RetentionAwareTrainer trainer(config.model, config.dataset,
                                  config.trainer);
    trainer.pretrain();
    const CampaignModel model =
        prepareCampaignModel(trainer, config, design.failureRate);
    const Result<FaultCampaignReport> phased = runPreparedCampaign(
        design, exposures.value(), model, config);
    ASSERT_TRUE(phased.ok());

    EXPECT_DOUBLE_EQ(whole.value().baselineAccuracy,
                     phased.value().baselineAccuracy);
    EXPECT_DOUBLE_EQ(whole.value().meanAccuracy,
                     phased.value().meanAccuracy);
    EXPECT_DOUBLE_EQ(whole.value().p50Accuracy,
                     phased.value().p50Accuracy);
    EXPECT_EQ(whole.value().retentionViolations,
              phased.value().retentionViolations);
}

} // namespace
} // namespace rana
