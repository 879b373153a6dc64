/**
 * @file
 * Tests of the robustness subsystem: per-bank retention sampling,
 * the runtime reliability guard's watchdog fallback, injected timing
 * faults, and the end-to-end retention-fault campaign engine.
 */

#include <gtest/gtest.h>

#include "core/experiments.hh"
#include "nn/model_zoo.hh"
#include "robust/fault_campaign.hh"
#include "sched/layer_scheduler.hh"
#include "util/units.hh"

namespace rana {
namespace {

// ----------------------------------------------------------------
// Retention sampler
// ----------------------------------------------------------------

TEST(RetentionSampler, DeterministicPerSeed)
{
    const RetentionDistribution dist =
        RetentionDistribution::typical65nm();
    const RetentionSampler sampler(dist, 16384 * 16);
    Rng rng_a(7);
    Rng rng_b(7);
    const std::vector<double> a = sampler.sampleBanks(64, rng_a);
    const std::vector<double> b = sampler.sampleBanks(64, rng_b);
    ASSERT_EQ(a.size(), 64u);
    EXPECT_EQ(a, b);
}

TEST(RetentionSampler, SamplesStayWithinTheDistribution)
{
    const RetentionDistribution dist =
        RetentionDistribution::typical65nm();
    const RetentionSampler sampler(dist, 16384 * 16);
    Rng rng(11);
    for (double t : sampler.sampleBanks(500, rng)) {
        // retentionTimeFor clamps at the weakest-cell anchor: no
        // sampled bank is weaker than the paper's worst-case cell.
        EXPECT_GE(t, dist.worstCaseRetention());
        EXPECT_LT(t, 1.0);
    }
}

TEST(RetentionSampler, BiggerBanksAreWeaker)
{
    // The weakest cell of C cells is an order statistic: with the
    // same uniform draw, a larger bank maps to a smaller (or equal,
    // at the clamp) retention time.
    const RetentionDistribution dist =
        RetentionDistribution::typical65nm();
    const RetentionSampler small(dist, 64);
    const RetentionSampler large(dist, 16384 * 16);
    Rng rng_a(13);
    Rng rng_b(13);
    for (int i = 0; i < 200; ++i) {
        EXPECT_LE(large.sampleWeakestCell(rng_b),
                  small.sampleWeakestCell(rng_a));
    }
}

// ----------------------------------------------------------------
// Reliability guard + refresh controller
// ----------------------------------------------------------------

BufferGeometry
edramBuffer(std::uint32_t banks)
{
    BufferGeometry geometry;
    geometry.technology = MemoryTechnology::Edram;
    geometry.numBanks = banks;
    return geometry;
}

TEST(ReliabilityGuard, CoversOverageInsteadOfViolation)
{
    const BufferGeometry geometry = edramBuffer(4);
    RefreshControllerSim sim(geometry, RefreshPolicy::PerBank, 200e6,
                             45e-6);
    ReliabilityGuard guard(sim.pulsePeriod());
    sim.attachGuard(&guard);
    const BankAllocation alloc =
        allocateBanks(geometry, 2 * 16384, 0, 0);
    // Refresh disabled although the data will live 10 intervals.
    sim.beginLayer(alloc, {false, false, false}, false, 0.0);
    sim.onWrite(DataType::Input, 0.0);
    sim.onRead(DataType::Input, 450e-6, 0.0);

    // The overage is covered, not counted as a violation.
    EXPECT_EQ(sim.violations(), 0u);
    EXPECT_TRUE(guard.tripped());
    EXPECT_EQ(guard.stats().trips, 1u);
    EXPECT_EQ(guard.stats().banksReenabled, 2u);
    EXPECT_EQ(guard.stats()
                  .tripsByType[static_cast<std::size_t>(
                      DataType::Input)],
              1u);
    EXPECT_NEAR(guard.stats().worstObservedLifetimeSeconds, 450e-6,
                1e-9);
    // The watchdog pulses that kept the data in tolerance: one per
    // elapsed interval, over the type's two banks.
    const auto pulses = static_cast<std::uint64_t>(
        450e-6 / sim.pulsePeriod());
    EXPECT_EQ(guard.stats().fallbackRefreshOps,
              2u * geometry.bankWords() * pulses);
    EXPECT_EQ(sim.refreshOps(), guard.stats().fallbackRefreshOps);
}

TEST(ReliabilityGuard, ReenabledBankStaysCovered)
{
    const BufferGeometry geometry = edramBuffer(4);
    RefreshControllerSim sim(geometry, RefreshPolicy::PerBank, 200e6,
                             45e-6);
    ReliabilityGuard guard(sim.pulsePeriod());
    sim.attachGuard(&guard);
    const BankAllocation alloc = allocateBanks(geometry, 100, 0, 0);
    sim.beginLayer(alloc, {false, false, false}, false, 0.0);
    sim.onWrite(DataType::Input, 0.0);
    sim.onRead(DataType::Input, 450e-6, 0.0);
    ASSERT_EQ(guard.stats().trips, 1u);

    // After the trip the bank's refresh flag is armed again, so the
    // controller's own pulses keep later reads in tolerance: no
    // second trip, no violation.
    sim.onRead(DataType::Input, 900e-6, 0.0);
    EXPECT_EQ(guard.stats().trips, 1u);
    EXPECT_EQ(guard.stats().banksReenabled, 1u);
    EXPECT_EQ(sim.violations(), 0u);
}

TEST(ReliabilityGuard, GatedGlobalFallsBackPerBank)
{
    // Under GatedGlobal with the gate off, pulses refresh nothing —
    // except banks the guard re-enabled, which fall back to per-bank
    // refresh.
    const BufferGeometry geometry = edramBuffer(4);
    RefreshControllerSim sim(geometry, RefreshPolicy::GatedGlobal,
                             200e6, 45e-6);
    ReliabilityGuard guard(sim.pulsePeriod());
    sim.attachGuard(&guard);
    const BankAllocation alloc = allocateBanks(geometry, 100, 0, 0);
    sim.beginLayer(alloc, {false, false, false}, false, 0.0);
    sim.onWrite(DataType::Input, 0.0);
    sim.onRead(DataType::Input, 450e-6, 0.0);
    const std::uint64_t ops_at_trip = sim.refreshOps();
    ASSERT_EQ(guard.stats().trips, 1u);

    sim.onRead(DataType::Input, 900e-6, 0.0);
    EXPECT_EQ(guard.stats().trips, 1u);
    EXPECT_EQ(sim.violations(), 0u);
    // The gated-off controller issued real per-bank pulses for the
    // re-enabled bank after the trip.
    EXPECT_GT(sim.refreshOps(), ops_at_trip);
}

TEST(ReliabilityGuard, ResetClearsCounters)
{
    ReliabilityGuard guard(45e-6);
    guard.recordTrip(DataType::Weight, 90e-6, 3, true, 100);
    ASSERT_TRUE(guard.tripped());
    guard.reset();
    EXPECT_FALSE(guard.tripped());
    EXPECT_EQ(guard.stats().banksReenabled, 0u);
    EXPECT_EQ(guard.stats().fallbackRefreshOps, 0u);
    EXPECT_DOUBLE_EQ(guard.stats().worstObservedLifetimeSeconds, 0.0);
}

// ----------------------------------------------------------------
// Timing faults
// ----------------------------------------------------------------

TEST(TimingFaults, DefaultsAreExactNoOps)
{
    const TimingFaults faults;
    EXPECT_FALSE(faults.enabled());
    // Bit-exact identity, so fault-free simulation timing is
    // unchanged by the hook.
    EXPECT_EQ(faults.tileSeconds(1.2345e-4), 1.2345e-4);
    EXPECT_DOUBLE_EQ(faults.scanStallSeconds, 0.0);
}

TEST(TimingFaults, SlowdownScalesExecution)
{
    const RetentionDistribution retention =
        RetentionDistribution::typical65nm();
    const DesignPoint design =
        makeDesignPoint(DesignKind::RanaE5, retention);
    const NetworkModel network = makeAlexNet();
    const Result<NetworkSchedule> schedule = scheduleNetwork(
        design.config, network, design.options);
    ASSERT_TRUE(schedule.ok());

    const ExecutionResult nominal =
        executeSchedule(design, network, schedule.value());
    TimingFaults faults;
    faults.slowdownFactor = 2.0;
    const ExecutionResult slowed = executeSchedule(
        design, network, schedule.value(), faults, nullptr);
    EXPECT_GT(slowed.seconds, 1.9 * nominal.seconds);

    // Defaults and a null guard reproduce the plain overload.
    const ExecutionResult replay = executeSchedule(
        design, network, schedule.value(), TimingFaults{}, nullptr);
    EXPECT_DOUBLE_EQ(replay.seconds, nominal.seconds);
    EXPECT_EQ(replay.violations, nominal.violations);
    EXPECT_EQ(replay.counts.refreshOps, nominal.counts.refreshOps);
}

// ----------------------------------------------------------------
// Fault campaign
// ----------------------------------------------------------------

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

FaultCampaignConfig
tinyCampaign()
{
    return FaultCampaignConfigBuilder()
        .trials(4)
        .seed(3)
        .dataset(tinyDataset())
        .trainer(tinyTrainer())
        .build();
}

TEST(FaultCampaign, ZeroTrialsIsInvalid)
{
    const RetentionDistribution retention =
        RetentionDistribution::typical65nm();
    const DesignPoint design =
        makeDesignPoint(DesignKind::RanaE5, retention);
    FaultCampaignConfig config = tinyCampaign();
    config.trials = 0;
    const Result<FaultCampaignReport> report =
        runFaultCampaign(design, makeAlexNet(), config);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.error().code, ErrorCode::InvalidArgument);
}

TEST(FaultCampaign, TrainedOperatingPointIsBounded)
{
    // Figure 11's claim, validated operationally: at the certified
    // 1e-5 point, a retrained model keeps its accuracy under the
    // sampled per-bank retention faults, and the fault-free run has
    // no corrupted-word events at all.
    const RetentionDistribution retention =
        RetentionDistribution::typical65nm();
    const DesignPoint design =
        makeDesignPoint(DesignKind::RanaE5, retention);
    const Result<FaultCampaignReport> result =
        runFaultCampaign(design, makeAlexNet(), tinyCampaign());
    ASSERT_TRUE(result.ok());
    const FaultCampaignReport &report = result.value();

    EXPECT_EQ(report.retentionViolations, 0u);
    EXPECT_GT(report.baselineAccuracy, 0.7);
    EXPECT_GT(report.meanRelativeAccuracy, 0.9);
    EXPECT_DOUBLE_EQ(report.operatingFailureRate, design.failureRate);
    ASSERT_EQ(report.trials.size(), 4u);
    EXPECT_FALSE(report.exposures.empty());
    EXPECT_FALSE(report.guarded);
}

TEST(FaultCampaign, StallsCorruptAndDegradeUnguardedRuns)
{
    // The degradation control: heavy injected stalls age data past
    // the tolerable retention time, the controller counts the stale
    // reads, and the (deliberately unretrained) model's accuracy
    // collapses.
    const RetentionDistribution retention =
        RetentionDistribution::typical65nm();
    const DesignPoint design =
        makeDesignPoint(DesignKind::RanaE5, retention);
    FaultCampaignConfig config = tinyCampaign();
    config.timingFaults.scanStallSeconds = 0.03;
    config.retrain = false;
    const Result<FaultCampaignReport> result =
        runFaultCampaign(design, makeAlexNet(), config);
    ASSERT_TRUE(result.ok());
    const FaultCampaignReport &report = result.value();

    EXPECT_GT(report.retentionViolations, 0u);
    // The stale banks translate into injected bit errors...
    EXPECT_GT(report.meanWeightFailureRate +
                  report.meanActivationFailureRate,
              0.0);
    // ...that collapse the unretrained model's accuracy.
    EXPECT_LT(report.meanRelativeAccuracy, 0.7);
}

TEST(FaultCampaign, GuardPreventsCorruptionUnderStalls)
{
    // Same stalls, guard attached: every overage is covered by the
    // per-bank watchdog fallback, so the run completes with zero
    // corrupted-word events and near-baseline accuracy even without
    // retraining.
    const RetentionDistribution retention =
        RetentionDistribution::typical65nm();
    const DesignPoint design =
        makeDesignPoint(DesignKind::RanaE5, retention);
    FaultCampaignConfig config = tinyCampaign();
    config.timingFaults.scanStallSeconds = 0.03;
    config.retrain = false;
    config.guard = true;
    const Result<FaultCampaignReport> result =
        runFaultCampaign(design, makeAlexNet(), config);
    ASSERT_TRUE(result.ok());
    const FaultCampaignReport &report = result.value();

    EXPECT_TRUE(report.guarded);
    EXPECT_EQ(report.retentionViolations, 0u);
    EXPECT_GT(report.guardStats.trips, 0u);
    EXPECT_GT(report.guardStats.banksReenabled, 0u);
    EXPECT_GT(report.guardStats.fallbackRefreshOps, 0u);
    EXPECT_GT(report.meanRelativeAccuracy, 0.9);
}

TEST(FaultCampaign, BatchedTrialsAreBitIdenticalToScalar)
{
    // The trial-batched forward path (laneBlock > 1) is an exact
    // transform of the scalar per-trial loop: every lane keeps the
    // scalar accumulation order, so accuracies must match bit for
    // bit — across a lane count that divides the trial count, one
    // that leaves a remainder block, a non-power-of-two count padded
    // to a compile-time kernel with injector-free lanes, and the
    // tuned default. (LaneForward at 3/7/17 lanes covers the
    // runtime-lane kernels.)
    const RetentionDistribution retention =
        RetentionDistribution::typical65nm();
    const DesignPoint design =
        makeDesignPoint(DesignKind::RanaE5, retention);
    FaultCampaignConfig config = tinyCampaign();
    config.trials = 7;
    config.laneBlock = 1; // 1-lane reference passes
    const Result<FaultCampaignReport> scalar =
        runFaultCampaign(design, makeAlexNet(), config);
    ASSERT_TRUE(scalar.ok());
    const FaultCampaignReport &reference = scalar.value();

    for (std::uint32_t lanes : {3u, 5u, kDefaultLaneBlock}) {
        config.laneBlock = lanes;
        const Result<FaultCampaignReport> batched =
            runFaultCampaign(design, makeAlexNet(), config);
        ASSERT_TRUE(batched.ok());
        const FaultCampaignReport &report = batched.value();

        EXPECT_DOUBLE_EQ(report.baselineAccuracy,
                         reference.baselineAccuracy);
        ASSERT_EQ(report.trials.size(), reference.trials.size());
        for (std::size_t i = 0; i < report.trials.size(); ++i) {
            EXPECT_EQ(report.trials[i].seed,
                      reference.trials[i].seed);
            EXPECT_EQ(report.trials[i].accuracy,
                      reference.trials[i].accuracy)
                << "lane count " << lanes << ", trial " << i;
            EXPECT_EQ(report.trials[i].relativeAccuracy,
                      reference.trials[i].relativeAccuracy);
            EXPECT_EQ(report.trials[i].weightFailureRate,
                      reference.trials[i].weightFailureRate);
            EXPECT_EQ(report.trials[i].activationFailureRate,
                      reference.trials[i].activationFailureRate);
        }
    }
}

TEST(FaultCampaign, DeterministicPerSeed)
{
    const RetentionDistribution retention =
        RetentionDistribution::typical65nm();
    const DesignPoint design =
        makeDesignPoint(DesignKind::RanaE5, retention);
    FaultCampaignConfig config = tinyCampaign();
    config.trials = 3;
    config.retrain = false;
    config.jobs = 1;
    const Result<FaultCampaignReport> first =
        runFaultCampaign(design, makeAlexNet(), config);
    config.jobs = 0; // lane count must not change the result
    const Result<FaultCampaignReport> second =
        runFaultCampaign(design, makeAlexNet(), config);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    const FaultCampaignReport &a = first.value();
    const FaultCampaignReport &b = second.value();

    EXPECT_DOUBLE_EQ(a.baselineAccuracy, b.baselineAccuracy);
    EXPECT_DOUBLE_EQ(a.meanAccuracy, b.meanAccuracy);
    ASSERT_EQ(a.trials.size(), b.trials.size());
    for (std::size_t i = 0; i < a.trials.size(); ++i) {
        EXPECT_EQ(a.trials[i].seed, b.trials[i].seed);
        EXPECT_DOUBLE_EQ(a.trials[i].weightFailureRate,
                         b.trials[i].weightFailureRate);
        EXPECT_DOUBLE_EQ(a.trials[i].activationFailureRate,
                         b.trials[i].activationFailureRate);
        EXPECT_EQ(a.trials[i].exposedBanks, b.trials[i].exposedBanks);
        EXPECT_DOUBLE_EQ(a.trials[i].accuracy, b.trials[i].accuracy);
    }
}

} // namespace
} // namespace rana
