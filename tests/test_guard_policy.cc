/**
 * @file
 * Tests of the pluggable guard-policy API: factory validation and
 * name round-trips, PermanentReenable's bit-identical parity with
 * the pre-policy guard, HysteresisRedisarm's K-boundary re-disarm
 * cycle, BinnedEscalation's ladder walk and shortest-bin
 * exhaustion, and the lane-count determinism of the guard-policy
 * comparison.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "edram/guard_policy.hh"
#include "edram/refresh_controller.hh"
#include "edram/retention_binning.hh"
#include "nn/model_zoo.hh"
#include "robust/campaign_sweep.hh"
#include "robust/fault_campaign.hh"

namespace rana {
namespace {

BufferGeometry
edramBuffer(std::uint32_t banks)
{
    BufferGeometry geometry;
    geometry.technology = MemoryTechnology::Edram;
    geometry.numBanks = banks;
    return geometry;
}

// ----------------------------------------------------------------
// Factory, names, ladder
// ----------------------------------------------------------------

TEST(GuardPolicy, NameParseRoundTrip)
{
    for (GuardPolicyKind kind : {GuardPolicyKind::Permanent,
                                 GuardPolicyKind::Hysteresis,
                                 GuardPolicyKind::Binned}) {
        const Result<GuardPolicyKind> parsed =
            parseGuardPolicyKind(guardPolicyKindName(kind));
        ASSERT_TRUE(parsed.ok()) << guardPolicyKindName(kind);
        EXPECT_EQ(parsed.value(), kind);
    }
    EXPECT_EQ(parseGuardPolicyKind("frobnicate").error().code,
              ErrorCode::InvalidArgument);
    EXPECT_EQ(parseGuardPolicyKind("").error().code,
              ErrorCode::InvalidArgument);
}

TEST(GuardPolicy, FactoryBuildsEachKind)
{
    const BufferGeometry geometry = edramBuffer(4);
    const RetentionDistribution dist =
        RetentionDistribution::typical65nm();
    for (GuardPolicyKind kind : {GuardPolicyKind::Permanent,
                                 GuardPolicyKind::Hysteresis,
                                 GuardPolicyKind::Binned}) {
        GuardPolicySpec spec;
        spec.kind = kind;
        const Result<std::unique_ptr<GuardPolicy>> policy =
            makeGuardPolicy(spec, geometry, dist, 1e-5, 1);
        ASSERT_TRUE(policy.ok()) << guardPolicyKindName(kind);
        EXPECT_EQ(policy.value()->kind(), kind);
        EXPECT_STREQ(policy.value()->name(),
                     guardPolicyKindName(kind));
    }
}

TEST(GuardPolicy, FactoryRejectsDegenerateSpecs)
{
    const BufferGeometry geometry = edramBuffer(4);
    const RetentionDistribution dist =
        RetentionDistribution::typical65nm();

    GuardPolicySpec no_k;
    no_k.kind = GuardPolicyKind::Hysteresis;
    no_k.hysteresisK = 0;
    EXPECT_EQ(makeGuardPolicy(no_k, geometry, dist, 1e-5, 1)
                  .error()
                  .code,
              ErrorCode::InvalidArgument);

    GuardPolicySpec no_bins;
    no_bins.kind = GuardPolicyKind::Binned;
    no_bins.bins = 0;
    EXPECT_EQ(makeGuardPolicy(no_bins, geometry, dist, 1e-5, 1)
                  .error()
                  .code,
              ErrorCode::InvalidArgument);
}

TEST(GuardPolicy, EscalationLadderIsSortedAndDeduplicated)
{
    const BufferGeometry geometry = edramBuffer(8);
    RetentionBinningParams params;
    params.numBins = 4;
    const RetentionBinning binning(
        geometry, RetentionDistribution::typical65nm(), params);
    const std::vector<double> ladder = escalationLadder(binning);
    ASSERT_FALSE(ladder.empty());
    for (std::size_t i = 1; i < ladder.size(); ++i)
        EXPECT_LT(ladder[i - 1], ladder[i]);
    for (double interval : ladder)
        EXPECT_GT(interval, 0.0);
}

// ----------------------------------------------------------------
// PermanentReenable: parity with the pre-policy guard
// ----------------------------------------------------------------

TEST(GuardPolicyPermanent, MatchesDefaultConstructedGuardBitForBit)
{
    // The default-constructed guard *is* PermanentReenable; an
    // explicit permanent policy must reproduce its counters and the
    // controller's refresh schedule exactly.
    const BufferGeometry geometry = edramBuffer(4);
    const BankAllocation alloc =
        allocateBanks(geometry, 2 * 16384, 0, 0);

    auto run = [&](ReliabilityGuard &guard,
                   RefreshControllerSim &sim) {
        sim.attachGuard(&guard);
        sim.beginLayer(alloc, {false, false, false}, false, 0.0);
        sim.onWrite(DataType::Input, 0.0);
        sim.onRead(DataType::Input, 450e-6, 0.0);
        sim.advanceTo(900e-6);
    };

    RefreshControllerSim sim_a(geometry, RefreshPolicy::PerBank,
                               200e6, 45e-6);
    ReliabilityGuard guard_a(sim_a.pulsePeriod());
    run(guard_a, sim_a);

    RefreshControllerSim sim_b(geometry, RefreshPolicy::PerBank,
                               200e6, 45e-6);
    ReliabilityGuard guard_b(sim_b.pulsePeriod(),
                             std::make_unique<PermanentReenable>());
    run(guard_b, sim_b);

    const ReliabilityGuard::Stats &a = guard_a.stats();
    const ReliabilityGuard::Stats &b = guard_b.stats();
    EXPECT_EQ(a.trips, b.trips);
    EXPECT_EQ(a.banksReenabled, b.banksReenabled);
    EXPECT_EQ(a.fallbackRefreshOps, b.fallbackRefreshOps);
    EXPECT_EQ(a.redisarms, b.redisarms);
    EXPECT_EQ(a.escalations, b.escalations);
    EXPECT_EQ(a.cleanIntervals, b.cleanIntervals);
    EXPECT_EQ(a.armedRefreshOps, b.armedRefreshOps);
    EXPECT_EQ(sim_a.refreshOps(), sim_b.refreshOps());
    EXPECT_EQ(sim_a.violations(), sim_b.violations());

    // The historical fallback, hand-computed: one covered trip of
    // both banks; the watchdog pulses cover 0..450us (the count
    // computed as the implementation computes it); the armed group
    // then refreshes on the ten global pulses at 495..900us.
    EXPECT_EQ(a.trips, 1u);
    EXPECT_EQ(a.banksReenabled, 2u);
    EXPECT_EQ(a.redisarms, 0u);
    EXPECT_EQ(a.escalations, 0u);
    const auto watchdog_pulses = static_cast<std::uint64_t>(
        std::floor(450e-6 / sim_a.pulsePeriod()));
    EXPECT_EQ(a.fallbackRefreshOps,
              2u * geometry.bankWords() * watchdog_pulses);
    EXPECT_EQ(a.armedRefreshOps, 2u * geometry.bankWords() * 10u);
    EXPECT_EQ(sim_a.refreshOps(),
              a.fallbackRefreshOps + a.armedRefreshOps);
    EXPECT_EQ(sim_a.violations(), 0u);
}

// ----------------------------------------------------------------
// HysteresisRedisarm: the K-boundary cycle
// ----------------------------------------------------------------

TEST(GuardPolicyHysteresis, RedisarmsAfterKCleanIntervalsAndRetrips)
{
    // PerBank at 45us, K = 3. The trip at 450us covers the overage
    // and re-arms both banks; the first global pulse after it
    // (495us) is not a clean interval (the overage happened since
    // the last recharge), so the clean streak runs 540/585/630us and
    // the re-disarm lands on the 630us pulse — not one earlier.
    const BufferGeometry geometry = edramBuffer(4);
    RefreshControllerSim sim(geometry, RefreshPolicy::PerBank, 200e6,
                             45e-6);
    ReliabilityGuard guard(sim.pulsePeriod(),
                           std::make_unique<HysteresisRedisarm>(3));
    sim.attachGuard(&guard);
    const BankAllocation alloc =
        allocateBanks(geometry, 2 * 16384, 0, 0);
    sim.beginLayer(alloc, {false, false, false}, false, 0.0);
    sim.onWrite(DataType::Input, 0.0);
    sim.onRead(DataType::Input, 450e-6, 0.0);

    EXPECT_EQ(guard.stats().trips, 1u);
    EXPECT_EQ(guard.stats().banksReenabled, 2u);
    EXPECT_EQ(guard.stats().redisarms, 0u);

    sim.advanceTo(700e-6);
    // Armed pulses 495/540/585/630us; clean intervals 540/585/630us
    // reach K and the 675us pulse no longer refreshes the group.
    EXPECT_EQ(guard.stats().cleanIntervals, 3u);
    EXPECT_EQ(guard.stats().redisarms, 2u);
    EXPECT_EQ(guard.stats().armedRefreshOps,
              2u * geometry.bankWords() * 4u);

    // The re-disarmed group coasts again — and a later overage trips
    // (and re-arms) it a second time.
    sim.onRead(DataType::Input, 1.2e-3, 0.0);
    EXPECT_EQ(guard.stats().trips, 2u);
    EXPECT_EQ(guard.stats().banksReenabled, 4u);
    EXPECT_EQ(sim.violations(), 0u);
}

TEST(GuardPolicyHysteresis, KnobIsExposed)
{
    const HysteresisRedisarm policy(7);
    EXPECT_EQ(policy.cleanIntervalsToRedisarm(), 7u);
    EXPECT_EQ(policy.kind(), GuardPolicyKind::Hysteresis);
}

// ----------------------------------------------------------------
// BinnedEscalation: ladder walk and exhaustion
// ----------------------------------------------------------------

TEST(GuardPolicyBinned, EscalatesThroughLadderToExhaustion)
{
    // Ladder {90us, 180us}: the first trip arms the longest bin
    // (180us), the re-trip steps to 90us, and the third trip finds
    // the ladder exhausted and keeps the group on the shortest bin.
    const BufferGeometry geometry = edramBuffer(4);
    RefreshControllerSim sim(geometry, RefreshPolicy::PerBank, 200e6,
                             45e-6);
    ReliabilityGuard guard(
        sim.pulsePeriod(),
        std::make_unique<BinnedEscalation>(
            std::vector<double>{90e-6, 180e-6}));
    sim.attachGuard(&guard);
    const BankAllocation alloc =
        allocateBanks(geometry, 2 * 16384, 0, 0);
    sim.beginLayer(alloc, {false, false, false}, false, 0.0);
    sim.onWrite(DataType::Input, 0.0);

    // Trip 1 at 450us: escalate onto the 180us bin; the own train
    // continues from the watchdog's recharge (450us) at 630, 810...
    sim.onRead(DataType::Input, 450e-6, 0.0);
    EXPECT_EQ(guard.stats().trips, 1u);
    EXPECT_EQ(guard.stats().escalations, 1u);
    EXPECT_EQ(guard.stats().banksReenabled, 2u);

    // The 180us bin exceeds the 45us tolerable period, so the read
    // at 700us (70us after the 630us own pulse) re-trips and steps
    // the ladder down to 90us.
    sim.onRead(DataType::Input, 700e-6, 0.0);
    EXPECT_EQ(guard.stats().trips, 2u);
    EXPECT_EQ(guard.stats().escalations, 2u);
    // The flag was already armed: no new banks re-enabled.
    EXPECT_EQ(guard.stats().banksReenabled, 2u);

    // 90us still exceeds the tolerable period; the third trip finds
    // the ladder exhausted (KeepArmed) and escalations stop at two.
    sim.onRead(DataType::Input, 920e-6, 0.0);
    EXPECT_EQ(guard.stats().trips, 3u);
    EXPECT_EQ(guard.stats().escalations, 2u);

    // The exhausted group stays on the shortest bin: a read shortly
    // after an own pulse (945us) is within tolerance and the
    // refresh train keeps running.
    const std::uint64_t ops_before = sim.refreshOps();
    sim.advanceTo(950e-6);
    sim.onRead(DataType::Input, 960e-6, 0.0);
    EXPECT_EQ(guard.stats().trips, 3u);
    EXPECT_GT(sim.refreshOps(), ops_before);
    EXPECT_EQ(sim.violations(), 0u);
}

TEST(GuardPolicyBinned, LadderIsExposedShortestFirst)
{
    const BinnedEscalation policy(
        std::vector<double>{45e-6, 90e-6, 180e-6});
    ASSERT_EQ(policy.binIntervals().size(), 3u);
    EXPECT_DOUBLE_EQ(policy.binIntervals().front(), 45e-6);
    EXPECT_DOUBLE_EQ(policy.binIntervals().back(), 180e-6);
}

// ----------------------------------------------------------------
// Guard-policy comparison under the fault campaign
// ----------------------------------------------------------------

CampaignSweepConfig
tinyComparison(const DesignPoint &design)
{
    DatasetConfig dataset;
    dataset.trainSamples = 256;
    dataset.testSamples = 128;
    dataset.imageSize = 12;
    dataset.numClasses = 4;
    TrainerConfig trainer;
    trainer.pretrainEpochs = 6;
    trainer.retrainEpochs = 2;
    trainer.evalRepeats = 2;
    TimingFaults stall;
    stall.scanStallSeconds = 0.03; // provoke watchdog trips

    CampaignSweepConfig config;
    config.failureRates = {design.failureRate};
    config.refreshIntervals = {design.options.refreshIntervalSeconds};
    config.campaign = FaultCampaignConfigBuilder()
                          .trials(3)
                          .seed(3)
                          .dataset(dataset)
                          .trainer(trainer)
                          .retrain(false)
                          .timingFaults(stall)
                          .guard(true)
                          .build();
    config.guardPolicies = stockGuardPolicies(GuardPolicySpec{});
    return config;
}

TEST(GuardPolicyComparison, DeterministicAcrossLaneCounts)
{
    const DesignPoint design = makeDesignPoint(
        DesignKind::RanaE5, RetentionDistribution::typical65nm());
    const NetworkModel network = makeAlexNet();
    CampaignSweepConfig serial = tinyComparison(design);
    serial.campaign.jobs = 1;
    CampaignSweepConfig parallel = serial;
    parallel.campaign.jobs = 0; // one lane per hardware thread

    const Result<CampaignSweepReport> first =
        runCampaignSweep(design, network, serial);
    const Result<CampaignSweepReport> second =
        runCampaignSweep(design, network, parallel);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    const CampaignSweepReport &a = first.value();
    const CampaignSweepReport &b = second.value();

    ASSERT_EQ(a.policyNames.size(), 3u);
    ASSERT_EQ(a.cells.size(), 3u);

    // The rendered table is byte-identical across lane counts.
    EXPECT_EQ(a.comparisonTable(), b.comparisonTable());
    for (std::size_t p = 0; p < a.policyNames.size(); ++p) {
        const GuardPolicyRow row_a = a.policyRow(p);
        const GuardPolicyRow row_b = b.policyRow(p);
        EXPECT_EQ(row_a.trips, row_b.trips);
        EXPECT_EQ(row_a.redisarms, row_b.redisarms);
        EXPECT_EQ(row_a.escalations, row_b.escalations);
        EXPECT_EQ(row_a.fallbackRefreshOps, row_b.fallbackRefreshOps);
        EXPECT_EQ(row_a.armedRefreshOps, row_b.armedRefreshOps);
        EXPECT_DOUBLE_EQ(row_a.p50RelativeAccuracy,
                         row_b.p50RelativeAccuracy);

        // Every policy absorbed its trips without corrupted words.
        EXPECT_GT(row_a.trips, 0u) << a.policyNames[p];
        EXPECT_EQ(row_a.violations, 0u) << a.policyNames[p];
    }

    // The policies actually behave differently: only hysteresis
    // re-disarms, only binned escalates.
    EXPECT_EQ(a.policyRow(0).redisarms, 0u);
    EXPECT_EQ(a.policyRow(0).escalations, 0u);
    EXPECT_GT(a.policyRow(1).redisarms, 0u);
    EXPECT_GT(a.policyRow(2).escalations, 0u);
}

TEST(GuardPolicyComparison, PermanentCellMatchesPlainGuardedCampaign)
{
    // The permanent policy is the pre-policy guard: its comparison
    // cell must reproduce a plain guarded runFaultCampaign at the
    // same operating point, counter for counter.
    const DesignPoint design = makeDesignPoint(
        DesignKind::RanaE5, RetentionDistribution::typical65nm());
    const NetworkModel network = makeAlexNet();
    const CampaignSweepConfig config = tinyComparison(design);

    const Result<CampaignSweepReport> compared =
        runCampaignSweep(design, network, config);
    ASSERT_TRUE(compared.ok());
    const FaultCampaignReport &cell =
        compared.value().at(0, 0, 0).report;
    EXPECT_EQ(cell.guardPolicyName, "permanent");

    const Result<FaultCampaignReport> plain =
        runFaultCampaign(design, network, config.campaign);
    ASSERT_TRUE(plain.ok());
    const FaultCampaignReport &whole = plain.value();

    EXPECT_EQ(whole.guardStats.trips, cell.guardStats.trips);
    EXPECT_EQ(whole.guardStats.banksReenabled,
              cell.guardStats.banksReenabled);
    EXPECT_EQ(whole.guardStats.fallbackRefreshOps,
              cell.guardStats.fallbackRefreshOps);
    EXPECT_EQ(whole.guardStats.redisarms, 0u);
    EXPECT_EQ(whole.guardStats.escalations, 0u);
    EXPECT_EQ(whole.refreshOps, cell.refreshOps);
    EXPECT_EQ(whole.retentionViolations, cell.retentionViolations);
    EXPECT_DOUBLE_EQ(whole.p50RelativeAccuracy,
                     cell.p50RelativeAccuracy);
    EXPECT_DOUBLE_EQ(whole.worstRelativeAccuracy,
                     cell.worstRelativeAccuracy);
}

} // namespace
} // namespace rana
