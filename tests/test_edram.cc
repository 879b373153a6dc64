/**
 * @file
 * Unit tests for the buffer system, clock divider and refresh
 * controllers.
 */

#include <gtest/gtest.h>

#include "edram/buffer_system.hh"
#include "edram/clock_divider.hh"
#include "edram/refresh_controller.hh"
#include "util/units.hh"

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

TEST(BufferSystem, Geometry)
{
    const BufferGeometry geometry = edramBuffer(46);
    EXPECT_EQ(geometry.bankWords(), 16384u);
    EXPECT_EQ(geometry.capacityWords(), 46u * 16384);
    EXPECT_EQ(geometry.capacityBytes(), 46u * 32 * kib);
}

TEST(BufferSystem, AllocationRoundsUpToBanks)
{
    const BufferGeometry geometry = edramBuffer(10);
    const BankAllocation alloc =
        allocateBanksChecked(geometry, 16385, 16384, 1).valueOrDie();
    EXPECT_EQ(alloc.banksOf(DataType::Input), 2u);
    EXPECT_EQ(alloc.banksOf(DataType::Output), 1u);
    EXPECT_EQ(alloc.banksOf(DataType::Weight), 1u);
    EXPECT_EQ(alloc.unusedBanks, 6u);
    EXPECT_EQ(alloc.totalBanks(), 10u);
}

TEST(BufferSystem, EmptyTypesGetNoBanks)
{
    const BankAllocation alloc =
        allocateBanksChecked(edramBuffer(4), 0, 100, 0).valueOrDie();
    EXPECT_EQ(alloc.banksOf(DataType::Input), 0u);
    EXPECT_EQ(alloc.banksOf(DataType::Output), 1u);
    EXPECT_EQ(alloc.unusedBanks, 3u);
}

TEST(BufferSystem, CheckedOverflowIsRecoverable)
{
    const Result<BankAllocation> result =
        allocateBanksChecked(edramBuffer(1), 16385, 0, 0);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, ErrorCode::Infeasible);
    EXPECT_NE(result.error().message.find("overflow"),
              std::string::npos);
    EXPECT_NE(result.error().message.find("16385"),
              std::string::npos);
}

TEST(BufferSystem, CheckedAllocationMatchesOrDieWrapper)
{
    // value() on a checked success and valueOrDie() at an edge read
    // the same allocation.
    const BufferGeometry geometry = edramBuffer(10);
    const Result<BankAllocation> checked =
        allocateBanksChecked(geometry, 16385, 16384, 1);
    ASSERT_TRUE(checked.ok());
    const BankAllocation direct =
        allocateBanksChecked(geometry, 16385, 16384, 1).valueOrDie();
    EXPECT_EQ(checked.value().banks, direct.banks);
    EXPECT_EQ(checked.value().words, direct.words);
    EXPECT_EQ(checked.value().unusedBanks, direct.unusedBanks);
}

TEST(ClockDivider, ExactDivision)
{
    ProgrammableClockDivider divider(200e6);
    divider.setInterval(45e-6);
    EXPECT_EQ(divider.divideRatio(), 9000u);
    EXPECT_DOUBLE_EQ(divider.pulsePeriod(), 45e-6);
    divider.setInterval(734e-6);
    EXPECT_EQ(divider.divideRatio(), 146800u);
}

TEST(ClockDivider, RoundsDownToNotStretchRetention)
{
    ProgrammableClockDivider divider(200e6);
    divider.setInterval(45.0000049e-6);
    EXPECT_EQ(divider.divideRatio(), 9000u);
    EXPECT_LE(divider.pulsePeriod(), 45.0000049e-6);
}

TEST(ClockDivider, PulseCounting)
{
    ProgrammableClockDivider divider(200e6);
    divider.setInterval(45e-6);
    EXPECT_EQ(divider.pulsesDuring(44e-6), 0u);
    EXPECT_EQ(divider.pulsesDuring(45e-6), 1u);
    EXPECT_EQ(divider.pulsesDuring(100e-6), 2u);
    EXPECT_EQ(divider.pulsesDuring(0.0), 0u);
}

LayerRefreshDemand
demoDemand(const BufferGeometry &geometry, double layer_seconds,
           double lt_in, double lt_out, double lt_w)
{
    LayerRefreshDemand demand;
    demand.layerSeconds = layer_seconds;
    demand.lifetimeSeconds = {lt_in, lt_out, lt_w};
    demand.allocation =
        allocateBanksChecked(geometry, 20000, 40000, 10000).valueOrDie();
    return demand;
}

TEST(RefreshPolicyTest, DataNeedsRefresh)
{
    const BufferGeometry geometry = edramBuffer(46);
    const auto demand = demoDemand(geometry, 1e-3, 1e-3, 30e-6, 50e-6);
    EXPECT_TRUE(dataNeedsRefresh(demand, DataType::Input, 45e-6));
    EXPECT_FALSE(dataNeedsRefresh(demand, DataType::Output, 45e-6));
    EXPECT_TRUE(dataNeedsRefresh(demand, DataType::Weight, 45e-6));
    EXPECT_FALSE(dataNeedsRefresh(demand, DataType::Weight, 734e-6));
}

TEST(RefreshPolicyTest, ConventionalRefreshesEverything)
{
    const BufferGeometry geometry = edramBuffer(46);
    const auto demand = demoDemand(geometry, 450e-6, 1e-9, 1e-9, 1e-9);
    const std::uint64_t ops = refreshOpsForLayer(
        RefreshPolicy::ConventionalAll, geometry, demand, 45e-6);
    EXPECT_EQ(ops, geometry.capacityWords() * 10);
}

TEST(RefreshPolicyTest, GatedSkipsShortLifetimes)
{
    const BufferGeometry geometry = edramBuffer(46);
    const auto short_demand =
        demoDemand(geometry, 450e-6, 30e-6, 30e-6, 10e-6);
    EXPECT_EQ(refreshOpsForLayer(RefreshPolicy::GatedGlobal, geometry,
                                 short_demand, 45e-6),
              0u);
    const auto long_demand =
        demoDemand(geometry, 450e-6, 500e-6, 30e-6, 10e-6);
    EXPECT_EQ(refreshOpsForLayer(RefreshPolicy::GatedGlobal, geometry,
                                 long_demand, 45e-6),
              geometry.capacityWords() * 10);
}

TEST(RefreshPolicyTest, PerBankRefreshesOnlyNeedyBanks)
{
    const BufferGeometry geometry = edramBuffer(46);
    const auto demand =
        demoDemand(geometry, 450e-6, 500e-6, 30e-6, 10e-6);
    const std::uint64_t ops = refreshOpsForLayer(
        RefreshPolicy::PerBank, geometry, demand, 45e-6);
    // Only the input banks (ceil(20000/16384) = 2 banks) refresh.
    EXPECT_EQ(ops, 2u * geometry.bankWords() * 10);
}

TEST(RefreshPolicyTest, PerBankSkipsUnusedBanks)
{
    const BufferGeometry geometry = edramBuffer(46);
    LayerRefreshDemand demand;
    demand.layerSeconds = 450e-6;
    demand.lifetimeSeconds = {450e-6, 450e-6, 450e-6};
    demand.allocation =
        allocateBanksChecked(geometry, 16384, 0, 0).valueOrDie();
    const std::uint64_t ops = refreshOpsForLayer(
        RefreshPolicy::PerBank, geometry, demand, 45e-6);
    EXPECT_EQ(ops, geometry.bankWords() * 10);
}

TEST(RefreshPolicyTest, NonePolicyAndSram)
{
    const BufferGeometry geometry = edramBuffer(46);
    const auto demand = demoDemand(geometry, 1e-3, 1e-3, 1e-3, 1e-3);
    EXPECT_EQ(refreshOpsForLayer(RefreshPolicy::None, geometry, demand,
                                 45e-6),
              0u);
    BufferGeometry sram = geometry;
    sram.technology = MemoryTechnology::Sram;
    EXPECT_EQ(refreshOpsForLayer(RefreshPolicy::GatedGlobal, sram,
                                 demand, 45e-6),
              0u);
}

TEST(RefreshPolicyTest, Flags)
{
    const BufferGeometry geometry = edramBuffer(46);
    const auto demand =
        demoDemand(geometry, 450e-6, 500e-6, 30e-6, 60e-6);
    const auto flags = refreshFlagsForLayer(demand, 45e-6);
    EXPECT_TRUE(flags[0]);
    EXPECT_FALSE(flags[1]);
    EXPECT_TRUE(flags[2]);
}

/** Pulse-count equivalence: closed form vs. event-driven sim. */
class RefreshSimEquivalence
    : public ::testing::TestWithParam<std::tuple<double, double>>
{
};

TEST_P(RefreshSimEquivalence, MatchesClosedForm)
{
    const double interval = std::get<0>(GetParam());
    const double duration = std::get<1>(GetParam());
    const BufferGeometry geometry = edramBuffer(8);
    const auto demand =
        demoDemand(geometry, duration, duration, duration, duration);
    const auto flags = refreshFlagsForLayer(demand, interval);

    for (RefreshPolicy policy : {RefreshPolicy::ConventionalAll,
                                 RefreshPolicy::GatedGlobal,
                                 RefreshPolicy::PerBank}) {
        RefreshControllerSim sim(geometry, policy, 200e6, interval);
        sim.beginLayer(demand.allocation, flags,
                       flags[0] || flags[1] || flags[2], 0.0);
        sim.advanceTo(duration);
        EXPECT_EQ(sim.refreshOps(),
                  refreshOpsForLayer(policy, geometry, demand,
                                     interval))
            << refreshPolicyName(policy);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RefreshSimEquivalence,
    ::testing::Combine(::testing::Values(45e-6, 90e-6, 734e-6),
                       ::testing::Values(40e-6, 45e-6, 450e-6, 1.1e-3,
                                         7.34e-3)));

TEST(RefreshControllerSim, StartAtIssuesNoPulses)
{
    // ConventionalAll refreshes every bank on every pulse, so any
    // pulse issued before the start time would show in the count.
    const BufferGeometry geometry = edramBuffer(4);
    RefreshControllerSim walked(geometry, RefreshPolicy::ConventionalAll,
                                200e6, 45e-6);
    walked.advanceTo(5e-3);
    ASSERT_GT(walked.refreshOps(), 0u);

    RefreshControllerSim started(geometry,
                                 RefreshPolicy::ConventionalAll, 200e6,
                                 45e-6);
    started.startAt(5e-3);
    EXPECT_EQ(started.refreshOps(), 0u);
    const BankAllocation alloc =
        allocateBanksChecked(geometry, 100, 0, 0).valueOrDie();
    started.beginLayer(alloc, {true, false, false}, true, 5e-3);
    EXPECT_EQ(started.refreshOps(), 0u);
    // From the start time on it pulses as a walked controller does.
    walked.beginLayer(alloc, {true, false, false}, true, 5e-3);
    const std::uint64_t walked_before = walked.refreshOps();
    started.advanceTo(5e-3 + 450e-6);
    walked.advanceTo(5e-3 + 450e-6);
    EXPECT_EQ(started.refreshOps(),
              walked.refreshOps() - walked_before);
    EXPECT_GT(started.refreshOps(), 0u);
}

TEST(RefreshSim, DetectsStaleRead)
{
    const BufferGeometry geometry = edramBuffer(4);
    RefreshControllerSim sim(geometry, RefreshPolicy::GatedGlobal,
                             200e6, 45e-6);
    const BankAllocation alloc =
        allocateBanksChecked(geometry, 100, 0, 0).valueOrDie();
    // Gate off although the data will live 10 intervals.
    sim.beginLayer(alloc, {false, false, false}, false, 0.0);
    sim.onWrite(DataType::Input, 0.0);
    sim.onRead(DataType::Input, 44e-6, 0.0);
    EXPECT_EQ(sim.violations(), 0u);
    sim.onRead(DataType::Input, 450e-6, 0.0);
    EXPECT_EQ(sim.violations(), 1u);
}

TEST(RefreshSim, RefreshPreventsViolation)
{
    const BufferGeometry geometry = edramBuffer(4);
    RefreshControllerSim sim(geometry, RefreshPolicy::GatedGlobal,
                             200e6, 45e-6);
    const BankAllocation alloc =
        allocateBanksChecked(geometry, 100, 0, 0).valueOrDie();
    sim.beginLayer(alloc, {true, false, false}, true, 0.0);
    sim.onWrite(DataType::Input, 0.0);
    sim.onRead(DataType::Input, 450e-6, 0.0);
    EXPECT_EQ(sim.violations(), 0u);
    EXPECT_GT(sim.refreshOps(), 0u);
}

TEST(RefreshSim, PerBankLeavesUnflaggedStale)
{
    const BufferGeometry geometry = edramBuffer(4);
    RefreshControllerSim sim(geometry, RefreshPolicy::PerBank, 200e6,
                             45e-6);
    const BankAllocation alloc =
        allocateBanksChecked(geometry, 100, 0, 100).valueOrDie();
    // Refresh inputs but not weights.
    sim.beginLayer(alloc, {true, false, false}, true, 0.0);
    sim.onWrite(DataType::Input, 0.0);
    sim.onWrite(DataType::Weight, 0.0);
    sim.onRead(DataType::Input, 450e-6, 0.0);
    sim.onRead(DataType::Weight, 450e-6, 0.0);
    EXPECT_EQ(sim.violations(), 1u);
}

TEST(RefreshSim, SelfRefreshingDataIsSafe)
{
    // OD-style cyclic rewrites: each read sees data younger than the
    // interval even with refresh fully off.
    const BufferGeometry geometry = edramBuffer(4);
    RefreshControllerSim sim(geometry, RefreshPolicy::PerBank, 200e6,
                             45e-6);
    const BankAllocation alloc =
        allocateBanksChecked(geometry, 0, 1000, 0).valueOrDie();
    sim.beginLayer(alloc, {false, false, false}, false, 0.0);
    double t = 0.0;
    for (int pass = 0; pass < 20; ++pass) {
        sim.onWrite(DataType::Output, t);
        t += 30e-6;
        sim.onRead(DataType::Output, t, t - 30e-6);
    }
    EXPECT_EQ(sim.violations(), 0u);
    EXPECT_EQ(sim.refreshOps(), 0u);
}

} // namespace
} // namespace rana
