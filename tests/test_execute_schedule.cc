/**
 * @file
 * Tests of the layer fan-out behind executeScheduleChecked: each
 * layer runs on its own simulator from a precomputed start time, and
 * every lane count must reproduce one simulator walking the layers
 * in order, bit for bit, with errors reported in layer order.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/design_point.hh"
#include "core/experiments.hh"
#include "nn/model_zoo.hh"
#include "sim/loopnest_simulator.hh"
#include "sim/trace_export.hh"
#include "util/thread_pool.hh"

namespace rana {
namespace {

RetentionDistribution
retention()
{
    return RetentionDistribution::typical65nm();
}

/**
 * The serial reference: one simulator walks every layer in order and
 * the layers are summed as executeScheduleChecked sums them.
 */
ExecutionResult
referenceWalk(const DesignPoint &design, const NetworkModel &network,
              const NetworkSchedule &schedule,
              const TimingFaults &faults = TimingFaults{},
              ReliabilityGuard *guard = nullptr,
              TraceSink *sink = nullptr)
{
    LoopNestSimulator simulator(design.config, design.options.policy,
                                design.options.refreshIntervalSeconds);
    simulator.setTimingFaults(faults);
    simulator.attachGuard(guard);
    simulator.setTraceSink(sink);
    ExecutionResult result;
    for (std::size_t i = 0; i < network.size(); ++i) {
        const LayerSimResult layer = simulator.runLayerChecked(
            network.layer(i), schedule.layers[i].analysis).valueOrDie();
        result.counts += layer.counts;
        result.seconds += layer.layerSeconds;
        result.violations += layer.violations;
        result.guardTrips += layer.guardTrips;
    }
    if (guard != nullptr) {
        result.guardBanksReenabled = guard->stats().banksReenabled;
        result.guardFallbackRefreshOps =
            guard->stats().fallbackRefreshOps;
    }
    result.energy = computeEnergy(
        result.counts,
        energyTable65nm(design.config.buffer.technology));
    return result;
}

/** Exact equality of every field, doubles compared with ==. */
void
expectIdentical(const ExecutionResult &actual,
                const ExecutionResult &expected,
                const std::string &label)
{
    EXPECT_EQ(actual.counts.macOps, expected.counts.macOps) << label;
    EXPECT_EQ(actual.counts.bufferAccesses,
              expected.counts.bufferAccesses)
        << label;
    EXPECT_EQ(actual.counts.refreshOps, expected.counts.refreshOps)
        << label;
    EXPECT_EQ(actual.counts.ddrAccesses, expected.counts.ddrAccesses)
        << label;
    EXPECT_EQ(actual.energy.computing, expected.energy.computing)
        << label;
    EXPECT_EQ(actual.energy.bufferAccess, expected.energy.bufferAccess)
        << label;
    EXPECT_EQ(actual.energy.refresh, expected.energy.refresh) << label;
    EXPECT_EQ(actual.energy.offChipAccess,
              expected.energy.offChipAccess)
        << label;
    EXPECT_EQ(actual.seconds, expected.seconds) << label;
    EXPECT_EQ(actual.violations, expected.violations) << label;
    EXPECT_EQ(actual.guardTrips, expected.guardTrips) << label;
    EXPECT_EQ(actual.guardBanksReenabled, expected.guardBanksReenabled)
        << label;
    EXPECT_EQ(actual.guardFallbackRefreshOps,
              expected.guardFallbackRefreshOps)
        << label;
}

DesignPoint
withJobs(DesignPoint design, unsigned jobs)
{
    design.options.jobs = jobs;
    return design;
}

ExecutionResult
execute(const DesignPoint &design, const NetworkModel &network,
        const NetworkSchedule &schedule,
        const TimingFaults &faults = TimingFaults{},
        ReliabilityGuard *guard = nullptr, TraceSink *sink = nullptr)
{
    Result<ExecutionResult> result = executeScheduleChecked(
        design, network, schedule, faults, guard, sink);
    EXPECT_TRUE(result.ok()) << result.error().message;
    return std::move(result).value();
}

TEST(ExecuteSchedule, LayerFanOutIsBitIdentical)
{
    const unsigned hw = hardwareJobs();
    TimingFaults faults;
    faults.slowdownFactor = 1.25;
    faults.scanStallSeconds = 3e-6;
    for (const NetworkModel &network : makeBenchmarkSuite()) {
        for (const DesignPoint &design : tableIvDesigns(retention())) {
            const std::string label = network.name() + " on " +
                                      design.name;
            const Result<NetworkSchedule> scheduled = scheduleNetwork(
                design.config, network, withJobs(design, hw).options);
            ASSERT_TRUE(scheduled.ok()) << label;
            const NetworkSchedule &schedule = scheduled.value();

            const ExecutionResult reference =
                referenceWalk(design, network, schedule);
            for (unsigned jobs : {1u, 2u, hw}) {
                expectIdentical(execute(withJobs(design, jobs), network,
                                        schedule),
                                reference,
                                label + " jobs=" + std::to_string(jobs));
            }
            // Slowed tiles and stalled scans move every start time.
            expectIdentical(
                execute(withJobs(design, hw), network, schedule, faults),
                referenceWalk(design, network, schedule, faults),
                label + " under timing faults");
        }
    }
}

TEST(ExecuteSchedule, GuardedAndTracedRunsMatchTheSerialWalk)
{
    // A guard or sink keeps the run on one lane of the same per-layer
    // path; it must still see exactly what one simulator shows it.
    const NetworkModel network = makeAlexNet();
    TimingFaults faults;
    faults.scanStallSeconds = 2e-3;
    std::uint64_t trips = 0;
    for (const DesignPoint &design : tableIvDesigns(retention())) {
        const DesignPoint wide = withJobs(design, 4);
        const NetworkSchedule schedule = scheduleNetwork(
            design.config, network, wide.options).valueOrDie();

        ReliabilityGuard guard(design.options.refreshIntervalSeconds);
        ReliabilityGuard reference_guard(
            design.options.refreshIntervalSeconds);
        const ExecutionResult guarded =
            execute(wide, network, schedule, faults, &guard);
        expectIdentical(guarded,
                        referenceWalk(design, network, schedule, faults,
                                      &reference_guard),
                        design.name + " guarded");
        trips += guarded.guardTrips;
        EXPECT_EQ(guard.stats().worstObservedLifetimeSeconds,
                  reference_guard.stats().worstObservedLifetimeSeconds)
            << design.name;

        CountingTraceSink sink;
        CountingTraceSink reference_sink;
        expectIdentical(execute(wide, network, schedule, faults, nullptr,
                                &sink),
                        referenceWalk(design, network, schedule, faults,
                                      nullptr, &reference_sink),
                        design.name + " traced");
        EXPECT_EQ(sink.layers(), reference_sink.layers());
        for (std::size_t k = 0; k < numTraceEventKinds; ++k) {
            const auto kind = static_cast<TraceEventKind>(k);
            EXPECT_EQ(sink.count(kind), reference_sink.count(kind))
                << design.name << " " << traceEventKindName(kind);
            EXPECT_EQ(sink.wordsOf(kind), reference_sink.wordsOf(kind))
                << design.name << " " << traceEventKindName(kind);
        }
    }
    // The stall is long enough to trip guards, so the guarded
    // comparisons are not vacuous.
    EXPECT_GT(trips, 0u);
}

TEST(ExecuteSchedule, FirstInfeasibleLayerWinsUnderEveryLaneCount)
{
    const NetworkModel network = makeAlexNet();
    const DesignPoint design =
        makeDesignPoint(DesignKind::RanaE5, retention());
    NetworkSchedule schedule =
        scheduleNetwork(design.config, network, design.options).valueOrDie();
    const std::size_t k = 1;
    ASSERT_LT(k + 3, network.size());
    schedule.layers[k].analysis.feasible = false;
    schedule.layers[k + 3].analysis.feasible = false;
    for (unsigned jobs : {1u, 4u}) {
        const Result<ExecutionResult> result = executeScheduleChecked(
            withJobs(design, jobs), network, schedule);
        ASSERT_FALSE(result.ok()) << "jobs=" << jobs;
        EXPECT_EQ(result.error().code, ErrorCode::InvalidArgument);
        EXPECT_NE(result.error().message.find(network.layer(k).name),
                  std::string::npos)
            << result.error().message;
        EXPECT_EQ(
            result.error().message.find(network.layer(k + 3).name),
            std::string::npos)
            << result.error().message;
    }
}

} // namespace
} // namespace rana
