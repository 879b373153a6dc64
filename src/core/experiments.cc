/**
 * @file
 * Implementation of the experiment runner.
 */

#include "core/experiments.hh"

#include <optional>

#include "obs/chrome_trace.hh"
#include "sim/trace_export.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace rana {

Result<DesignResult>
runDesignChecked(const DesignPoint &design, const NetworkModel &network)
{
    DesignResult result;
    result.designName = design.name;
    result.networkName = network.name();
    Result<NetworkSchedule> schedule =
        scheduleNetwork(design.config, network, design.options);
    if (!schedule.ok())
        return schedule.error();
    result.schedule = std::move(schedule).value();
    result.counts = result.schedule.totalCounts();
    result.energy = result.schedule.totalEnergy();
    result.seconds = result.schedule.totalSeconds();
    return result;
}

std::vector<DesignResult>
runDesignSuite(const DesignPoint &design,
               const std::vector<NetworkModel> &networks)
{
    std::vector<DesignResult> results;
    results.reserve(networks.size());
    for (const auto &network : networks)
        results.push_back(runDesignChecked(design, network).valueOrDie());
    return results;
}

Result<std::vector<LayerSimResult>>
simulateLayersChecked(const DesignPoint &design,
                      const NetworkModel &network,
                      const NetworkSchedule &schedule,
                      const TimingFaults &faults,
                      ReliabilityGuard *guard, TraceSink *sink)
{
    if (schedule.layers.size() != network.size()) {
        return makeError(ErrorCode::Mismatch, "schedule has ",
                         schedule.layers.size(), " layers but ",
                         network.name(), " has ", network.size());
    }
    // Start times first: the same float chain a serial walk advances
    // its clock by, and the first infeasible layer in layer order.
    std::vector<double> starts(network.size());
    {
        LoopNestSimulator clock(design.config, design.options.policy,
                                design.options.refreshIntervalSeconds);
        clock.setTimingFaults(faults);
        double start = 0.0;
        for (std::size_t i = 0; i < network.size(); ++i) {
            starts[i] = start;
            const Result<double> end = clock.layerEnd(
                network.layer(i), schedule.layers[i].analysis, start);
            if (!end.ok())
                return end.error();
            start = end.value();
        }
    }

    // A guard or sink sees every layer, in order, on one lane.
    const unsigned jobs = guard != nullptr || sink != nullptr
                              ? 1
                              : effectiveJobs(design.options);
    std::vector<std::optional<Result<LayerSimResult>>> slots(
        network.size());
    parallelFor(network.size(), jobs, [&](std::size_t i) {
        LoopNestSimulator simulator(design.config, design.options.policy,
                                    design.options.refreshIntervalSeconds);
        simulator.setTimingFaults(faults);
        simulator.attachGuard(guard);
        simulator.setTraceSink(sink);
        simulator.startAt(starts[i]);
        slots[i] = simulator.runLayerChecked(
            network.layer(i), schedule.layers[i].analysis);
    });

    std::vector<LayerSimResult> layers;
    layers.reserve(slots.size());
    for (std::optional<Result<LayerSimResult>> &slot : slots) {
        if (!slot->ok())
            return slot->error();
        layers.push_back(std::move(*slot).value());
    }
    return layers;
}

Result<ExecutionResult>
executeScheduleChecked(const DesignPoint &design,
                       const NetworkModel &network,
                       const NetworkSchedule &schedule,
                       const TimingFaults &faults,
                       ReliabilityGuard *guard, TraceSink *sink)
{
    ScopedSpan span("core", "execute_schedule");
    Result<std::vector<LayerSimResult>> layers = simulateLayersChecked(
        design, network, schedule, faults, guard, sink);
    if (!layers.ok())
        return layers.error();
    ExecutionResult result;
    for (const LayerSimResult &layer : layers.value()) {
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

} // namespace rana
