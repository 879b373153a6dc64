/**
 * @file
 * Implementation of schedule aggregation helpers.
 */

#include "sched/schedule_types.hh"

#include "util/thread_pool.hh"

namespace rana {

unsigned
effectiveJobs(const SchedulerOptions &options)
{
    return options.jobs == 0 ? hardwareJobs() : options.jobs;
}

OperationCounts
NetworkSchedule::totalCounts() const
{
    OperationCounts total;
    for (const auto &layer : layers)
        total += layer.counts;
    return total;
}

EnergyBreakdown
NetworkSchedule::totalEnergy() const
{
    EnergyBreakdown total;
    for (const auto &layer : layers)
        total += layer.energy;
    return total;
}

double
NetworkSchedule::totalSeconds() const
{
    double total = 0.0;
    for (const auto &layer : layers)
        total += layer.analysis.layerSeconds;
    return total;
}

std::size_t
NetworkSchedule::dataflowCount(DataflowKind dataflow) const
{
    std::size_t count = 0;
    for (const auto &layer : layers) {
        if (layer.analysis.dataflow == dataflow)
            ++count;
    }
    return count;
}

} // namespace rana
