/**
 * @file
 * Scheduling data types: options, per-layer decisions and the
 * compiled layerwise configuration (Figure 13's output).
 */

#ifndef RANA_SCHED_SCHEDULE_TYPES_HH_
#define RANA_SCHED_SCHEDULE_TYPES_HH_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "edram/refresh_controller.hh"
#include "energy/energy_table.hh"
#include "sim/dataflow.hh"
#include "sim/pattern.hh"
#include "sim/pattern_analytics.hh"

namespace rana {

/** Inputs to the layer-based scheduling scheme. */
struct SchedulerOptions
{
    /** Dataflows explored per layer, in search order. */
    std::vector<DataflowKind> dataflows = hybridDataflows();
    /** Refresh policy of the target design's controller. */
    RefreshPolicy policy = RefreshPolicy::GatedGlobal;
    /**
     * Programmed refresh interval (the tolerable retention time) in
     * seconds.
     */
    double refreshIntervalSeconds = 45e-6;
    /**
     * Fixed tiling (DaDianNao-style architectures); when absent the
     * tiling space is explored.
     */
    std::optional<Tiling> fixedTiling;
    /**
     * Worker lanes of the shared thread pool. They serve the
     * design-space search (scheduleNetwork fans layers, scheduleLayer
     * fans (dataflow, tiling) candidates) and the trace simulation
     * of the compiled schedule (simulateLayersChecked fans layers,
     * each on its own simulator). 1 = serial on the calling thread;
     * 0 = one lane per hardware thread. Schedules and simulation
     * results are byte-identical for every value (items are reduced
     * in index order), so this only trades wall-clock time.
     */
    unsigned jobs = 1;
    /**
     * Memoize completed evaluations in the process-wide EvalCache so
     * repeated design points (sweeps, --verify rebuilds) skip
     * re-simulation. Never changes results: evaluation is a pure
     * function of the cache key.
     */
    bool memoize = true;
};

/** The lanes `options.jobs` asks for, with 0 ("auto") resolved. */
unsigned effectiveJobs(const SchedulerOptions &options);

/**
 * One layer's compiled configuration: the chosen dataflow and tiling,
 * the analysis behind the choice, its Equation-14 operation counts
 * and energy, and the eDRAM refresh flags for the execution phase.
 */
struct LayerSchedule
{
    std::string layerName;
    LayerAnalysis analysis;
    OperationCounts counts;
    EnergyBreakdown energy;
    /** Per-datatype bank refresh flags (Section IV-D2). */
    std::array<bool, numDataTypes> refreshFlags = {false, false, false};
    /** Whether the gated-global controller refreshes this layer. */
    bool gateOn = false;

    /** Chosen dataflow. */
    DataflowKind dataflow() const { return analysis.dataflow; }
    /** Chosen tiling. */
    const Tiling &tiling() const { return analysis.tiling; }
};

/** A whole network's schedule: the hybrid dataflow mix. */
struct NetworkSchedule
{
    std::string networkName;
    /** Refresh interval the schedule was compiled for. */
    double refreshIntervalSeconds = 0.0;
    RefreshPolicy policy = RefreshPolicy::GatedGlobal;
    std::vector<LayerSchedule> layers;

    /** Sum of per-layer operation counts. */
    OperationCounts totalCounts() const;
    /** Sum of per-layer energies. */
    EnergyBreakdown totalEnergy() const;
    /** Total execution time in seconds. */
    double totalSeconds() const;
    /** Number of layers scheduled with the given dataflow. */
    std::size_t dataflowCount(DataflowKind dataflow) const;
};

} // namespace rana

#endif // RANA_SCHED_SCHEDULE_TYPES_HH_
