/**
 * @file
 * Experiment runner shared by the benchmark harnesses: evaluates a
 * design point on a network and returns the schedule, operation
 * counts and energy breakdown used in the paper's figures.
 */

#ifndef RANA_CORE_EXPERIMENTS_HH_
#define RANA_CORE_EXPERIMENTS_HH_

#include <string>
#include <vector>

#include "core/design_point.hh"
#include "edram/reliability_guard.hh"
#include "nn/network_model.hh"
#include "sched/layer_scheduler.hh"
#include "sim/loopnest_simulator.hh"
#include "sim/performance_model.hh"

namespace rana {

/** Result of evaluating one design on one network. */
struct DesignResult
{
    std::string designName;
    std::string networkName;
    NetworkSchedule schedule;
    /** Total Equation-14 operation counts. */
    OperationCounts counts;
    /** Total energy breakdown. */
    EnergyBreakdown energy;
    /** Total execution time in seconds. */
    double seconds = 0.0;
};

/**
 * Schedule and evaluate a design on a network; fails with the
 * scheduler's error when the design cannot run the network.
 */
Result<DesignResult> runDesignChecked(const DesignPoint &design,
                                      const NetworkModel &network);

/** Evaluate a design on several networks. */
std::vector<DesignResult>
runDesignSuite(const DesignPoint &design,
               const std::vector<NetworkModel> &networks);

/**
 * Execute a compiled schedule on the loop-nest trace simulator and
 * return the operation counts actually observed (including the
 * event-driven refresh controller's refresh ops), along with any
 * retention violations. Used to validate the analytic results and
 * by the execution phase of the RANA pipeline.
 */
struct ExecutionResult
{
    OperationCounts counts;
    EnergyBreakdown energy;
    double seconds = 0.0;
    std::uint64_t violations = 0;
    /** Reliability-guard trips (0 when no guard was attached). */
    std::uint64_t guardTrips = 0;
    /** Banks the guard re-enabled refresh for. */
    std::uint64_t guardBanksReenabled = 0;
    /** Refresh operations issued by the guard's watchdog fallback. */
    std::uint64_t guardFallbackRefreshOps = 0;
};

class TraceSink;

/**
 * Simulate every layer of a compiled schedule on the trace simulator
 * and return the per-layer results in layer order. This is the one
 * layer executor: executeScheduleChecked and the fault campaign's
 * simulateExposures both reduce its output.
 *
 * Each layer loads its own configuration (allocation, refresh flags,
 * gate) and so shares nothing with the layer before it but its start
 * time. A pre-pass chains LoopNestSimulator::layerEnd from 0 to find
 * every start, then each layer runs on its own simulator started at
 * that time, fanned across effectiveJobs(design.options) lanes. The
 * results are bit-identical to one simulator walking the layers in
 * order, for every lane count. A reliability guard or trace sink
 * (either may be nullptr) is shared state that sees every layer in
 * order, so attaching one runs the same per-layer path on one lane.
 *
 * Fails with Mismatch when the schedule does not describe `network`,
 * and with the first infeasible layer's InvalidArgument in layer
 * order; never aborts.
 */
Result<std::vector<LayerSimResult>>
simulateLayersChecked(const DesignPoint &design,
                      const NetworkModel &network,
                      const NetworkSchedule &schedule,
                      const TimingFaults &faults = TimingFaults{},
                      ReliabilityGuard *guard = nullptr,
                      TraceSink *sink = nullptr);

/**
 * Execute a compiled schedule: simulates it with
 * simulateLayersChecked (so `design.options.jobs` also sets the
 * width of the layer fan-out) and sums the layers in order. Fails
 * with Mismatch when the schedule does not describe `network`
 * (instead of aborting), runs the simulation under `faults`, and
 * optionally attaches the reliability guard and a trace sink (either
 * may be nullptr; either keeps the run on one lane). Guarded runs
 * convert retention overages into per-bank refresh fallbacks:
 * `violations` stays zero and the guard counters report the trips.
 * The sink receives every simulator event — the timeline exporter
 * hangs off this parameter.
 */
Result<ExecutionResult>
executeScheduleChecked(const DesignPoint &design,
                       const NetworkModel &network,
                       const NetworkSchedule &schedule,
                       const TimingFaults &faults = TimingFaults{},
                       ReliabilityGuard *guard = nullptr,
                       TraceSink *sink = nullptr);

} // namespace rana

#endif // RANA_CORE_EXPERIMENTS_HH_
