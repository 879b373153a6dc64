/**
 * @file
 * RANA's layer-based scheduling scheme (Section IV-C3, Figure 13).
 *
 * For each layer, the scheduler explores the configured dataflows
 * (the paper's computation patterns and systolic variants — see
 * sim/dataflow.hh) and tiling parameters, estimates total system
 * energy with the Equation-14 model under the design's refresh
 * policy and interval, and picks the minimum-energy configuration.
 * Applied to a whole network this yields the hybrid computation
 * pattern and the layerwise configurations (dataflow, tiling,
 * refresh flags) loaded
 * by the accelerator in the execution phase.
 *
 * The search is the dominant wall-clock cost of compilation, and
 * every candidate evaluation is independent, so the entry points fan
 * work across the shared thread pool when SchedulerOptions::jobs > 1
 * (layers in scheduleNetwork, candidates in scheduleLayer) and
 * reduce the indexed results serially — the parallel schedule is
 * byte-identical to the serial one. Completed evaluations are
 * memoized in the process-wide EvalCache (SchedulerOptions::memoize)
 * so repeated design points skip re-simulation.
 *
 * Failure contract: these functions return Result<T> and never
 * terminate the process on infeasible or invalid input, so they are
 * safe to call from a long-running service. Tools, benches and tests
 * that treat a failure as fatal call valueOrDie() on the result.
 */

#ifndef RANA_SCHED_LAYER_SCHEDULER_HH_
#define RANA_SCHED_LAYER_SCHEDULER_HH_

#include "nn/network_model.hh"
#include "sched/schedule_types.hh"
#include "sim/accelerator_config.hh"
#include "util/result.hh"

namespace rana {

/**
 * Schedule one layer: minimum-energy dataflow and tiling under the
 * options. Fails with ErrorCode::Infeasible when no feasible
 * configuration exists on the hardware, and with
 * ErrorCode::InvalidArgument when the options are self-contradictory
 * (e.g. an empty dataflow list).
 */
Result<LayerSchedule> scheduleLayer(const AcceleratorConfig &config,
                                    const ConvLayerSpec &layer,
                                    const SchedulerOptions &options);

/**
 * Evaluate one explicit (dataflow, tiling) choice for a layer,
 * producing the same record the scheduler would; useful for
 * baselines, ablations and schedule rebuilds. Fails with
 * ErrorCode::Infeasible when the choice does not fit the hardware.
 *
 * @param promote_inputs WD only: pin the whole input set in spare
 *        buffer capacity (see LayerAnalysis::inputsPromoted).
 */
Result<LayerSchedule> evaluateLayerChoice(
    const AcceleratorConfig &config, const ConvLayerSpec &layer,
    DataflowKind dataflow, const Tiling &tiling,
    const SchedulerOptions &options, bool promote_inputs = false);

/**
 * Schedule every layer of a network (the hybrid pattern). Fails with
 * the first failing layer's error.
 */
Result<NetworkSchedule> scheduleNetwork(const AcceleratorConfig &config,
                                        const NetworkModel &network,
                                        const SchedulerOptions &options);

} // namespace rana

#endif // RANA_SCHED_LAYER_SCHEDULER_HH_
