/**
 * @file
 * Trace-driven loop-nest simulator of the accelerator's memory
 * control part.
 *
 * The simulator walks the three memory-control loops of the chosen
 * dataflow tile by tile, advancing a cycle-derived clock, tallying
 * core/buffer/DRAM traffic from individual events, staging data with
 * the dataflow's natural residency, and driving the event-driven
 * eDRAM refresh controller (which counts refresh operations and
 * detects retention violations: reads of data that aged past the
 * tolerable retention time without a refresh). One walk serves all
 * six dataflows: stagings follow each type's reuse level, and
 * systolic dataflows additionally serialize the array-skew stall
 * into every tile and the core-pinned tile's preload into every
 * 1st-level pass (exact zeros for the paper's patterns).
 *
 * It is the operational counterpart of the closed-form
 * PatternAnalytics model, and an independent one: DRAM stagings are
 * summed from the loop indices (each staging's clamped channel
 * extent), not copied from the closed form. The test suite asserts
 * that both agree on runtime, traffic, lifetimes and refresh counts
 * across randomized layers, tilings and dataflows, and that
 * correctly scheduled designs never read stale data.
 */

#ifndef RANA_SIM_LOOPNEST_SIMULATOR_HH_
#define RANA_SIM_LOOPNEST_SIMULATOR_HH_

#include <array>
#include <cstdint>

#include "edram/refresh_controller.hh"
#include "edram/reliability_guard.hh"
#include "energy/energy_table.hh"
#include "nn/conv_layer_spec.hh"
#include "sim/accelerator_config.hh"
#include "sim/pattern_analytics.hh"
#include "sim/performance_model.hh"
#include "sim/trace_export.hh"
#include "util/result.hh"

namespace rana {

/** Results of simulating one layer. */
struct LayerSimResult
{
    /** Equation-14 operation counts (including refresh ops). */
    OperationCounts counts;
    /** Layer execution time in seconds. */
    double layerSeconds = 0.0;
    /** Achieved PE utilization. */
    double utilization = 0.0;
    /** Refresh operations issued during this layer. */
    std::uint64_t refreshOps = 0;
    /** Retention violations observed during this layer. */
    std::uint64_t violations = 0;
    /** Reliability-guard trips during this layer (guarded runs). */
    std::uint64_t guardTrips = 0;
    /**
     * Largest observed read age per data type (the measured data
     * lifetime), in seconds.
     */
    std::array<double, numDataTypes> observedLifetime = {0.0, 0.0, 0.0};
    /**
     * Time lost to systolic skew and preload stalls (0 for the
     * paper's patterns).
     */
    double stallSeconds = 0.0;
};

/**
 * Simulates a sequence of layers against one refresh controller.
 */
class LoopNestSimulator
{
  public:
    /**
     * @param config           accelerator hardware
     * @param policy           refresh policy of the buffer controller
     * @param interval_seconds programmed refresh interval (the
     *                         tolerable retention time)
     */
    LoopNestSimulator(const AcceleratorConfig &config,
                      RefreshPolicy policy, double interval_seconds);

    /**
     * Simulate one layer under a previously computed analysis (which
     * fixes the dataflow, tiling and buffer residency). Fails with
     * InvalidArgument when the analysis is infeasible instead of
     * aborting the process.
     */
    Result<LayerSimResult>
    runLayerChecked(const ConvLayerSpec &layer,
                    const LayerAnalysis &analysis);

    /**
     * Simulated time at which `layer` ends when it starts at `start`
     * under `analysis` and the injected timing faults: every scan
     * stall, tile and systolic preload of the walk, added in one
     * fixed float expression. runLayerChecked() ends its own layers
     * through this function, so chaining it from 0 reproduces the
     * start times of a walk over the earlier layers bit for bit.
     * Fails with InvalidArgument, as runLayerChecked() does, when the
     * analysis is infeasible.
     */
    Result<double> layerEnd(const ConvLayerSpec &layer,
                            const LayerAnalysis &analysis,
                            double start) const;

    /**
     * Set a fresh simulator's clock to `seconds` without issuing the
     * refresh pulses before it, so the next layer runs as if the
     * layers ending at `seconds` had been walked first (see
     * RefreshControllerSim::startAt).
     */
    void startAt(double seconds)
    {
        controller_.startAt(seconds);
        now_ = seconds;
    }

    /** Total refresh ops across all layers simulated so far. */
    std::uint64_t totalRefreshOps() const;

    /** Current simulated time in seconds. */
    double now() const { return now_; }

    /**
     * Attach a trace sink receiving every event of subsequent
     * layers (nullptr detaches). The sink is not owned.
     */
    void setTraceSink(TraceSink *sink) { trace_ = sink; }

    /**
     * Inject timing perturbations into subsequent layers. The
     * defaults are exact no-ops, so a default-constructed
     * TimingFaults reproduces the unperturbed timing bit for bit.
     */
    void setTimingFaults(const TimingFaults &faults)
    {
        faults_ = faults;
    }

    /**
     * Attach a reliability guard to the refresh controller (nullptr
     * detaches; not owned). Guarded runs convert retention overages
     * into per-bank refresh fallbacks instead of violations.
     */
    void attachGuard(ReliabilityGuard *guard)
    {
        guard_ = guard;
        controller_.attachGuard(guard);
    }

  private:
    /** Emit one event to the attached sink, if any. */
    void emit(TraceEventKind kind, double seconds, DataType type,
              std::uint64_t words, std::uint64_t tile_index);

    AcceleratorConfig config_;
    RefreshPolicy policy_;
    double interval_;
    RefreshControllerSim controller_;
    double now_ = 0.0;
    TraceSink *trace_ = nullptr;
    TimingFaults faults_;
    ReliabilityGuard *guard_ = nullptr;
};

} // namespace rana

#endif // RANA_SIM_LOOPNEST_SIMULATOR_HH_
