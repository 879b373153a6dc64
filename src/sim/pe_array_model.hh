/**
 * @file
 * Timing model of the PE array's core computing part.
 *
 * The core computes one tile (Tm output channels, Tr x Tc output
 * positions, reduced over Tn input channels and the K x K window)
 * per inner iteration. The array processes peRows output channels in
 * parallel; its columns cover either spatial positions (test
 * accelerator) or input channels (DaDianNao). Cycles per tile are
 * the serialized row/column group passes divided by the pipeline
 * efficiency eta.
 *
 * RANA never changes the core computing part, so the tile time is
 * identical for the ID, OD and WD patterns and performance is
 * preserved across design points (Section IV-A).
 */

#ifndef RANA_SIM_PE_ARRAY_MODEL_HH_
#define RANA_SIM_PE_ARRAY_MODEL_HH_

#include <cstdint>

#include "nn/conv_layer_spec.hh"
#include "sim/accelerator_config.hh"
#include "sim/dataflow.hh"
#include "sim/pattern.hh"

namespace rana {

/** Timing of one inner tile on the PE array. */
struct TileTiming
{
    /** Cycles to compute one full tile (including pipeline bubbles). */
    double cycles = 0.0;
    /** Seconds to compute one full tile. */
    double seconds = 0.0;
    /** Useful MACs in a full tile. */
    std::uint64_t macs = 0;
};

/**
 * Compute the per-tile timing for a layer under a (clamped) tiling.
 */
TileTiming tileTiming(const AcceleratorConfig &config,
                      const ConvLayerSpec &layer, const Tiling &tiling);

/**
 * Total layer execution time in seconds: all tiles of all memory
 * control loops (ceil trip counts; edge tiles cost a full tile).
 */
double layerSeconds(const AcceleratorConfig &config,
                    const ConvLayerSpec &layer, const Tiling &tiling);

/**
 * Achieved PE utilization: useful MACs per cycle over peak,
 * including pipeline efficiency and tile-mapping losses.
 */
double layerUtilization(const AcceleratorConfig &config,
                        const ConvLayerSpec &layer,
                        const Tiling &tiling);

/**
 * Timing of one tile under a systolic dataflow's skewed schedule.
 *
 * The paper's patterns keep the dense tile time (RANA never changes
 * the core computing part). A systolic dataflow adds two stall
 * terms on top of the same MAC work:
 *
 *  - the array skew: the peRows x peCols wavefront fills and drains
 *    once per tile, costing (peRows + peCols - 2) extra cycles;
 *  - the stationary-tile preload: the core-pinned operand's tile
 *    (DataflowSpec::arrayTile()) is written into the PE registers
 *    once per 1st-level pass, one word per column lane per cycle.
 *    Double-buffered staging hides the DRAM fetch, not the
 *    register-file preload.
 */
struct SystolicTiming
{
    /** Per-tile timing with the skew stall folded in. */
    TileTiming tile;
    /** Skew stall cycles added to every tile (0 for ID/OD/WD). */
    double skewCycles = 0.0;
    /** Preload cycles paid once per 1st-level pass (0 for ID/OD/WD). */
    double preloadCycles = 0.0;
    /** Preload time per 1st-level pass in seconds. */
    double preloadSeconds = 0.0;
};

/**
 * Per-tile timing under a dataflow. Non-systolic specs return
 * tileTiming() unchanged; systolic specs fold in the skew and
 * preload stalls.
 */
SystolicTiming dataflowTileTiming(const AcceleratorConfig &config,
                                  const ConvLayerSpec &layer,
                                  const Tiling &tiling,
                                  const DataflowSpec &spec);

} // namespace rana

#endif // RANA_SIM_PE_ARRAY_MODEL_HH_
