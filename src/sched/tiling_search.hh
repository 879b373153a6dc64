/**
 * @file
 * Tiling-parameter candidate generation for the scheduling scheme's
 * exploration (Figure 13).
 *
 * The exploration space covers <Tm, Tn, Tr, Tc> under the core's
 * local storage constraints:
 *
 *   Tn * Th * Tl <= Ri,  Tm * Tr * Tc <= Ro,  Tm * Tn * K^2 <= Rw.
 *
 * Tm is capped at the PE array's row count (more would only serialize
 * row groups with the same buffer behaviour), Tn at the layer's
 * channel count, and Tr/Tc follow the divisors and powers of two of
 * the output size so edge tiles stay rare.
 */

#ifndef RANA_SCHED_TILING_SEARCH_HH_
#define RANA_SCHED_TILING_SEARCH_HH_

#include <cstdint>
#include <vector>

#include "nn/conv_layer_spec.hh"
#include "sched/schedule_types.hh"
#include "sim/accelerator_config.hh"
#include "sim/dataflow.hh"
#include "sim/pattern.hh"

namespace rana {

/**
 * One point of the per-layer design space: a dataflow, a tiling, and
 * (WD only) the input-promotion variant.
 */
struct DataflowChoice
{
    DataflowKind dataflow = DataflowKind::ID;
    Tiling tiling;
    bool promoteInputs = false;
};

/**
 * Candidate values for one loop dimension: divisors of `extent`
 * merged with powers of two, clamped to [1, min(extent, cap)].
 */
std::vector<std::uint32_t> dimensionCandidates(std::uint32_t extent,
                                               std::uint32_t cap);

/**
 * All tiling candidates for a layer on the given hardware that pass
 * the core local-storage constraints. Pattern-independent (the
 * constraints do not depend on the loop order).
 */
std::vector<Tiling> tilingCandidates(const AcceleratorConfig &config,
                                     const ConvLayerSpec &layer);

/**
 * The full per-layer search space — the dataflow x tiling product —
 * in the order the serial scheduler visits it: dataflows outer
 * (options.dataflows order), tilings inner, the WD
 * input-promotion variant directly after its unpromoted twin. The
 * scheduler's reduction tie-breaks on this index, which is what
 * keeps the parallel result byte-identical to the serial one.
 */
std::vector<DataflowChoice>
dataflowChoices(const AcceleratorConfig &config,
                const ConvLayerSpec &layer,
                const SchedulerOptions &options);

} // namespace rana

#endif // RANA_SCHED_TILING_SEARCH_HH_
