/**
 * @file
 * Closed-form buffer-storage / lifetime / memory-traffic analysis of
 * a CONV layer under a dataflow and tiling (Sections III-B and
 * IV-C): the one pricing engine for all six dataflows.
 *
 * Every quantity derives from the dataflow's loop order (L3 outer,
 * L2, L1 inner around the core tile) through each data type's reuse
 * level p, the position of the one loop axis the type does not
 * depend on (sim/dataflow.hh):
 *
 *  - natural buffer storage (the paper's Equations 1-3 for ID, 6-8
 *    for OD, 11-13 for WD): tile extent along dependence axes
 *    ordered outside p, full extent along the others;
 *  - data lifetime (Equations 4-5, 9-10): inputs and weights age
 *    across the whole reuse scan (T3/T2/T1 for p=0/1/2); partial
 *    sums age one visit pitch;
 *  - core traffic: the core-pinned input or weight tile (reuse level
 *    2: OD weights, the systolic array tile) loads once per
 *    1st-level pass, every other operand tile once per inner tile;
 *  - off-chip (DDR) reads, by one staging rule: the channel words
 *    that exist (ragged M/N edge tiles are clamped, not padded).
 *    Inputs read N x Nrc x Th x Tl words when Loop RC is ordered
 *    outside their reuse level (a full halo patch per RC tile, the
 *    paper's WD form) and N x H x L otherwise; weights read
 *    M x N x K^2 words once.
 *
 * WD input promotion is priced as inputs at reuse level 0 (Whole):
 * the whole input set is pinned, read once and lives the whole
 * layer. It is the only per-evaluation override of the spec.
 *
 * Systolic dataflows add the array skew to every tile and the
 * core-pinned tile's preload to every 1st-level pass
 * (dataflowTileTiming()); both terms are exact zeros for ID/OD/WD,
 * so those evaluate bit-identically to the paper's closed forms.
 *
 * When the natural storage requirements exceed the buffer capacity,
 * residency degrades: the overflowing type keeps a resident fraction
 * phi of its natural set pinned in the buffer and streams the rest
 * from off-chip on every reuse scan, linearly interpolating between
 * the fully-resident and fully-streamed traffic. OD's outputs spill
 * partial sums (read + write per Loop N pass), which is exactly the
 * cost the WD pattern avoids on shallow layers (Section IV-C2).
 *
 * Every entry point in this header is a pure function of its
 * const-ref arguments — no global or thread-local state — so the
 * scheduler's thread pool may evaluate candidates concurrently and
 * re-entrantly.
 */

#ifndef RANA_SIM_PATTERN_ANALYTICS_HH_
#define RANA_SIM_PATTERN_ANALYTICS_HH_

#include <array>
#include <cstdint>
#include <string>

#include "edram/buffer_system.hh"
#include "edram/refresh_controller.hh"
#include "energy/energy_table.hh"
#include "nn/conv_layer_spec.hh"
#include "sim/accelerator_config.hh"
#include "sim/dataflow.hh"
#include "sim/pattern.hh"

namespace rana {

/** Per-data-type results of the layer analysis. */
struct TypeAnalysis
{
    /** Natural buffer storage requirement (paper equations), words. */
    std::uint64_t naturalStorageWords = 0;
    /** Allocated buffer storage after the residency solve, words. */
    std::uint64_t storageWords = 0;
    /** Resident fraction phi of the natural set (1 = no spill). */
    double residentFraction = 1.0;
    /** Buffer data lifetime in seconds. */
    double lifetimeSeconds = 0.0;
    /** Off-chip words read for this type. */
    double dramReadWords = 0.0;
    /** Off-chip words written for this type. */
    double dramWriteWords = 0.0;
    /** Buffer-to-core words loaded. */
    double coreLoadWords = 0.0;
    /** Core-to-buffer words stored. */
    double coreStoreWords = 0.0;
};

/** Stall/utilization/bandwidth statistics of a systolic dataflow. */
struct SystolicStats
{
    /** Total stall time (skew + preload) within the layer, seconds. */
    double stallSeconds = 0.0;
    /** Skew stall cycles added to every tile. */
    double skewCyclesPerTile = 0.0;
    /** Stationary-tile preload cycles per 1st-level pass. */
    double preloadCyclesPerPass = 0.0;
    /** Stall-free utilization: what the dense schedule would reach. */
    double denseUtilization = 0.0;
    /** Average off-chip bandwidth per data type, words/second. */
    std::array<double, numDataTypes> dramBandwidth = {0.0, 0.0, 0.0};
};

/** Full analysis of one layer under one dataflow and tiling. */
struct LayerAnalysis
{
    /** The analyzed dataflow. */
    DataflowKind dataflow = DataflowKind::ID;
    Tiling tiling;

    /** Whether the configuration fits the hardware at all. */
    bool feasible = false;
    /** Reason when infeasible. */
    std::string infeasibleReason;

    /** Layer execution time in seconds. */
    double layerSeconds = 0.0;
    /** Achieved PE utilization. */
    double utilization = 0.0;
    /** Execution time of one pass of loop level 1/2/3 (T1,T2,T3). */
    std::array<double, 3> levelSeconds = {0.0, 0.0, 0.0};

    /** Per-type results, indexed by DataType. */
    std::array<TypeAnalysis, numDataTypes> types;

    /** Access to a type's results. */
    const TypeAnalysis &of(DataType type) const;
    TypeAnalysis &of(DataType type);

    /** Total off-chip traffic in words (reads + writes). */
    double totalDramWords() const;
    /** Whether any type had to spill (phi < 1). */
    bool spilled() const;

    /**
     * Whether the inputs were promoted to full residency (WD only):
     * the whole input set is pinned in spare buffer capacity so the
     * per-RC-tile halo re-reads come from on-chip instead of DRAM,
     * at the cost of a whole-layer input lifetime.
     */
    bool inputsPromoted = false;

    /** Systolic stall/bandwidth statistics (zeros for ID/OD/WD). */
    SystolicStats systolic;

    /** The dataflow's immutable specification. */
    const DataflowSpec &spec() const { return dataflowSpec(dataflow); }

    /**
     * Reuse level per data type in this evaluation: the spec's,
     * except that promoted inputs sit at level 0 (Whole).
     */
    std::array<int, numDataTypes> reuseLevels() const;

    /** Lifetimes as an array for refresh-demand assembly. */
    std::array<double, numDataTypes> lifetimes() const;
};

/**
 * Analyze a layer under a dataflow and tiling on the given hardware.
 *
 * The result is marked infeasible when the tile exceeds the core's
 * local storage (Tn*Th*Tl <= Ri, Tm*Tr*Tc <= Ro, Tm*Tn*K^2 <= Rw) or
 * the minimum streamed working set exceeds the buffer.
 *
 * @param promote_inputs WD only: pin the whole input set in spare
 *        buffer capacity (see LayerAnalysis::inputsPromoted). The
 *        variant is infeasible when the promoted set does not fit.
 *        The other dataflows ignore the request.
 */
LayerAnalysis analyzeLayer(const AcceleratorConfig &config,
                           const ConvLayerSpec &layer,
                           const DataflowSpec &spec,
                           const Tiling &tiling,
                           bool promote_inputs = false);

/**
 * Bank allocation for an analyzed layer (bank-granular); the
 * residency solve guarantees it fits.
 */
BankAllocation analysisBankAllocation(const AcceleratorConfig &config,
                                      const LayerAnalysis &analysis);

/** Refresh demand record for the analyzed layer. */
LayerRefreshDemand refreshDemand(const AcceleratorConfig &config,
                                 const LayerAnalysis &analysis);

/**
 * Assemble Equation-14 operation counts for the analyzed layer,
 * including refresh operations under the given policy and interval.
 *
 * Buffer accesses count: core loads and stores, OD partial-sum
 * reloads, buffer fills from DRAM and drains to DRAM.
 */
OperationCounts layerOperationCounts(const AcceleratorConfig &config,
                                     const ConvLayerSpec &layer,
                                     const LayerAnalysis &analysis,
                                     RefreshPolicy policy,
                                     double refresh_interval_seconds);

} // namespace rana

#endif // RANA_SIM_PATTERN_ANALYTICS_HH_
