/**
 * @file
 * Dataflow specifications: the loop-order axis the scheduler searches.
 *
 * A DataflowSpec fixes the ordering of the three memory-control
 * loops and, derived from it, each data type's residency class,
 * reuse level and buffer lifetime. The paper's ID/OD/WD computation
 * patterns are three of the six loop-order permutations; the other
 * three are the systolic weight-/input-/output-stationary dataflows
 * (the CADOSys family), which run the same core tile on a skewed
 * systolic schedule:
 *
 *   | Dataflow | Loop order (outer..inner) | Core-pinned tile | Style    |
 *   |----------|---------------------------|------------------|----------|
 *   | ID       | M, RC, N                  | outputs          | paper    |
 *   | OD       | N, M, RC                  | weights          | paper    |
 *   | WD       | RC, M, N                  | outputs          | paper    |
 *   | sys-ws   | M, N, RC                  | weights          | systolic |
 *   | sys-is   | RC, N, M                  | inputs           | systolic |
 *   | sys-os   | N, RC, M                  | inputs           | systolic |
 *
 * Residency semantics: each data type has exactly one loop axis it
 * does not depend on (inputs: Loop M, weights: Loop RC, outputs:
 * Loop N). The position p of that axis in the loop order is the
 * type's *reuse level*; it determines the natural buffer working
 * set (Whole for p=0, a Slab for p=1, one Tile for p=2) and the
 * buffer lifetime (the time of one pass of the loop level the data
 * is reused across). Reordering loops therefore moves refresh
 * exposure between data types without touching the core computing
 * part: e.g. sys-is pins only one input tile (lifetime T1) where WD
 * holds an N-deep input slab for a whole 2nd-level pass (T2).
 *
 * All six kinds are priced by one engine (sim/pattern_analytics.hh)
 * and walked by one simulator (sim/loopnest_simulator.hh). The spec
 * carries no per-kind pricing flags: everything but the systolic
 * stall terms follows from the reuse levels. WD input promotion is
 * a per-evaluation choice, not a spec property: the engine prices it
 * as inputs at reuse level 0 (see LayerAnalysis::reuseLevels()).
 *
 * Systolic dataflows additionally model the array skew (fill/drain
 * of the peRows x peCols wavefront per tile) and the preload of the
 * core-pinned tile per 1st-level pass; both are exact zeros for the
 * paper's patterns.
 */

#ifndef RANA_SIM_DATAFLOW_HH_
#define RANA_SIM_DATAFLOW_HH_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "edram/buffer_system.hh"
#include "sim/pattern.hh"
#include "util/result.hh"

namespace rana {

/** The six dataflows: the paper's three patterns, three systolic. */
enum class DataflowKind : std::uint8_t {
    ID,
    OD,
    WD,
    SystolicWS,
    SystolicIS,
    SystolicOS,
};

/** Number of dataflow kinds. */
constexpr std::size_t numDataflowKinds = 6;

/** Natural buffer residency class of one data type. */
enum class Residency : std::uint8_t {
    /** The type's whole layer set stays buffer-resident. */
    Whole,
    /** A slab (one outer iteration's working set) stays resident. */
    Slab,
    /** Only the current tile is staged (double-buffered). */
    Tile,
};

/**
 * A fully specified dataflow: loop order plus the per-type residency
 * and reuse structure the order implies.
 */
struct DataflowSpec
{
    DataflowKind kind = DataflowKind::ID;
    /** Canonical name: "ID", "OD", "WD", "sys-ws/is/os". */
    const char *name = "ID";
    /** Loop order from outermost (index 0) to innermost (index 2). */
    std::array<LoopAxis, 3> order = {LoopAxis::M, LoopAxis::RC,
                                     LoopAxis::N};
    /** Whether the core runs a skewed systolic schedule. */
    bool systolic = false;
    /**
     * Reuse level p per data type: the position (0 = outermost) of
     * the one loop axis the type does not depend on. Lifetime and
     * natural storage derive from it (see file comment).
     */
    std::array<int, numDataTypes> reuseLevel = {0, 2, 1};
    /** Natural residency class per data type, derived from p. */
    std::array<Residency, numDataTypes> residency = {
        Residency::Whole, Residency::Tile, Residency::Slab};

    /** Position (0 = outermost) of a loop axis in the order. */
    int positionOf(LoopAxis axis) const
    {
        return order[0] == axis ? 0 : (order[1] == axis ? 1 : 2);
    }
    /** Reuse level of one data type. */
    int reuseOf(DataType type) const
    {
        return reuseLevel[static_cast<std::size_t>(type)];
    }
    /** Residency class of one data type. */
    Residency residencyOf(DataType type) const
    {
        return residency[static_cast<std::size_t>(type)];
    }
    /**
     * The data type of reuse level 2, whose tile stays pinned in the
     * core across the innermost loop. When it is an input or weight
     * (OD, sys-*), that tile is staged once per 1st-level pass and
     * the systolic array preloads it; when it is the output (ID, WD),
     * the partial sums accumulate in the core and both operands
     * stream every tile.
     */
    DataType arrayTile() const
    {
        for (std::size_t i = 0; i < numDataTypes; ++i) {
            if (reuseLevel[i] == 2)
                return static_cast<DataType>(i);
        }
        return DataType::Output;
    }
    /**
     * Whether outputs accumulate across the outermost loop (reuse
     * level 0): partial sums live a whole 2nd-level pass and the
     * final results finish spread over the last outer pass (OD and
     * sys-os).
     */
    bool outputsAccumulateAcrossOuter() const
    {
        return reuseOf(DataType::Output) == 0;
    }
};

/** The immutable spec of a dataflow kind. */
const DataflowSpec &dataflowSpec(DataflowKind kind);

/** Canonical name ("ID", "OD", "WD", "sys-ws", "sys-is", "sys-os"). */
const char *dataflowName(DataflowKind kind);

/**
 * Parse a canonical dataflow name. The paper's pattern names are
 * accepted both uppercase ("OD", the config-file spelling) and
 * lowercase ("od", the CLI spelling).
 */
Result<DataflowKind> parseDataflowName(const std::string &token);

/** All six dataflow kinds, the paper's patterns first. */
const std::array<DataflowKind, numDataflowKinds> &allDataflows();

/** The paper's three patterns (ID, OD, WD). */
std::vector<DataflowKind> legacyDataflows();

/** The paper's hybrid pattern (OD, WD), the default search axis. */
std::vector<DataflowKind> hybridDataflows();

} // namespace rana

#endif // RANA_SIM_DATAFLOW_HH_
