/**
 * @file
 * The six dataflow specifications and their name/parse helpers.
 */

#include "sim/dataflow.hh"

#include "util/logging.hh"

namespace rana {

namespace {

/** The loop axis a data type does not depend on. */
LoopAxis
freeAxis(DataType type)
{
    switch (type) {
      case DataType::Input:
        return LoopAxis::M;
      case DataType::Output:
        return LoopAxis::N;
      case DataType::Weight:
        return LoopAxis::RC;
    }
    RANA_ASSERT(false, "bad data type");
    return LoopAxis::M;
}

/** Residency class implied by a reuse level. */
Residency
residencyOfLevel(int level)
{
    switch (level) {
      case 0:
        return Residency::Whole;
      case 1:
        return Residency::Slab;
      default:
        return Residency::Tile;
    }
}

/** Build one spec; reuse levels and residency derive from the order. */
DataflowSpec
makeSpec(DataflowKind kind, const char *name,
         std::array<LoopAxis, 3> order, bool systolic)
{
    DataflowSpec spec;
    spec.kind = kind;
    spec.name = name;
    spec.order = order;
    spec.systolic = systolic;
    for (std::size_t i = 0; i < numDataTypes; ++i) {
        const auto type = static_cast<DataType>(i);
        const int level = spec.positionOf(freeAxis(type));
        spec.reuseLevel[i] = level;
        // Outputs at reuse level 2 complete inside the core: their
        // natural residency is one tile, like any level-2 operand.
        spec.residency[i] = residencyOfLevel(level);
    }
    return spec;
}

/** The six specs, indexed by DataflowKind. */
const std::array<DataflowSpec, numDataflowKinds> &
specTable()
{
    static const std::array<DataflowSpec, numDataflowKinds> table = {
        makeSpec(DataflowKind::ID, "ID",
                 {LoopAxis::M, LoopAxis::RC, LoopAxis::N}, false),
        makeSpec(DataflowKind::OD, "OD",
                 {LoopAxis::N, LoopAxis::M, LoopAxis::RC}, false),
        makeSpec(DataflowKind::WD, "WD",
                 {LoopAxis::RC, LoopAxis::M, LoopAxis::N}, false),
        makeSpec(DataflowKind::SystolicWS, "sys-ws",
                 {LoopAxis::M, LoopAxis::N, LoopAxis::RC}, true),
        makeSpec(DataflowKind::SystolicIS, "sys-is",
                 {LoopAxis::RC, LoopAxis::N, LoopAxis::M}, true),
        makeSpec(DataflowKind::SystolicOS, "sys-os",
                 {LoopAxis::N, LoopAxis::RC, LoopAxis::M}, true),
    };
    return table;
}

} // namespace

const DataflowSpec &
dataflowSpec(DataflowKind kind)
{
    const auto index = static_cast<std::size_t>(kind);
    RANA_ASSERT(index < numDataflowKinds, "bad dataflow kind");
    return specTable()[index];
}

const char *
dataflowName(DataflowKind kind)
{
    return dataflowSpec(kind).name;
}

Result<DataflowKind>
parseDataflowName(const std::string &token)
{
    for (DataflowKind kind : allDataflows()) {
        if (token == dataflowName(kind))
            return kind;
    }
    if (token == "id")
        return DataflowKind::ID;
    if (token == "od")
        return DataflowKind::OD;
    if (token == "wd")
        return DataflowKind::WD;
    return makeError(ErrorCode::ParseError, "unknown dataflow '",
                     token,
                     "' (expected ID, OD, WD, sys-ws, sys-is or "
                     "sys-os)");
}

const std::array<DataflowKind, numDataflowKinds> &
allDataflows()
{
    static const std::array<DataflowKind, numDataflowKinds> kinds = {
        DataflowKind::ID,         DataflowKind::OD,
        DataflowKind::WD,         DataflowKind::SystolicWS,
        DataflowKind::SystolicIS, DataflowKind::SystolicOS,
    };
    return kinds;
}

std::vector<DataflowKind>
legacyDataflows()
{
    return {DataflowKind::ID, DataflowKind::OD, DataflowKind::WD};
}

std::vector<DataflowKind>
hybridDataflows()
{
    return {DataflowKind::OD, DataflowKind::WD};
}

} // namespace rana
