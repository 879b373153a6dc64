/**
 * @file
 * Serialization of the compiled layerwise configurations.
 *
 * The RANA compilation phase produces, per layer, the dataflow,
 * tiling, input-promotion flag and eDRAM refresh flags, plus the
 * network-wide refresh interval (Figure 6's "layerwise
 * configurations"). This module writes and parses that artifact as
 * a line-oriented text format so a schedule can be compiled once and
 * shipped to the accelerator's runtime:
 *
 *   rana-config v2
 *   network <name>
 *   interval_us <float>
 *   policy <none|conventional|gated-global|per-bank>
 *   layer <name> <ID|OD|WD|sys-ws|sys-is|sys-os> <tm> <tn> <tr> \
 *         <tc> <promote:0|1> <flags:3x0|1> <gate:0|1>
 *   end
 *
 * Version history: v1 predates the dataflow axis and carries a bare
 * computation pattern (ID|OD|WD) per layer. The reader still accepts
 * v1 and parses each pattern as a dataflow name — the paper's
 * dataflow names are the pattern names, so a v1 artifact differs
 * from its v2 rewrite only in the header line. The writer always
 * emits v2.
 */

#ifndef RANA_SCHED_CONFIG_IO_HH_
#define RANA_SCHED_CONFIG_IO_HH_

#include <iosfwd>
#include <string>

#include "nn/network_model.hh"
#include "sched/schedule_types.hh"
#include "sim/accelerator_config.hh"
#include "util/result.hh"

namespace rana {

/** Compact, rebuildable description of one layer's configuration. */
struct LayerConfigRecord
{
    std::string layerName;
    DataflowKind dataflow = DataflowKind::OD;
    Tiling tiling;
    bool promoteInputs = false;
    std::array<bool, numDataTypes> refreshFlags = {false, false,
                                                   false};
    bool gateOn = false;

    bool operator==(const LayerConfigRecord &other) const = default;
};

/** A whole network's serialized configuration. */
struct NetworkConfigRecord
{
    std::string networkName;
    double refreshIntervalSeconds = 0.0;
    RefreshPolicy policy = RefreshPolicy::GatedGlobal;
    std::vector<LayerConfigRecord> layers;

    bool operator==(const NetworkConfigRecord &other) const = default;
};

/** Extract the serializable record from a compiled schedule. */
NetworkConfigRecord toConfigRecord(const NetworkSchedule &schedule);

/** Write a record in the text format. */
void writeConfig(std::ostream &os, const NetworkConfigRecord &record);

/** Write to a string. */
std::string writeConfigString(const NetworkConfigRecord &record);

/**
 * Parse the text format. Fails with ErrorCode::ParseError naming the
 * offending line on malformed input, so services can reject one bad
 * artifact without losing the process.
 */
Result<NetworkConfigRecord> readConfigChecked(std::istream &is);

/** Parse from a string. */
Result<NetworkConfigRecord>
readConfigStringChecked(const std::string &text);

/**
 * Rebuild a full NetworkSchedule from a record by re-analyzing each
 * layer of `network` on `config` (the analysis is deterministic
 * given dataflow/tiling/promotion, so the rebuilt schedule matches
 * the original). Fails with ErrorCode::Mismatch when the record does
 * not describe the network, ErrorCode::Infeasible when a recorded
 * choice does not fit the hardware.
 */
Result<NetworkSchedule>
rebuildScheduleChecked(const AcceleratorConfig &config,
                       const NetworkModel &network,
                       const NetworkConfigRecord &record);

} // namespace rana

#endif // RANA_SCHED_CONFIG_IO_HH_
