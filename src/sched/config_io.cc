/**
 * @file
 * Implementation of layerwise-configuration serialization.
 */

#include "sched/config_io.hh"

#include <sstream>

#include "nn/network_model.hh"
#include "sched/layer_scheduler.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace rana {

namespace {

Result<RefreshPolicy>
parsePolicy(const std::string &token, const std::string &line)
{
    if (token == "none")
        return RefreshPolicy::None;
    if (token == "conventional")
        return RefreshPolicy::ConventionalAll;
    if (token == "gated-global")
        return RefreshPolicy::GatedGlobal;
    if (token == "per-bank")
        return RefreshPolicy::PerBank;
    return makeError(ErrorCode::ParseError, "bad refresh policy '",
                     token, "' in config line: ", line);
}

Result<bool>
parseBit(const std::string &token, const std::string &line)
{
    if (token == "0")
        return false;
    if (token == "1")
        return true;
    return makeError(ErrorCode::ParseError, "bad flag '", token,
                     "' in config line: ", line);
}

} // namespace

NetworkConfigRecord
toConfigRecord(const NetworkSchedule &schedule)
{
    NetworkConfigRecord record;
    record.networkName = schedule.networkName;
    record.refreshIntervalSeconds = schedule.refreshIntervalSeconds;
    record.policy = schedule.policy;
    record.layers.reserve(schedule.layers.size());
    for (const LayerSchedule &layer : schedule.layers) {
        LayerConfigRecord entry;
        entry.layerName = layer.layerName;
        entry.dataflow = layer.dataflow();
        entry.tiling = layer.tiling();
        entry.promoteInputs = layer.analysis.inputsPromoted;
        entry.refreshFlags = layer.refreshFlags;
        entry.gateOn = layer.gateOn;
        record.layers.push_back(std::move(entry));
    }
    return record;
}

void
writeConfig(std::ostream &os, const NetworkConfigRecord &record)
{
    os << "rana-config v2\n";
    os << "network " << record.networkName << "\n";
    os << "interval_us "
       << record.refreshIntervalSeconds / microSecond << "\n";
    os << "policy " << refreshPolicyName(record.policy) << "\n";
    for (const LayerConfigRecord &layer : record.layers) {
        os << "layer " << layer.layerName << " "
           << dataflowName(layer.dataflow) << " " << layer.tiling.tm
           << " " << layer.tiling.tn << " " << layer.tiling.tr << " "
           << layer.tiling.tc << " " << (layer.promoteInputs ? 1 : 0)
           << " ";
        for (bool flag : layer.refreshFlags)
            os << (flag ? '1' : '0');
        os << " " << (layer.gateOn ? 1 : 0) << "\n";
    }
    os << "end\n";
}

std::string
writeConfigString(const NetworkConfigRecord &record)
{
    std::ostringstream oss;
    writeConfig(oss, record);
    return oss.str();
}

Result<NetworkConfigRecord>
readConfigChecked(std::istream &is)
{
    NetworkConfigRecord record;
    std::string line;
    bool saw_header = false;
    bool saw_end = false;
    int format_version = 0;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        std::istringstream tokens(line);
        std::string keyword;
        tokens >> keyword;
        if (!saw_header) {
            std::string version;
            tokens >> version;
            if (keyword != "rana-config" ||
                (version != "v1" && version != "v2")) {
                return makeError(ErrorCode::ParseError,
                                 "bad config header: ", line);
            }
            format_version = version == "v1" ? 1 : 2;
            saw_header = true;
            continue;
        }
        if (keyword == "network") {
            tokens >> record.networkName;
        } else if (keyword == "interval_us") {
            double us = 0.0;
            tokens >> us;
            if (!tokens || us <= 0.0) {
                return makeError(ErrorCode::ParseError,
                                 "bad interval in config line: ",
                                 line);
            }
            record.refreshIntervalSeconds = us * microSecond;
        } else if (keyword == "policy") {
            std::string policy;
            tokens >> policy;
            Result<RefreshPolicy> parsed = parsePolicy(policy, line);
            if (!parsed.ok())
                return parsed.error();
            record.policy = parsed.value();
        } else if (keyword == "layer") {
            LayerConfigRecord layer;
            std::string dataflow;
            std::string promote;
            std::string flags;
            std::string gate;
            tokens >> layer.layerName >> dataflow >> layer.tiling.tm >>
                layer.tiling.tn >> layer.tiling.tr >>
                layer.tiling.tc >> promote >> flags >> gate;
            if (!tokens) {
                return makeError(ErrorCode::ParseError,
                                 "truncated config line: ", line);
            }
            Result<DataflowKind> parsed_dataflow =
                parseDataflowName(dataflow);
            if (format_version == 1) {
                // v1 predates the dataflow axis: the token is one of
                // the paper's pattern names in its config spelling.
                if (!parsed_dataflow.ok() ||
                    dataflow != dataflowName(parsed_dataflow.value()) ||
                    dataflowSpec(parsed_dataflow.value()).systolic) {
                    return makeError(ErrorCode::ParseError,
                                     "bad pattern '", dataflow,
                                     "' in config line: ", line);
                }
            } else if (!parsed_dataflow.ok()) {
                return makeError(ErrorCode::ParseError,
                                 "bad dataflow '", dataflow,
                                 "' in config line: ", line);
            }
            layer.dataflow = parsed_dataflow.value();
            Result<bool> parsed_promote = parseBit(promote, line);
            if (!parsed_promote.ok())
                return parsed_promote.error();
            layer.promoteInputs = parsed_promote.value();
            if (flags.size() != numDataTypes) {
                return makeError(ErrorCode::ParseError,
                                 "bad refresh flags in config line: ",
                                 line);
            }
            for (std::size_t i = 0; i < numDataTypes; ++i) {
                Result<bool> parsed_flag =
                    parseBit(std::string(1, flags[i]), line);
                if (!parsed_flag.ok())
                    return parsed_flag.error();
                layer.refreshFlags[i] = parsed_flag.value();
            }
            Result<bool> parsed_gate = parseBit(gate, line);
            if (!parsed_gate.ok())
                return parsed_gate.error();
            layer.gateOn = parsed_gate.value();
            record.layers.push_back(std::move(layer));
        } else if (keyword == "end") {
            saw_end = true;
            break;
        } else {
            return makeError(ErrorCode::ParseError,
                             "unknown config keyword in line: ", line);
        }
    }
    if (!saw_header || !saw_end) {
        return makeError(ErrorCode::ParseError,
                         "incomplete rana-config stream");
    }
    return record;
}

Result<NetworkConfigRecord>
readConfigStringChecked(const std::string &text)
{
    std::istringstream iss(text);
    return readConfigChecked(iss);
}

Result<NetworkSchedule>
rebuildScheduleChecked(const AcceleratorConfig &config,
                       const NetworkModel &network,
                       const NetworkConfigRecord &record)
{
    if (record.layers.size() != network.size()) {
        return makeError(ErrorCode::Mismatch, "config has ",
                         record.layers.size(), " layers but network ",
                         network.name(), " has ", network.size());
    }
    SchedulerOptions options;
    options.policy = record.policy;
    options.refreshIntervalSeconds = record.refreshIntervalSeconds;

    NetworkSchedule schedule;
    schedule.networkName = record.networkName;
    schedule.refreshIntervalSeconds = record.refreshIntervalSeconds;
    schedule.policy = record.policy;
    for (std::size_t i = 0; i < network.size(); ++i) {
        const LayerConfigRecord &entry = record.layers[i];
        const ConvLayerSpec &layer = network.layer(i);
        if (entry.layerName != layer.name) {
            return makeError(ErrorCode::Mismatch, "config layer '",
                             entry.layerName,
                             "' does not match network layer '",
                             layer.name, "'");
        }
        Result<LayerSchedule> rebuilt = evaluateLayerChoice(
            config, layer, entry.dataflow, entry.tiling, options,
            entry.promoteInputs);
        if (!rebuilt.ok())
            return rebuilt.error();
        schedule.layers.push_back(std::move(rebuilt).value());
    }
    return schedule;
}

} // namespace rana
