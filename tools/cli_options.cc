/**
 * @file
 * Implementation of the shared command-line options.
 */

#include "cli_options.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "obs/chrome_trace.hh"
#include "obs/metrics_registry.hh"

namespace rana {
namespace cli {

namespace {

/** The next argument value, or an error naming the option. */
Result<std::string>
nextValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        return makeError(ErrorCode::InvalidArgument,
                         "missing value after ", argv[i]);
    }
    return std::string(argv[++i]);
}

} // namespace

Result<double>
parseNumber(const std::string &option, const std::string &value)
{
    char *end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (value.empty() || *end != '\0' || !std::isfinite(parsed)) {
        return makeError(ErrorCode::InvalidArgument, option,
                         " expects a number, got '", value, "'");
    }
    return parsed;
}

namespace detail {

Result<std::uint64_t>
parseCountUpTo(const std::string &option, const std::string &value,
               std::uint64_t max)
{
    // strtoull alone would skip spaces and wrap a leading '-'.
    const bool digits =
        !value.empty() &&
        std::isdigit(static_cast<unsigned char>(value[0]));
    char *end = nullptr;
    errno = 0;
    const unsigned long long parsed =
        digits ? std::strtoull(value.c_str(), &end, 10) : 0;
    if (!digits || *end != '\0' || errno == ERANGE || parsed > max) {
        return makeError(ErrorCode::InvalidArgument, option,
                         " expects an integer in [0, ", max,
                         "], got '", value, "'");
    }
    return static_cast<std::uint64_t>(parsed);
}

} // namespace detail

Result<std::vector<DataflowKind>>
parseDataflowList(const std::string &value)
{
    if (value == "auto") {
        const auto all = allDataflows();
        return std::vector<DataflowKind>(all.begin(), all.end());
    }
    const Result<DataflowKind> kind = parseDataflowName(value);
    if (!kind.ok()) {
        return makeError(ErrorCode::InvalidArgument,
                         "unknown dataflow '", value,
                         "' (expected auto, id, od, wd, sys-os, "
                         "sys-is or sys-ws)");
    }
    return std::vector<DataflowKind>{kind.value()};
}

Result<DesignKind>
parseDesign(const std::string &name)
{
    if (name == "S+ID")
        return DesignKind::SramId;
    if (name == "eD+ID")
        return DesignKind::EdramId;
    if (name == "eD+OD")
        return DesignKind::EdramOd;
    if (name == "RANA0")
        return DesignKind::Rana0;
    if (name == "RANAE5")
        return DesignKind::RanaE5;
    if (name == "RANA*")
        return DesignKind::RanaStarE5;
    return makeError(ErrorCode::InvalidArgument, "unknown design '",
                     name,
                     "' (expected S+ID, eD+ID, eD+OD, RANA0, RANAE5 "
                     "or RANA*)");
}

const char *
commonOptionsUsage()
{
    return "[--guard] [--guard-policy permanent|hysteresis|binned] "
           "[--guard-k N] [--guard-bins N] [--metrics-json PATH] "
           "[--chrome-trace PATH]";
}

Result<bool>
consumeCommonOption(int argc, char **argv, int &i,
                    CommonOptions &options)
{
    const std::string arg = argv[i];
    if (arg == "--metrics-json") {
        Result<std::string> value = nextValue(argc, argv, i);
        if (!value.ok())
            return value.error();
        options.metricsJsonPath = std::move(value).value();
        return true;
    }
    if (arg == "--chrome-trace") {
        Result<std::string> value = nextValue(argc, argv, i);
        if (!value.ok())
            return value.error();
        options.chromeTracePath = std::move(value).value();
        return true;
    }
    if (arg == "--guard") {
        options.guard = true;
        return true;
    }
    if (arg == "--guard-policy") {
        Result<std::string> value = nextValue(argc, argv, i);
        if (!value.ok())
            return value.error();
        const Result<GuardPolicyKind> kind =
            parseGuardPolicyKind(value.value());
        if (!kind.ok())
            return kind.error();
        options.guard = true;
        options.guardPolicy.kind = kind.value();
        return true;
    }
    if (arg == "--guard-k") {
        Result<std::string> value = nextValue(argc, argv, i);
        if (!value.ok())
            return value.error();
        const Result<std::uint32_t> count =
            parseCount<std::uint32_t>(arg, value.value());
        if (!count.ok())
            return count.error();
        options.guardPolicy.hysteresisK = count.value();
        return true;
    }
    if (arg == "--guard-bins") {
        Result<std::string> value = nextValue(argc, argv, i);
        if (!value.ok())
            return value.error();
        const Result<std::uint32_t> count =
            parseCount<std::uint32_t>(arg, value.value());
        if (!count.ok())
            return count.error();
        options.guardPolicy.bins = count.value();
        return true;
    }
    return false;
}

Result<int>
writeObservability(const CommonOptions &options)
{
    int written = 0;
    if (!options.metricsJsonPath.empty()) {
        std::ofstream out(options.metricsJsonPath);
        if (!out) {
            return makeError(ErrorCode::IoError, "cannot open ",
                             options.metricsJsonPath,
                             " for writing");
        }
        out << metricsJsonDocument(MetricsRegistry::global());
        if (!out) {
            return makeError(ErrorCode::IoError, "cannot write ",
                             options.metricsJsonPath);
        }
        ++written;
    }
    if (!options.chromeTracePath.empty()) {
        const Result<bool> wrote =
            TraceRecorder::global().writeFile(
                options.chromeTracePath);
        if (!wrote.ok())
            return wrote.error();
        ++written;
    }
    return written;
}

int
fail(const char *tool, const Error &error)
{
    std::cerr << tool << ": " << error.describe() << "\n";
    return 1;
}

} // namespace cli
} // namespace rana
