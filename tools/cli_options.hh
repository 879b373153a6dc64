/**
 * @file
 * Command-line options shared by the rana_* front ends: numeric
 * option values, design-name parsing, the observability outputs
 * (--metrics-json / --chrome-trace) and the reliability-guard flags
 * (--guard / --guard-policy / --guard-k / --guard-bins), with one
 * usage/error path instead of a copy per tool.
 */

#ifndef RANA_TOOLS_CLI_OPTIONS_HH_
#define RANA_TOOLS_CLI_OPTIONS_HH_

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "core/design_point.hh"
#include "edram/guard_policy.hh"
#include "sim/dataflow.hh"
#include "util/result.hh"

namespace rana {
namespace cli {

/**
 * Parse the value of numeric option `option`: all of `value` must be
 * one finite number. The error names the option and the value.
 */
Result<double> parseNumber(const std::string &option,
                           const std::string &value);

namespace detail {
/** parseCount's range-checked core. */
Result<std::uint64_t> parseCountUpTo(const std::string &option,
                                     const std::string &value,
                                     std::uint64_t max);
} // namespace detail

/**
 * Parse the value of count option `option` into T: all of `value`
 * must be decimal digits (no sign, fraction or suffix) naming a
 * count that fits T. The error names the option and the value.
 */
template <typename T>
Result<T>
parseCount(const std::string &option, const std::string &value)
{
    static_assert(std::is_unsigned_v<T>);
    const Result<std::uint64_t> count = detail::parseCountUpTo(
        option, value, std::numeric_limits<T>::max());
    if (!count.ok())
        return count.error();
    return static_cast<T>(count.value());
}

/** Parse a Table-IV design-point name ("RANA*", "eD+ID", ...). */
Result<DesignKind> parseDesign(const std::string &name);

/**
 * Parse a --dataflow option value: "auto" selects the full
 * six-dataflow search axis, any other token names a single dataflow
 * (id | od | wd | sys-os | sys-is | sys-ws, legacy names
 * case-insensitive). Errors name the accepted tokens.
 */
Result<std::vector<DataflowKind>>
parseDataflowList(const std::string &value);

/** Options every tool accepts, filled by consumeCommonOption. */
struct CommonOptions
{
    /** Metrics-registry JSON snapshot path ("" = none). */
    std::string metricsJsonPath;
    /** Chrome trace_event timeline path ("" = none). */
    std::string chromeTracePath;
    /** Attach the runtime reliability guard. */
    bool guard = false;
    /** Decision policy of the attached guard. */
    GuardPolicySpec guardPolicy;

    /** Whether any observability output was requested. */
    bool
    wantsObservability() const
    {
        return !metricsJsonPath.empty() || !chromeTracePath.empty();
    }
};

/** Usage-line fragment documenting the shared options. */
const char *commonOptionsUsage();

/**
 * Try to consume argv[i] (plus its value, advancing `i`) as one of
 * the shared options. Returns true when consumed, false when the
 * argument belongs to the tool, and an error on a missing or
 * malformed value.
 */
Result<bool> consumeCommonOption(int argc, char **argv, int &i,
                                 CommonOptions &options);

/**
 * Flush the requested observability outputs. Returns an error when a
 * file cannot be written; otherwise the number of outputs written.
 */
Result<int> writeObservability(const CommonOptions &options);

/** Print "<tool>: <error>" on stderr; returns the exit code 1. */
int fail(const char *tool, const Error &error);

} // namespace cli
} // namespace rana

#endif // RANA_TOOLS_CLI_OPTIONS_HH_
