/**
 * @file
 * rana_compile — command-line front end for the RANA compilation
 * phase.
 *
 * Compiles a benchmark network for a Table-IV design point and
 * writes (or verifies) the layerwise configuration artifact:
 *
 *   rana_compile <network> [options]
 *
 *   <network>            AlexNet | VGG | GoogLeNet | ResNet
 *   --design NAME        S+ID | eD+ID | eD+OD | RANA0 | RANAE5 |
 *                        RANA*  (default RANA*)
 *   --dataflow NAME      override the design's dataflow search axis:
 *                        auto (all six) | id | od | wd | sys-os |
 *                        sys-is | sys-ws  (default: the design's
 *                        legacy pattern list)
 *   --failure-rate R     override the tolerable failure rate
 *   --jobs N             worker lanes of the scheduler search and
 *                        of the --verify trace simulation's layer
 *                        fan-out (default: one per hardware thread;
 *                        1 = serial; --guard or --chrome-trace keep
 *                        the simulation on one lane)
 *   --output FILE        write the config (default stdout)
 *   --verify FILE        load FILE, rebuild the schedule and execute
 *                        it on the trace simulator
 *   --guard              attach the runtime reliability guard to the
 *                        verified execution
 *   --guard-policy NAME  guard decision policy: permanent |
 *                        hysteresis | binned (implies --guard)
 *   --guard-k N          hysteresis: clean intervals to re-disarm
 *   --guard-bins N       binned: retention-binning divider bins
 *   --summary            print the energy summary (and the
 *                        evaluation-cache counters) after compiling
 *   --metrics-json PATH  write a metrics-registry snapshot to PATH
 *   --chrome-trace PATH  record a Chrome trace_event timeline
 *                        (chrome://tracing / Perfetto) to PATH
 *
 * Exit codes: 0 success, 1 bad usage or failed compilation (the
 * error is printed, the process never aborts mid-library), 2 a
 * verified schedule observed retention violations.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "cli_options.hh"
#include "obs/chrome_trace.hh"
#include "obs/pool_telemetry.hh"
#include "rana.hh"
#include "sim/trace_timeline.hh"

namespace {

using namespace rana;

void
printSummary(const DesignPoint &design, const NetworkModel &network,
             const NetworkSchedule &schedule)
{
    EnergyBreakdown energy;
    for (const auto &layer : schedule.layers)
        energy += layer.energy;
    const EvalCache::Stats cache = EvalCache::global().stats();
    std::ostringstream mix;
    for (DataflowKind dataflow : allDataflows()) {
        const std::size_t count = schedule.dataflowCount(dataflow);
        if (count > 0)
            mix << " " << dataflowName(dataflow) << ":" << count;
    }
    std::cerr << "compiled " << network.name() << " for "
              << design.name << " ("
              << design.config.buffer.describe() << ")\n"
              << "  refresh interval: "
              << formatTime(schedule.refreshIntervalSeconds) << "\n"
              << "  dataflow mix:" << mix.str() << "\n"
              << "  energy: " << energy.describe() << "\n"
              << "  runtime: " << formatTime(schedule.totalSeconds())
              << "\n"
              << "  eval cache: " << cache.hits << " hits / "
              << cache.misses << " misses, " << cache.entries
              << " entries\n";
}

/** Print a failure and choose the tool's exit code. */
int
fail(const Error &error)
{
    return cli::fail("rana_compile", error);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: rana_compile <network> [--design NAME] "
                     "[--dataflow auto|NAME] [--failure-rate R] "
                     "[--jobs N] [--output FILE] [--verify FILE] "
                     "[--summary] "
                  << cli::commonOptionsUsage() << "\n";
        return 1;
    }

    const std::string network_name = argv[1];
    std::string design_name = "RANA*";
    std::string dataflow_name;
    std::string output_path;
    std::string verify_path;
    double failure_rate = -1.0;
    unsigned jobs = hardwareJobs();
    bool summary = false;
    cli::CommonOptions common;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const Result<bool> consumed =
            cli::consumeCommonOption(argc, argv, i, common);
        if (!consumed.ok())
            return fail(consumed.error());
        if (consumed.value())
            continue;
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "rana_compile: missing value after "
                          << arg << "\n";
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--design") {
            design_name = next();
        } else if (arg == "--dataflow") {
            dataflow_name = next();
        } else if (arg == "--failure-rate") {
            const Result<double> rate = cli::parseNumber(arg, next());
            if (!rate.ok())
                return fail(rate.error());
            failure_rate = rate.value();
        } else if (arg == "--jobs") {
            const Result<unsigned> parsed =
                cli::parseCount<unsigned>(arg, next());
            if (!parsed.ok())
                return fail(parsed.error());
            jobs = parsed.value() == 0 ? hardwareJobs() : parsed.value();
        } else if (arg == "--output") {
            output_path = next();
        } else if (arg == "--verify") {
            verify_path = next();
        } else if (arg == "--summary") {
            summary = true;
        } else {
            return fail(makeError(ErrorCode::InvalidArgument,
                                  "unknown option ", arg));
        }
    }

    const Result<DesignKind> kind = cli::parseDesign(design_name);
    if (!kind.ok())
        return fail(kind.error());

    Result<NetworkModel> looked_up =
        makeBenchmarkChecked(network_name);
    if (!looked_up.ok())
        return fail(looked_up.error());
    const NetworkModel network = std::move(looked_up).value();
    const RetentionDistribution retention =
        RetentionDistribution::typical65nm();
    DesignPoint design = makeDesignPoint(kind.value(), retention);
    design.options.jobs = jobs;
    if (!dataflow_name.empty()) {
        Result<std::vector<DataflowKind>> dataflows =
            cli::parseDataflowList(dataflow_name);
        if (!dataflows.ok())
            return fail(dataflows.error());
        design.options.dataflows = std::move(dataflows).value();
    }
    if (failure_rate >= 0.0) {
        design.failureRate = failure_rate;
        design.options.refreshIntervalSeconds =
            failure_rate > 0.0
                ? retention.retentionTimeFor(failure_rate)
                : retention.worstCaseRetention();
    }

    if (common.wantsObservability())
        installPoolTelemetry();
    TimelineTraceSink timeline;
    TraceSink *sink = nullptr;
    if (!common.chromeTracePath.empty()) {
        TraceRecorder::global().enable();
        sink = &timeline;
    }

    if (!verify_path.empty()) {
        std::ifstream in(verify_path);
        if (!in)
            return fail(makeError(ErrorCode::IoError, "cannot open ",
                                  verify_path));
        const Result<NetworkConfigRecord> record =
            readConfigChecked(in);
        if (!record.ok())
            return fail(record.error());
        Result<NetworkSchedule> schedule = rebuildScheduleChecked(
            design.config, network, record.value());
        if (!schedule.ok())
            return fail(schedule.error());
        Result<std::unique_ptr<GuardPolicy>> policy =
            makeGuardPolicy(common.guardPolicy, design.config.buffer,
                            retention, design.failureRate, 1);
        if (!policy.ok())
            return fail(policy.error());
        ReliabilityGuard guard(design.options.refreshIntervalSeconds,
                               std::move(policy).value());
        const Result<ExecutionResult> execution =
            executeScheduleChecked(design, network, schedule.value(),
                                   TimingFaults{},
                                   common.guard ? &guard : nullptr,
                                   sink);
        if (!execution.ok())
            return fail(execution.error());
        const ExecutionResult &executed = execution.value();
        std::cerr << "verified " << verify_path << ": "
                  << schedule.value().layers.size() << " layers, "
                  << executed.violations << " retention violations, "
                  << "energy " << executed.energy.describe() << "\n";
        if (common.guard)
            std::cerr << "  " << guard.describe() << "\n";
        const Result<int> wrote = cli::writeObservability(common);
        if (!wrote.ok())
            return fail(wrote.error());
        return executed.violations == 0 ? 0 : 2;
    }

    const Result<DesignResult> result =
        runDesignChecked(design, network);
    if (!result.ok())
        return fail(result.error());
    const NetworkConfigRecord record =
        toConfigRecord(result.value().schedule);
    if (output_path.empty()) {
        writeConfig(std::cout, record);
    } else {
        std::ofstream out(output_path);
        if (!out)
            return fail(makeError(ErrorCode::IoError, "cannot open ",
                                  output_path, " for writing"));
        writeConfig(out, record);
        std::cerr << "wrote " << output_path << "\n";
    }
    if (summary)
        printSummary(design, network, result.value().schedule);
    const Result<int> wrote = cli::writeObservability(common);
    if (!wrote.ok())
        return fail(wrote.error());
    return 0;
}
