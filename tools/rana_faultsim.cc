/**
 * @file
 * rana_faultsim — command-line front end for the retention-fault
 * campaign engine.
 *
 * Compiles a benchmark network for a design point, executes the
 * schedule on the trace simulator (optionally under injected timing
 * faults and with the runtime reliability guard attached), samples
 * per-bank weak-cell retention times per trial, injects the implied
 * bit errors into the trained stand-in mini model, and reports the
 * end-to-end accuracy degradation. Every mode runs one policy x
 * rate x interval grid (robust/campaign_sweep): by default the one
 * cell of the design's operating point; --sweep and
 * --compare-policies a larger grid, in-process or sharded over
 * --workers forked processes. --sweep's grid has one policy row, the
 * campaign as configured; --compare-policies has one guarded row per
 * stock policy. Beyond that they differ only in the printed table.
 *
 *   rana_faultsim <network> [options]
 *
 *   <network>            AlexNet | VGG | GoogLeNet | ResNet
 *   --design NAME        S+ID | eD+ID | eD+OD | RANA0 | RANAE5 |
 *                        RANA*  (default RANAE5)
 *   --model NAME         MiniAlex | MiniVgg | MiniInception |
 *                        MiniRes (default MiniVgg)
 *   --trials N           retention-sampling trials (default 8)
 *   --seed S             master seed (default 1)
 *   --jobs N             trial worker lanes (0 = hardware threads)
 *   --lane-block N       most lanes per scoring block
 *                        (0 = tuned default, 1 = 1-lane passes;
 *                        values above 16 run 16-lane blocks;
 *                        bit-identical results for any value)
 *   --slowdown FACTOR    multiply every tile's time (timing fault)
 *   --stall SECONDS      stall before each outer scan (timing fault)
 *   --guard              attach the runtime reliability guard
 *   --guard-policy NAME  guard decision policy: permanent |
 *                        hysteresis | binned (implies --guard and
 *                        prints the markdown guard-policy row)
 *   --guard-k N          hysteresis: clean intervals to re-disarm
 *   --guard-bins N       binned: retention-binning divider bins
 *   --compare-policies   run the grid with one guarded row per stock
 *                        policy (permanent, hysteresis, binned) and
 *                        print the markdown comparison table
 *   --no-retrain         skip retention-aware retraining (control)
 *   --markdown           emit the scenario row as a markdown table
 *   --sweep              run the failure-rate x refresh-interval
 *                        grid instead of one campaign; prints the
 *                        percentile band per cell and, with
 *                        --markdown, the markdown grid
 *   --metrics-json PATH  write a metrics-registry snapshot to PATH
 *   --chrome-trace PATH  record a Chrome trace_event timeline
 *                        (chrome://tracing / Perfetto) to PATH
 *
 * The grid options below need --sweep or --compare-policies; given
 * without either, they exit 1 naming the option:
 *
 *   --rates LIST         comma-separated grid failure rates
 *                        (default 0,1e-5,1e-4)
 *   --intervals LIST     comma-separated grid refresh intervals in
 *                        seconds (default 45e-6,734e-6)
 *   --workers N          shard the grid over N forked worker
 *                        processes (0 = in-process; the merged
 *                        report is byte-identical to the in-process
 *                        run for any N)
 *   --cell-timeout-ms N  per-cell deadline before the worker is
 *                        declared hung and killed (default 120000)
 *   --max-retries N      retries per cell before degrading it to
 *                        in-process execution (default 2)
 *   --backoff-ms N       first retry delay, doubled per further
 *                        attempt (default 25)
 *   --postmortem-dir P   write one postmortem JSON dump per worker
 *                        crash/timeout incident under directory P
 *                        (created on first use; see rana_obs)
 *   --chaos SPEC         deterministic shard-fault injection, a
 *                        comma-separated list of kill=C (kill the
 *                        worker running cell C's first attempt),
 *                        stall=C (hang cell C's first attempt) and
 *                        corrupt=C (corrupt cell C's first result
 *                        frame)
 *
 * --lane-block 1 runs every scoring block as a 1-lane forward, the
 * reference path the batched blocks are bit-identical to.
 *
 * Exit codes: 0 success, 1 bad usage or failed campaign, 2 a guarded
 * campaign or grid cell still observed corrupted-word events (the
 * guard failed its zero-corruption promise), 3 a sharded grid
 * completed but one or more cells exhausted their retries and fell
 * back to in-process execution (degraded: the report is still
 * complete and byte-identical, but worker-level fault isolation was
 * lost; exit 2 takes precedence when both apply).
 */

#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "cli_options.hh"
#include "obs/chrome_trace.hh"
#include "obs/pool_telemetry.hh"
#include "rana.hh"
#include "robust/sweep_shard.hh"
#include "sim/trace_timeline.hh"

namespace {

using namespace rana;

Result<MiniModelKind>
parseModel(const std::string &name)
{
    if (name == "MiniAlex")
        return MiniModelKind::MiniAlex;
    if (name == "MiniVgg")
        return MiniModelKind::MiniVgg;
    if (name == "MiniInception")
        return MiniModelKind::MiniInception;
    if (name == "MiniRes")
        return MiniModelKind::MiniRes;
    return makeError(ErrorCode::InvalidArgument, "unknown model '",
                     name,
                     "' (expected MiniAlex, MiniVgg, MiniInception "
                     "or MiniRes)");
}

/** Parse option `option`'s comma-separated list of numbers. */
Result<std::vector<double>>
parseNumberList(const std::string &option, const std::string &list)
{
    std::vector<double> values;
    std::size_t start = 0;
    while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos)
            comma = list.size();
        const Result<double> parsed = cli::parseNumber(
            option, list.substr(start, comma - start));
        if (!parsed.ok())
            return parsed.error();
        values.push_back(parsed.value());
        start = comma + 1;
    }
    return values;
}

/** Print a failure and choose the tool's exit code. */
int
fail(const Error &error)
{
    return cli::fail("rana_faultsim", error);
}

/**
 * Parse a --chaos spec: comma-separated kill=C, stall=C and
 * corrupt=C items.
 */
Result<ShardChaosConfig>
parseChaosSpec(const std::string &spec)
{
    ShardChaosConfig chaos;
    std::size_t start = 0;
    while (start <= spec.size()) {
        std::size_t comma = spec.find(',', start);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string item = spec.substr(start, comma - start);
        start = comma + 1;
        const std::size_t equals = item.find('=');
        if (equals == std::string::npos) {
            return makeError(ErrorCode::InvalidArgument,
                             "bad chaos item '", item,
                             "' (expected kill=C, stall=C or "
                             "corrupt=C)");
        }
        const std::string key = item.substr(0, equals);
        const std::string value = item.substr(equals + 1);
        char *end = nullptr;
        if (key == "kill" || key == "stall" || key == "corrupt") {
            const long cell = std::strtol(value.c_str(), &end, 10);
            if (value.empty() ||
                end != value.c_str() + value.size()) {
                return makeError(ErrorCode::InvalidArgument, "bad ",
                                 key, " cell '", value, "'");
            }
            int &target = key == "kill"
                              ? chaos.killCell
                              : (key == "stall" ? chaos.stallCell
                                                : chaos.corruptCell);
            target = static_cast<int>(cell);
        } else {
            return makeError(ErrorCode::InvalidArgument,
                             "unknown chaos key '", key, "'");
        }
    }
    return chaos;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: rana_faultsim <network> [--design NAME] "
                     "[--model NAME] [--trials N] [--seed S] "
                     "[--jobs N] [--lane-block N] "
                     "[--slowdown FACTOR] "
                     "[--stall SECONDS] [--no-retrain] [--markdown] "
                     "[--sweep] [--compare-policies] [--rates LIST] "
                     "[--intervals LIST] [--workers N] "
                     "[--cell-timeout-ms N] [--max-retries N] "
                     "[--backoff-ms N] [--postmortem-dir PATH] "
                     "[--chaos SPEC] "
                  << cli::commonOptionsUsage() << "\n";
        return 1;
    }

    const std::string network_name = argv[1];
    std::string design_name = "RANAE5";
    std::string model_name = "MiniVgg";
    FaultCampaignConfigBuilder builder;
    cli::CommonOptions common;
    bool markdown = false;
    bool sweep = false;
    bool compare = false;
    bool policy_row = false;
    bool sharded = false;
    // The first grid-only option given, if any.
    std::string grid_option;
    SweepShardConfig shard;
    std::vector<double> sweep_rates = {0.0, 1e-5, 1e-4};
    std::vector<double> sweep_intervals = {45e-6, 734e-6};
    // The parsed option value, or exit 1 naming the option.
    auto take = [](auto parsed) {
        if (!parsed.ok())
            std::exit(fail(parsed.error()));
        return std::move(parsed).value();
    };
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const Result<bool> consumed =
            cli::consumeCommonOption(argc, argv, i, common);
        if (!consumed.ok())
            return fail(consumed.error());
        if (consumed.value()) {
            if (arg == "--guard-policy")
                policy_row = true;
            continue;
        }
        if (arg == "--rates" || arg == "--intervals" ||
            arg == "--workers" || arg == "--cell-timeout-ms" ||
            arg == "--max-retries" || arg == "--backoff-ms" ||
            arg == "--postmortem-dir" || arg == "--chaos") {
            if (grid_option.empty())
                grid_option = arg;
        }
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "rana_faultsim: missing value after "
                          << arg << "\n";
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--design") {
            design_name = next();
        } else if (arg == "--model") {
            model_name = next();
        } else if (arg == "--trials") {
            builder.trials(
                take(cli::parseCount<std::uint32_t>(arg, next())));
        } else if (arg == "--seed") {
            builder.seed(take(cli::parseCount<std::uint64_t>(arg, next())));
        } else if (arg == "--jobs") {
            builder.jobs(take(cli::parseCount<unsigned>(arg, next())));
        } else if (arg == "--lane-block") {
            builder.laneBlock(
                take(cli::parseCount<std::uint32_t>(arg, next())));
        } else if (arg == "--slowdown") {
            TimingFaults faults = builder.build().timingFaults;
            faults.slowdownFactor = take(cli::parseNumber(arg, next()));
            builder.timingFaults(faults);
        } else if (arg == "--stall") {
            TimingFaults faults = builder.build().timingFaults;
            faults.scanStallSeconds = take(cli::parseNumber(arg, next()));
            builder.timingFaults(faults);
        } else if (arg == "--no-retrain") {
            builder.retrain(false);
        } else if (arg == "--markdown") {
            markdown = true;
        } else if (arg == "--sweep") {
            sweep = true;
        } else if (arg == "--compare-policies") {
            compare = true;
        } else if (arg == "--rates") {
            sweep_rates = take(parseNumberList(arg, next()));
        } else if (arg == "--intervals") {
            sweep_intervals = take(parseNumberList(arg, next()));
        } else if (arg == "--workers") {
            shard.workers = take(cli::parseCount<unsigned>(arg, next()));
            sharded = shard.workers > 0;
        } else if (arg == "--cell-timeout-ms") {
            shard.cellTimeoutMs =
                take(cli::parseCount<std::uint32_t>(arg, next()));
        } else if (arg == "--max-retries") {
            shard.maxRetries =
                take(cli::parseCount<std::uint32_t>(arg, next()));
        } else if (arg == "--backoff-ms") {
            shard.backoffBaseMs =
                take(cli::parseCount<std::uint32_t>(arg, next()));
        } else if (arg == "--postmortem-dir") {
            shard.postmortemDir = next();
        } else if (arg == "--chaos") {
            shard.chaos = take(parseChaosSpec(next()));
        } else {
            return fail(makeError(ErrorCode::InvalidArgument,
                                  "unknown option ", arg));
        }
    }
    if (!grid_option.empty() && !sweep && !compare) {
        return fail(makeError(ErrorCode::InvalidArgument, grid_option,
                              " needs --sweep or --compare-policies"));
    }

    const Result<DesignKind> kind = cli::parseDesign(design_name);
    if (!kind.ok())
        return fail(kind.error());
    const Result<MiniModelKind> model = parseModel(model_name);
    if (!model.ok())
        return fail(model.error());
    builder.model(model.value());

    Result<NetworkModel> looked_up =
        makeBenchmarkChecked(network_name);
    if (!looked_up.ok())
        return fail(looked_up.error());
    const NetworkModel network = std::move(looked_up).value();
    const RetentionDistribution retention =
        RetentionDistribution::typical65nm();
    const DesignPoint design =
        makeDesignPoint(kind.value(), retention);
    builder.retention(retention)
        .guard(common.guard)
        .guardPolicy(common.guardPolicy);

    if (common.wantsObservability())
        installPoolTelemetry();
    TimelineTraceSink timeline;
    if (!common.chromeTracePath.empty()) {
        TraceRecorder::global().enable();
        builder.traceSink(&timeline);
    }
    const FaultCampaignConfig config = builder.build();

    // Without --sweep or --compare-policies the grid is the 1 x 1
    // grid of the design's operating point.
    const bool grid = sweep || compare;
    CampaignSweepConfig sweep_config;
    sweep_config.failureRates = sweep_rates;
    sweep_config.refreshIntervals = sweep_intervals;
    if (!grid) {
        sweep_config.failureRates = {design.failureRate};
        sweep_config.refreshIntervals = {
            design.options.refreshIntervalSeconds};
    }
    sweep_config.campaign = config;
    // The comparison's hysteresis/binned knobs follow --guard-k and
    // --guard-bins.
    if (compare)
        sweep_config.guardPolicies =
            stockGuardPolicies(config.guardPolicy);
    Result<CampaignSweepReport> swept =
        makeError(ErrorCode::InvalidArgument, "unreachable");
    SweepShardStats shard_stats;
    if (sharded) {
        Result<ShardedSweepResult> result =
            runShardedCampaignSweep(design, network, sweep_config,
                                    shard);
        if (!result.ok())
            return fail(result.error());
        shard_stats = result.value().stats;
        std::cerr << "shard: " << shard_stats.describe() << "\n";
        swept = std::move(result).value().report;
    } else {
        swept = runCampaignSweep(design, network, sweep_config);
    }
    if (!swept.ok())
        return fail(swept.error());
    const CampaignSweepReport &report = swept.value();

    if (grid) {
        std::cerr << report.designName << " on "
                  << report.networkName << " ("
                  << report.modelName << "): baseline "
                  << report.baselineAccuracy << ", "
                  << (compare ? "guard-policy comparison over " : "")
                  << report.failureRates.size() << "x"
                  << report.refreshIntervals.size()
                  << (compare ? " grid, " : " sweep, ")
                  << config.trials << " trials per cell\n";
        if (compare) {
            std::cout << report.comparisonTable();
        } else if (markdown) {
            std::cout << report.percentileTable();
        } else {
            for (const SweepCell &cell : report.cells)
                std::cout << cell.report.describe() << "\n";
        }
    } else {
        const FaultCampaignReport &campaign = report.cells.front().report;
        std::cerr << campaign.describe() << "\n";
        // --guard-policy prints the one-cell grid's policy row, so
        // single-policy runs line up with --compare-policies output.
        if (policy_row)
            std::cout << report.comparisonTable();
        if (markdown) {
            ReliabilityScenarioRow row;
            row.name = campaign.designName + " / " + campaign.networkName;
            row.executionSeconds = campaign.executionSeconds;
            row.violations = campaign.retentionViolations;
            row.guarded = campaign.guarded;
            row.guardTrips = campaign.guardStats.trips;
            row.banksReenabled = campaign.guardStats.banksReenabled;
            row.fallbackRefreshOps =
                campaign.guardStats.fallbackRefreshOps;
            row.meanRelativeAccuracy = campaign.meanRelativeAccuracy;
            row.worstRelativeAccuracy = campaign.worstRelativeAccuracy;
            std::cout << markdownReliabilityTable({row});
        }
    }

    const Result<int> wrote = cli::writeObservability(common);
    if (!wrote.ok())
        return fail(wrote.error());
    for (const SweepCell &cell : report.cells) {
        if (cell.report.guarded && cell.report.retentionViolations > 0)
            return 2;
    }
    return shard_stats.degraded() ? 3 : 0;
}
