/**
 * @file
 * rana_serve — command-line front end for the multi-tenant serving
 * engine.
 *
 * Builds N tenants over the paper benchmarks (mixed AlexNet/VGG by
 * default), prepares the serving simulation for a design point
 * (schedule simulation for the per-network service time, bank-shard
 * partitioning, stand-in model training) and runs the deterministic
 * virtual-time event loop, reporting per-tenant p50/p95/p99 latency,
 * throughput and QoS counters as a markdown table:
 *
 *   rana_serve [options]
 *
 *   --tenants N          concurrent tenants (default 4; tenant i
 *                        serves AlexNet when i is even, VGG when odd)
 *   --qps RATE           per-tenant open-loop arrival rate in
 *                        requests per virtual second (0 = auto: a
 *                        fair share of ~60% utilization)
 *   --duration S         virtual admission horizon (default 2.0)
 *   --batch-window S     request-coalescing window (default 0.002;
 *                        0 = no batching, exactly sequential)
 *   --max-batch N        max requests fused per batch (default 8)
 *   --queue-capacity N   shared admission-queue bound (default 64)
 *   --closed-loop        closed-loop arrivals instead of open-loop
 *   --clients N          closed-loop clients per tenant (default 4)
 *   --think S            closed-loop think time (default 0.01)
 *   --fault-rate P       per-batch retention-overage probability in
 *                        each tenant's bank shard (default 0)
 *   --design NAME        S+ID | eD+ID | eD+OD | RANA0 | RANAE5 |
 *                        RANA*  (default RANAE5)
 *   --seed S             master seed (default 1)
 *   --jobs N             data-plane worker lanes (0 = hardware)
 *   --no-forwards        skip the batched forwards (timing only)
 *   --canonical-json PATH  write the canonical report JSON (the
 *                        byte-reproducibility artifact) to PATH
 *   --guard-policy NAME  every tenant's guard QoS policy: permanent |
 *                        hysteresis | binned (default permanent;
 *                        permanent/hysteresis shed on a trip, binned
 *                        keeps serving with a refresh service tax)
 *   --guard-k N          hysteresis: clean intervals to re-disarm
 *   --guard-bins N       binned: retention-binning divider bins
 *   --metrics-json PATH  write a metrics-registry snapshot to PATH
 *   --chrome-trace PATH  record the per-tenant serving timeline
 *                        (chrome://tracing / Perfetto) to PATH
 *
 * The report is bit-reproducible: the same seed yields byte-identical
 * canonical JSON for any --jobs value and across repeated runs.
 *
 * Exit codes: 0 success, 1 bad usage (including a malformed numeric
 * value) or a failed run.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>

#include "cli_options.hh"
#include "obs/chrome_trace.hh"
#include "rana.hh"
#include "sim/trace_timeline.hh"

namespace {

using namespace rana;

int
fail(const Error &error)
{
    return cli::fail("rana_serve", error);
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint32_t tenant_count = 4;
    double qps = 0.0;
    bool closed_loop = false;
    std::uint32_t clients = 4;
    double think = 0.01;
    double fault_rate = 0.0;
    std::string design_name = "RANAE5";
    std::string canonical_path;
    bool forwards = true;
    ServingConfig config;
    cli::CommonOptions common;
    // The parsed option value, or exit 1 naming the option.
    auto take = [](auto parsed) {
        if (!parsed.ok())
            std::exit(fail(parsed.error()));
        return std::move(parsed).value();
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const Result<bool> consumed =
            cli::consumeCommonOption(argc, argv, i, common);
        if (!consumed.ok())
            return fail(consumed.error());
        if (consumed.value())
            continue;
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "rana_serve: " << arg
                          << " needs a value\n";
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--tenants") {
            tenant_count = take(cli::parseCount<std::uint32_t>(arg, next()));
        } else if (arg == "--qps") {
            qps = take(cli::parseNumber(arg, next()));
        } else if (arg == "--duration") {
            config.durationSeconds = take(cli::parseNumber(arg, next()));
        } else if (arg == "--batch-window") {
            config.batchWindowSeconds = take(cli::parseNumber(arg, next()));
        } else if (arg == "--max-batch") {
            config.maxBatch =
                take(cli::parseCount<std::uint32_t>(arg, next()));
        } else if (arg == "--queue-capacity") {
            config.queueCapacity =
                take(cli::parseCount<std::uint32_t>(arg, next()));
        } else if (arg == "--closed-loop") {
            closed_loop = true;
        } else if (arg == "--clients") {
            clients = take(cli::parseCount<std::uint32_t>(arg, next()));
        } else if (arg == "--think") {
            think = take(cli::parseNumber(arg, next()));
        } else if (arg == "--fault-rate") {
            fault_rate = take(cli::parseNumber(arg, next()));
        } else if (arg == "--design") {
            design_name = next();
        } else if (arg == "--seed") {
            config.seed = take(cli::parseCount<std::uint64_t>(arg, next()));
        } else if (arg == "--jobs") {
            config.jobs = take(cli::parseCount<unsigned>(arg, next()));
        } else if (arg == "--no-forwards") {
            forwards = false;
        } else if (arg == "--canonical-json") {
            canonical_path = next();
        } else {
            std::cerr << "rana_serve: unknown option " << arg
                      << "\nusage: rana_serve [--tenants N] "
                         "[--qps RATE] [--duration S] "
                         "[--batch-window S] [--max-batch N] "
                         "[--queue-capacity N] [--closed-loop] "
                         "[--clients N] [--think S] [--fault-rate P] "
                         "[--design NAME] [--seed S] [--jobs N] "
                         "[--no-forwards] [--canonical-json PATH] "
                      << cli::commonOptionsUsage() << "\n";
            return 1;
        }
    }

    const Result<DesignKind> design = cli::parseDesign(design_name);
    if (!design.ok())
        return fail(design.error());
    config.design = design.value();
    config.runForwards = forwards;
    config.tenants =
        mixedTenantSpecs(tenant_count, common.guardPolicy, fault_rate);
    for (TenantSpec &spec : config.tenants) {
        spec.qps = qps;
        if (closed_loop) {
            spec.arrival = ArrivalKind::ClosedLoop;
            spec.clients = clients;
            spec.thinkSeconds = think;
        }
    }

    Result<ServingSimulation> sim =
        ServingSimulation::prepare(std::move(config));
    if (!sim.ok())
        return fail(sim.error());

    ServingTimeline timeline;
    ServingTimeline *recording =
        common.chromeTracePath.empty() ? nullptr : &timeline;
    if (recording != nullptr)
        TraceRecorder::global().enable();
    const Result<ServingReport> report =
        sim.value().run(0, recording);
    if (!report.ok())
        return fail(report.error());

    std::cout << report.value().describe() << "\n\n"
              << report.value().markdownTable();

    if (!canonical_path.empty()) {
        std::ofstream out(canonical_path);
        if (!out) {
            return fail(makeError(ErrorCode::IoError, "cannot open ",
                                  canonical_path, " for writing"));
        }
        out << canonicalServingJson(report.value()) << "\n";
    }

    const Result<int> wrote = cli::writeObservability(common);
    if (!wrote.ok())
        return fail(wrote.error());
    return 0;
}
