/**
 * @file
 * The `serve` workload: eight mixed AlexNet/VGG tenants
 * (mixedTenantSpecs) with a 2% per-batch fault rate and the batched
 * forwards on, over every lane of the data plane. Arrivals are open
 * loop at a fixed rate above the accelerator's capacity, so batches
 * fill up to maxBatch and the guard sheds. ServingSimulation::prepare
 * runs once per set-up; each pass is one run(). It drives the same
 * lane-major kernels as the campaign, but at up to 8 sample lanes
 * instead of 16 trial lanes, plus the event loop and admission, so a
 * change tuned to the campaign's lane block that costs small batches
 * shows here.
 */

#include <optional>

#include "common.hh"
#include "rana.hh"

namespace perfbench {

namespace {

using namespace rana;

/** Tenants of the workload. */
constexpr std::uint32_t kTenants = 8;

/**
 * Open-loop arrivals per tenant per virtual second, and the batch
 * window. A window collects about maxBatch (8) requests per tenant,
 * so batches fill up, and eight tenants at this rate offer about
 * twice what the design serves with full batches (its service time
 * is about 47 ms for an 8-lane AlexNet batch and 0.9 s for VGG), so
 * the backlog grows and the guard sheds after retention faults.
 */
constexpr double kTenantQps = 4.0;
constexpr double kBatchWindowSeconds = 2.0;

/** Virtual admission horizon of one run(). */
constexpr double kHorizonSeconds = 300.0;

ServingConfig
servingConfig(const RunOptions &options, unsigned lanes)
{
    GuardPolicySpec policy;
    policy.kind = GuardPolicyKind::Hysteresis;
    policy.hysteresisK = 4;
    ServingConfig config;
    const std::uint32_t tenants = options.smallest ? 2 : kTenants;
    config.tenants = mixedTenantSpecs(tenants, policy, 0.02);
    for (TenantSpec &tenant : config.tenants)
        tenant.qps = kTenantQps;
    config.batchWindowSeconds = kBatchWindowSeconds;
    config.durationSeconds = options.smallest ? 4.0 : kHorizonSeconds;
    config.seed = options.seed;
    config.dataset.seed = 42 + options.seed;
    config.jobs = lanes;
    if (options.smallest) {
        config.dataset.trainSamples = 64;
        config.dataset.testSamples = 32;
        config.trainer.pretrainEpochs = 1;
    }
    return config;
}

} // namespace

WorkloadReport
runServeWorkload(const RunOptions &options, Checks &checks,
                 Tracer &tracer)
{
    const unsigned lanes = rana::hardwareJobs();
    WorkloadReport report;
    report.lanes = lanes;
    const ServingConfig config = servingConfig(options, lanes);

    std::optional<ServingSimulation> sim;
    std::vector<double> setups;
    {
        Timed span(tracer, "setup");
        const int repeats = options.smallest ? 1 : 3;
        for (int i = 0; i < repeats; ++i) {
            Timed prepare(tracer, "serving.prepare");
            Result<ServingSimulation> prepared =
                ServingSimulation::prepare(config);
            setups.push_back(prepare.stop());
            if (checks.ok("ServingSimulation::prepare", prepared))
                sim.emplace(std::move(prepared).value());
        }
    }
    if (!sim)
        return report;

    PassDigests digests(checks, options.injectFault);
    CallTimes run_times;
    std::string canonical;
    ServingReport last;
    std::uint64_t traced_lanes = 0;
    std::uint64_t traced_batches = 0;
    std::uint64_t traced_shed = 0;
    std::uint64_t traced_issued = 0;

    auto pass = [&](std::size_t index) {
        // The warm-up pass 0 and traced passes are not samples.
        const bool sample = index > 0 && !tracer.enabled();
        std::optional<Result<ServingReport>> served;
        double seconds = 0.0;
        {
            Timed span(tracer, "serving.run");
            served.emplace(sim->run(lanes));
            seconds = span.stop();
        }
        if (!checks.ok("ServingSimulation::run", *served))
            return;
        last = std::move(*served).value();
        if (sample)
            run_times.add("run", seconds);
        if (tracer.enabled()) {
            for (const TenantServingStats &tenant : last.tenants) {
                traced_lanes += tenant.completed;
                traced_batches += tenant.batches;
                traced_shed += tenant.shedGuard + tenant.shedQueue;
                traced_issued += tenant.issued;
            }
        }
        canonical = canonicalServingJson(last);
        digests.add("serve.canonical_report", index, canonical);
    };

    std::vector<KernelRow> kernels;
    auto post = [&]() {
        kernels = runKernelTable(tracer, config.dataset.imageSize,
                                 config.dataset.numClasses,
                                 config.dataset.testSamples,
                                 options.smallest);
        // The event loop and admission alone: the same traffic with
        // the batched forwards off.
        ServingConfig control = config;
        control.runForwards = false;
        Result<ServingSimulation> plane =
            ServingSimulation::prepare(control);
        if (checks.ok("ServingSimulation::prepare forwards off", plane)) {
            Timed span(tracer, "serving.control_plane");
            checks.ok("ServingSimulation::run forwards off",
                      plane.value().run(lanes));
        }
        // The two pretrainings prepare() runs, replayed on their own.
        for (MiniModelKind kind :
             {MiniModelKind::MiniAlex, MiniModelKind::MiniVgg}) {
            Timed span(tracer, "train.pretrain");
            TrainerConfig trainer = config.trainer;
            trainer.seed = config.seed;
            RetentionAwareTrainer replay(kind, config.dataset, trainer);
            replay.pretrain();
        }
    };

    const PassLog log =
        runPassSchedule(options, tracer, lanes, pass, post);
    report.threads = processThreads();
    report.passes = log;

    // Contract check, outside the timed region: one data-plane lane
    // serves the byte-identical report.
    Result<ServingReport> single = sim->run(1);
    if (checks.ok("ServingSimulation::run jobs=1", single)) {
        checks.check("canonical report is identical for pools of 1 and " +
                         std::to_string(lanes),
                     canonicalServingJson(single.value()) == canonical);
    }

    const double setup_s = median(setups);
    // Every run serves the same requests, so the median run sets the
    // rate, and the item percentiles (over distinct calls) are both
    // that median.
    const double run_seconds = run_times.sumOfMedians();
    const double throughput =
        run_seconds > 0.0
            ? static_cast<double>(last.totalCompleted) / run_seconds
            : 0.0;
    const double p50 = run_times.percentileOfMedians(50) * 1e3;
    const double p90 = run_times.percentileOfMedians(90) * 1e3;
    report.endToEnd = {{"setup_s", setup_s, "s"},
                       {"throughput_per_s", throughput, "1/s"},
                       {"item_p50_ms", p50, "ms"},
                       {"item_p90_ms", p90, "ms"},
                       {"peak_rss_mb", peakRssMb(), "MB"}};
    report.named = {{"requests_per_s", throughput, "1/s"},
                    {"run_p50_ms", p50, "ms"},
                    {"run_p90_ms", p90, "ms"},
                    {"runs_measured",
                     static_cast<double>(run_times.samples()), "count"},
                    {"requests_per_run",
                     static_cast<double>(last.totalCompleted), "count"},
                    {"cpu_util", log.cpuUtil, "ratio"}};
    double accuracy = 0.0;
    for (const TenantServingStats &tenant : last.tenants) {
        accuracy += tenant.accuracy * static_cast<double>(tenant.completed);
    }
    report.modelled = {
        {"served_accuracy",
         last.totalCompleted > 0
             ? accuracy / static_cast<double>(last.totalCompleted)
             : 0.0,
         "ratio"},
        {"completed_requests", static_cast<double>(last.totalCompleted),
         "count"},
        {"shed_requests", static_cast<double>(last.totalShed), "count"},
        {"virtual_throughput", last.totalThroughputRps, "1/s"},
        {"worst_p99_virtual_ms", last.worstP99Ms, "ms"}};
    report.digests = digests.digests();

    if (options.trace) {
        const double passes = static_cast<double>(log.traced.size());
        auto &m = report.perLayer;
        commonPerLayer(log, tracer, m);
        m["serving.run_s"] = tracer.totalSeconds("serving.run") / passes;
        m["serving.control_plane_s"] =
            tracer.totalSeconds("serving.control_plane");
        m["serving.mean_batch_lanes"] =
            traced_batches > 0 ? static_cast<double>(traced_lanes) /
                                     static_cast<double>(traced_batches)
                               : 0.0;
        m["serving.shed_ratio"] =
            traced_issued > 0 ? static_cast<double>(traced_shed) /
                                    static_cast<double>(traced_issued)
                              : 0.0;
        m["train.pretrain_s"] = tracer.totalSeconds("train.pretrain");
        kernelMetrics(kernels, m);
        report.tables = [kernels](JsonWriter &json) {
            writeKernelRows(json, "kernels", kernels);
        };
    }
    return report;
}

} // namespace perfbench
