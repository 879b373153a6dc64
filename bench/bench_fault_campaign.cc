/**
 * @file
 * Fault-campaign sweep harness: the EDEN-style accuracy frontier
 * over a failure-rate x refresh-interval grid (the operational
 * counterpart of Figure 16's retention-time sweep).
 *
 * Sweeps the RANA(E-5) design on AlexNet across four retraining
 * failure rates and three refresh intervals, 100 trials per cell
 * (--trials overrides), and reports the
 * p5/p50/p95/worst relative-accuracy band per cell. Emits the
 * machine-readable BENCH_fault_campaign.json consumed by the CI
 * regression gate (tools/check_bench.py): the gated statistics are
 * the p50 relative accuracy at the paper's retrained 1e-5 operating
 * point and the campaign throughput in grid cells per second (the
 * trial-batched forward pass must stay >= min_speedup x the scalar
 * baseline recorded in tools/bench_baseline.json).
 *
 * The corrupted forwards inside each cell run trial-major batches
 * (FaultCampaignConfig::laneBlock trials per batched pass over the
 * fixed-point kernels). Results are bit-identical for any lane
 * count.
 *
 * A second section compares the three guard decision policies
 * (permanent, hysteresis, binned) at the gate operating point under
 * an injected scan stall that provokes watchdog trips; the per-policy
 * counters and accuracy bands land in the JSON's "guard_policies"
 * array, also under the regression gate.
 *
 * The sweep is deterministic per seed for any worker-lane count, so
 * the JSON is reproducible across runs on the same build.
 */

#include "harness.hh"

#include <algorithm>
#include <chrono>

#include "robust/campaign_sweep.hh"
#include "util/ascii_chart.hh"
#include "util/json_writer.hh"
#include "util/logging.hh"

namespace {

using namespace rana;

/** The paper's retrained operating point within the grid. */
constexpr double kGateRate = 1e-5;

std::string
rateLabel(double rate)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0e", rate);
    return buf;
}

std::string
intervalLabel(double seconds)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0fus", seconds * 1e6);
    return buf;
}

/** Append the sweep's legacy fields to the driver's open artifact. */
void
sweepJson(JsonWriter &json, const CampaignSweepReport &report,
          const CampaignSweepReport &comparison,
          const CampaignSweepConfig &config,
          double cells_per_second)
{
    json.field("bench", "fault_campaign");
    json.field("design", report.designName);
    json.field("network", report.networkName);
    json.field("model", report.modelName);
    json.field("trials",
               static_cast<std::uint64_t>(config.campaign.trials));
    json.field("seed", config.campaign.seed);
    json.field("lane_block",
               static_cast<std::uint64_t>(
                   config.campaign.laneBlock == 0
                       ? kDefaultLaneBlock
                       : config.campaign.laneBlock));
    json.field("baseline_accuracy", report.baselineAccuracy);
    // The throughput gate's statistic (grid cells per second over
    // the whole sweep), surfaced at the top level like "gate".
    json.field("campaign_throughput", cells_per_second);
    json.beginArray("failure_rates");
    for (double rate : report.failureRates)
        json.element(rate);
    json.endArray();
    json.beginArray("refresh_intervals");
    for (double interval : report.refreshIntervals)
        json.element(interval);
    json.endArray();
    json.beginArray("cells");
    for (const SweepCell &cell : report.cells) {
        const FaultCampaignReport &r = cell.report;
        json.beginObject();
        json.field("failure_rate", cell.failureRate);
        json.field("refresh_interval", cell.refreshIntervalSeconds);
        json.field("mean_accuracy", r.meanAccuracy);
        json.field("p5_accuracy", r.p5Accuracy);
        json.field("p50_accuracy", r.p50Accuracy);
        json.field("p95_accuracy", r.p95Accuracy);
        json.field("worst_accuracy", r.worstAccuracy);
        json.field("mean_relative_accuracy", r.meanRelativeAccuracy);
        json.field("p5_relative_accuracy", r.p5RelativeAccuracy);
        json.field("p50_relative_accuracy", r.p50RelativeAccuracy);
        json.field("p95_relative_accuracy", r.p95RelativeAccuracy);
        json.field("worst_relative_accuracy",
                   r.worstRelativeAccuracy);
        json.field("mean_weight_failure_rate",
                   r.meanWeightFailureRate);
        json.field("mean_activation_failure_rate",
                   r.meanActivationFailureRate);
        json.field("execution_seconds", r.executionSeconds);
        json.field("refresh_ops", r.refreshOps);
        json.field("retention_violations", r.retentionViolations);
        json.endObject();
    }
    json.endArray();
    // The CI gate's statistic, surfaced at the top level so the
    // checker does not have to match floating-point grid axes.
    const SweepCell *gate = nullptr;
    for (const SweepCell &cell : report.cells) {
        if (cell.failureRate == kGateRate &&
            cell.refreshIntervalSeconds ==
                report.refreshIntervals[1]) {
            gate = &cell;
        }
    }
    if (gate != nullptr) {
        json.beginObject("gate");
        json.field("failure_rate", gate->failureRate);
        json.field("refresh_interval",
                   gate->refreshIntervalSeconds);
        json.field("p50_relative_accuracy",
                   gate->report.p50RelativeAccuracy);
        json.field("worst_relative_accuracy",
                   gate->report.worstRelativeAccuracy);
        json.endObject();
    }
    // The guard-policy comparison at the gate point, one object per
    // policy with the summed controller counters and the pooled
    // accuracy band (tools/check_bench.py gates these too).
    json.beginArray("guard_policies");
    for (std::size_t p = 0; p < comparison.policyNames.size(); ++p) {
        const GuardPolicyRow row = comparison.policyRow(p);
        json.beginObject();
        json.field("policy", row.policy);
        json.field("trips", row.trips);
        json.field("banks_reenabled", row.banksReenabled);
        json.field("redisarms", row.redisarms);
        json.field("escalations", row.escalations);
        json.field("fallback_refresh_ops", row.fallbackRefreshOps);
        json.field("armed_refresh_ops", row.armedRefreshOps);
        json.field("retention_violations", row.violations);
        json.field("p5_relative_accuracy", row.p5RelativeAccuracy);
        json.field("p50_relative_accuracy", row.p50RelativeAccuracy);
        json.field("p95_relative_accuracy", row.p95RelativeAccuracy);
        json.endObject();
    }
    json.endArray();
}

void
runFaultCampaignBench(rana::bench::BenchContext &ctx)
{
    using namespace rana::bench;

    const std::uint32_t trials = ctx.trials > 0 ? ctx.trials : 100;
    DatasetConfig dataset;
    dataset.trainSamples = 256;
    dataset.testSamples = 128;
    dataset.imageSize = 12;
    dataset.numClasses = 4;
    TrainerConfig trainer;
    trainer.pretrainEpochs = 6;
    trainer.retrainEpochs = 2;
    trainer.evalRepeats = 2;

    CampaignSweepConfig config;
    config.failureRates = {0.0, 1e-5, 1e-4, 1e-3};
    // 45us is the worst-case-cell interval, 734us the certified
    // 1e-5 interval, 1440us Figure 16's far end.
    config.refreshIntervals = {45e-6, 734e-6, 1440e-6};
    FaultCampaignConfigBuilder campaign = FaultCampaignConfigBuilder()
                                              .trials(trials)
                                              .seed(3)
                                              .dataset(dataset)
                                              .trainer(trainer);
    config.campaign = campaign.build();

    const DesignPoint design =
        makeDesignPoint(DesignKind::RanaE5, retention());
    const NetworkModel network = makeAlexNet();

    std::cout << design.name << " on " << network.name() << ", "
              << config.campaign.trials << " trials per cell, "
              << config.failureRates.size() << "x"
              << config.refreshIntervals.size() << " grid, "
              << (config.campaign.laneBlock == 0
                      ? kDefaultLaneBlock
                      : config.campaign.laneBlock)
              << " trial lanes\n\n";

    const auto sweep_start = std::chrono::steady_clock::now();
    const Result<CampaignSweepReport> swept =
        runCampaignSweep(design, network, config);
    const double sweep_seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - sweep_start)
            .count();
    if (!swept.ok())
        fatal("campaign sweep failed: ", swept.error().message);
    const CampaignSweepReport &report = swept.value();

    const double cells = static_cast<double>(
        config.failureRates.size() * config.refreshIntervals.size());
    const double cells_per_second =
        cells / std::max(sweep_seconds, 1e-9);
    ctx.perf("campaign_throughput", cells_per_second, "cells/s");
    ctx.perf("trials_per_second",
             cells * trials / std::max(sweep_seconds, 1e-9),
             "trials/s");

    // The Figure-16-comparable table: one row per grid cell with
    // the execution counters and the accuracy band.
    TextTable table("Accuracy band per (failure rate, interval)");
    table.header({"Rate", "Interval", "Refresh ops", "p5", "p50",
                  "p95", "worst", "rel. p50"});
    for (std::size_t r = 0; r < report.failureRates.size(); ++r) {
        for (std::size_t i = 0; i < report.refreshIntervals.size();
             ++i) {
            const FaultCampaignReport &cell = report.at(r, i).report;
            table.row({rateLabel(report.failureRates[r]),
                       intervalLabel(report.refreshIntervals[i]),
                       std::to_string(cell.refreshOps),
                       ratio(cell.p5Accuracy),
                       ratio(cell.p50Accuracy),
                       ratio(cell.p95Accuracy),
                       ratio(cell.worstAccuracy),
                       ratio(cell.p50RelativeAccuracy)});
        }
        table.rule();
    }
    table.print(std::cout);
    std::cout << "\ncampaign throughput: " << ratio(cells_per_second)
              << " cells/s (" << ratio(sweep_seconds)
              << "s for the grid)\n";

    // The accuracy-vs-rate frontier at the certified interval.
    const std::size_t op_interval = 1;
    BarChart chart("Relative p50 accuracy vs failure rate at " +
                   intervalLabel(
                       report.refreshIntervals[op_interval]));
    chart.segments({"relative p50 accuracy"});
    for (std::size_t r = 0; r < report.failureRates.size(); ++r) {
        chart.bar(rateLabel(report.failureRates[r]),
                  {report.at(r, op_interval)
                       .report.p50RelativeAccuracy});
    }
    std::cout << "\n";
    chart.print(std::cout);

    std::cout << "\nMarkdown percentile grid (relative accuracy, "
                 "p50 [p5, p95]):\n\n"
              << report.percentileTable();

    // Guard-policy comparison at the gate operating point. The
    // injected scan stall stretches observed lifetimes past the
    // tolerable period so the watchdog actually trips (the recipe
    // the robustness tests use); retraining is off so the policies
    // are compared on the same pretrained model.
    TimingFaults stall;
    stall.scanStallSeconds = 0.03;
    CampaignSweepConfig compare;
    compare.failureRates = {kGateRate};
    compare.refreshIntervals = {734e-6};
    compare.campaign = FaultCampaignConfigBuilder()
                           .trials(trials)
                           .seed(3)
                           .dataset(dataset)
                           .trainer(trainer)
                           .retrain(false)
                           .timingFaults(stall)
                           .guard(true)
                           .build();
    compare.guardPolicies = stockGuardPolicies(GuardPolicySpec{});

    const Result<CampaignSweepReport> compared =
        runCampaignSweep(design, network, compare);
    if (!compared.ok()) {
        fatal("guard-policy comparison failed: ",
              compared.error().message);
    }
    const CampaignSweepReport &comparison = compared.value();

    std::cout << "\nGuard-policy comparison at "
              << rateLabel(kGateRate) << " x "
              << intervalLabel(compare.refreshIntervals[0])
              << " under a 30ms scan stall:\n\n"
              << comparison.comparisonTable();

    sweepJson(*ctx.json, report, comparison, config,
              cells_per_second);
}

} // namespace

RANA_BENCH("fault_campaign",
           "Fault-campaign sweep - accuracy percentile bands over "
           "the failure-rate x refresh-interval grid",
           runFaultCampaignBench);
