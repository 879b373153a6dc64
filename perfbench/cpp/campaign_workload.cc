/**
 * @file
 * The `campaign` workload: the fault-campaign sweep of VGG on
 * RANA(E-5) with the MiniVgg stand-in, over the fault_campaign
 * harness's grid (4 failure rates x 3 refresh intervals, 100 trials
 * per cell on every lane at the default lane block). Each pass
 * composes the sweep from the public phases: simulateExposures per
 * interval, prepareCampaignModel per rate, runPreparedCampaign per
 * cell, then the CampaignSweepReport that PreparedSweep::assembleSweep
 * would build (that method needs a PreparedSweep, whose factory runs
 * every phase itself, so the report is filled here). The host time
 * is in retraining and trial forwards; only three schedule+simulate
 * calls run per pass, so a pricing-engine change predicts about no
 * change here and a kernel change predicts a gain.
 */

#include <memory>
#include <optional>
#include <sstream>

#include "common.hh"
#include "rana.hh"
#include "sim/trace_export.hh"

namespace perfbench {

namespace {

using namespace rana;

/** Counts simulated events and stamps the first simulated layer. */
class EventCountSink : public TraceSink
{
  public:
    void onLayerBegin(const std::string &) override
    {
        if (!started_) {
            started_ = true;
            firstLayer_ = Clock::now();
        }
    }

    void onEvent(const TraceEvent &) override { ++events_; }

    std::uint64_t events() const { return events_; }
    bool started() const { return started_; }
    Clock::time_point firstLayer() const { return firstLayer_; }

  private:
    std::uint64_t events_ = 0;
    bool started_ = false;
    Clock::time_point firstLayer_;
};

/** Every modelled field of a cell report; host timings excluded. */
std::string
reportText(const FaultCampaignReport &report)
{
    std::ostringstream out;
    out << report.designName << " " << report.networkName << " "
        << report.modelName << " " << exact(report.baselineAccuracy)
        << " " << exact(report.operatingFailureRate) << "\n";
    for (const TrialResult &trial : report.trials) {
        out << trial.seed << " " << exact(trial.weightFailureRate) << " "
            << exact(trial.activationFailureRate) << " "
            << trial.exposedBanks << " " << trial.exposedWords << " "
            << exact(trial.accuracy) << " "
            << exact(trial.relativeAccuracy) << "\n";
    }
    for (const LayerExposure &exposure : report.exposures) {
        out << exposure.layerName;
        for (std::size_t t = 0; t < numDataTypes; ++t) {
            out << " " << exact(exposure.exposureSeconds[t]) << " "
                << exact(exposure.observedLifetimeSeconds[t]) << " "
                << exposure.banks[t] << " " << exposure.words[t];
        }
        out << "\n";
    }
    out << exact(report.meanAccuracy) << " " << exact(report.worstAccuracy)
        << " " << exact(report.p5RelativeAccuracy) << " "
        << exact(report.p50RelativeAccuracy) << " "
        << exact(report.p95RelativeAccuracy) << " "
        << exact(report.executionSeconds) << " "
        << report.retentionViolations << " " << report.refreshOps << "\n";
    return out.str();
}

std::string
exposuresText(const CampaignExposures &exposures)
{
    FaultCampaignReport as_report;
    as_report.networkName = exposures.networkName;
    as_report.exposures = exposures.exposures;
    as_report.executionSeconds = exposures.executionSeconds;
    as_report.retentionViolations = exposures.retentionViolations;
    as_report.refreshOps = exposures.refreshOps;
    return reportText(as_report);
}

struct CampaignPlan
{
    DesignPoint design;
    NetworkModel network;
    std::vector<double> rates;
    std::vector<double> intervals;
    FaultCampaignConfig campaign;
};

CampaignPlan
makePlan(const RunOptions &options, unsigned lanes, Checks &checks)
{
    CampaignPlan plan{makeDesignPoint(DesignKind::RanaE5,
                                      RetentionDistribution::typical65nm()),
                      NetworkModel("VGG"),
                      {0.0, 1e-5, 1e-4, 1e-3},
                      // The worst-case-cell interval, the certified
                      // 1e-5 interval and Figure 16's far end.
                      {45e-6, 734e-6, 1440e-6},
                      {}};
    Result<NetworkModel> network = makeBenchmarkChecked("VGG");
    if (checks.ok("makeBenchmarkChecked VGG", network))
        plan.network = std::move(network).value();

    // The fault_campaign harness's stand-in scale.
    DatasetConfig dataset;
    dataset.trainSamples = 256;
    dataset.testSamples = 128;
    dataset.imageSize = 12;
    dataset.numClasses = 4;
    dataset.seed = 42 + options.seed;
    TrainerConfig trainer;
    trainer.pretrainEpochs = 6;
    trainer.retrainEpochs = 2;
    trainer.evalRepeats = 2;
    trainer.seed = 7 + options.seed;
    std::uint32_t trials = 100;
    if (options.smallest) {
        dataset.trainSamples = 64;
        dataset.testSamples = 32;
        trainer.pretrainEpochs = 1;
        trainer.retrainEpochs = 1;
        trials = 8;
        plan.rates = {0.0, 1e-4};
        plan.intervals = {734e-6};
    }
    plan.campaign = FaultCampaignConfigBuilder()
                        .trials(trials)
                        .seed(options.seed)
                        .jobs(lanes)
                        .model(MiniModelKind::MiniVgg)
                        .dataset(dataset)
                        .trainer(trainer)
                        .build();
    return plan;
}

} // namespace

WorkloadReport
runCampaignWorkload(const RunOptions &options, Checks &checks,
                    Tracer &tracer)
{
    const unsigned lanes = rana::hardwareJobs();
    WorkloadReport report;
    report.lanes = lanes;
    CampaignPlan plan = makePlan(options, lanes, checks);
    const FaultCampaignConfig &campaign = plan.campaign;

    // Set-up is the pretraining. Every pass gets a freshly pretrained
    // trainer, as every sweep entry point does: retraining depends on
    // the trainer's history (restorePretrained restores the weights,
    // not the shuffle and injection streams), so a second sweep on one
    // trainer models different weights.
    PassDigests digests(checks, options.injectFault);
    std::unique_ptr<RetentionAwareTrainer> trainer;
    std::vector<double> setups;
    auto before = [&](std::size_t index) {
        Timed pretrain(tracer, "train.pretrain");
        trainer = std::make_unique<RetentionAwareTrainer>(
            campaign.model, campaign.dataset, campaign.trainer);
        const double baseline = trainer->pretrain();
        setups.push_back(pretrain.stop());
        digests.add("campaign.pretrained_baseline", index, exact(baseline));
    };

    const std::size_t cells = plan.rates.size() * plan.intervals.size();
    CallTimes cell_times;
    CallTimes call_times;
    std::vector<CampaignExposures> kept_exposures;
    std::vector<CampaignModel> kept_models;
    std::uint64_t refresh_ops = 0;
    std::uint64_t traced_trials = 0;
    std::uint64_t traced_corrupted = 0;
    std::uint64_t traced_events = 0;
    double traced_search = 0.0;
    double traced_simulate = 0.0;
    CampaignSweepReport sweep;

    auto pass = [&](std::size_t index) {
        // The warm-up pass 0 and traced passes are not samples.
        const bool sample = index > 0 && !tracer.enabled();
        std::vector<CampaignExposures> exposures;
        std::string exposure_text;
        std::uint64_t pass_refresh = 0;
        for (double interval : plan.intervals) {
            DesignPoint point = plan.design;
            point.options.refreshIntervalSeconds = interval;
            FaultCampaignConfig config = campaign;
            EventCountSink sink;
            if (tracer.enabled())
                config.traceSink = &sink;
            const Clock::time_point call = Clock::now();
            std::optional<Result<CampaignExposures>> simulated;
            {
                Timed span(tracer, "robust.simulate_exposures");
                simulated.emplace(
                    simulateExposures(point, plan.network, config));
                if (sample)
                    call_times.add("exposures " + exact(interval),
                                   span.stop());
            }
            if (tracer.enabled() && sink.started()) {
                // The sink's first layer marks where the call's
                // scheduling ends and its trace simulation starts.
                traced_search += std::chrono::duration<double>(
                                     sink.firstLayer() - call)
                                     .count();
                traced_simulate += secondsSince(sink.firstLayer());
                traced_events += sink.events();
            }
            if (!checks.ok("simulateExposures", *simulated))
                return;
            exposure_text += exposuresText(simulated->value());
            pass_refresh += simulated->value().refreshOps;
            exposures.push_back(std::move(*simulated).value());
        }

        std::vector<CampaignModel> models;
        for (double rate : plan.rates) {
            Timed span(tracer, "train.retrain");
            models.push_back(prepareCampaignModel(*trainer, campaign, rate));
            if (sample)
                call_times.add("retrain " + exact(rate), span.stop());
        }

        sweep = CampaignSweepReport();
        sweep.designName = plan.design.name;
        sweep.networkName = plan.network.name();
        sweep.modelName = miniModelName(campaign.model);
        sweep.baselineAccuracy = trainer->baselineAccuracy();
        sweep.failureRates = plan.rates;
        sweep.refreshIntervals = plan.intervals;
        std::string cell_text;
        for (std::size_t r = 0; r < plan.rates.size(); ++r) {
            for (std::size_t i = 0; i < plan.intervals.size(); ++i) {
                DesignPoint point = plan.design;
                point.options.refreshIntervalSeconds = plan.intervals[i];
                point.failureRate = plan.rates[r];
                std::optional<Result<FaultCampaignReport>> cell;
                double seconds = 0.0;
                {
                    Timed span(tracer, "robust.trials");
                    cell.emplace(runPreparedCampaign(
                        point, exposures[i], models[r], campaign));
                    seconds = span.stop();
                }
                if (!checks.ok("runPreparedCampaign", *cell))
                    return;
                if (sample)
                    cell_times.add("cell " + std::to_string(r) + "," +
                                       std::to_string(i),
                                   seconds);
                if (tracer.enabled()) {
                    for (const TrialResult &trial : cell->value().trials) {
                        ++traced_trials;
                        traced_corrupted += trial.exposedBanks > 0 ? 1 : 0;
                    }
                }
                cell_text += reportText(cell->value());
                sweep.cells.push_back(
                    {plan.rates[r], plan.intervals[i],
                     std::move(*cell).value()});
            }
        }
        refresh_ops = pass_refresh;
        digests.add("campaign.exposures", index, exposure_text);
        digests.add("campaign.cells", index, cell_text);
        digests.add("campaign.percentile_table", index,
                    sweep.percentileTable());
        kept_exposures = std::move(exposures);
        kept_models = std::move(models);
    };

    std::vector<KernelRow> kernels;
    auto post = [&]() {
        kernels = runKernelTable(tracer, campaign.dataset.imageSize,
                                 campaign.dataset.numClasses,
                                 campaign.dataset.testSamples,
                                 options.smallest);
    };

    const PassLog log =
        runPassSchedule(options, tracer, lanes, pass, post, before);
    report.threads = processThreads();
    report.passes = log;

    // Contract check, outside the timed region: the scalar path
    // (laneBlock = 1) reproduces the batched cell exactly.
    if (kept_exposures.size() == plan.intervals.size() &&
        kept_models.size() == plan.rates.size()) {
        const std::size_t r = plan.rates.size() > 1 ? 1 : 0;
        const std::size_t i = plan.intervals.size() > 1 ? 1 : 0;
        DesignPoint point = plan.design;
        point.options.refreshIntervalSeconds = plan.intervals[i];
        point.failureRate = plan.rates[r];
        FaultCampaignConfig scalar = campaign;
        scalar.laneBlock = 1;
        Result<FaultCampaignReport> batched = runPreparedCampaign(
            point, kept_exposures[i], kept_models[r], campaign);
        Result<FaultCampaignReport> reference = runPreparedCampaign(
            point, kept_exposures[i], kept_models[r], scalar);
        if (checks.ok("runPreparedCampaign default lane block", batched) &&
            checks.ok("runPreparedCampaign laneBlock=1", reference)) {
            checks.check("laneBlock=1 and the default lane block give "
                         "identical reports",
                         reportText(batched.value()) ==
                             reportText(reference.value()));
        }
    }

    const double setup_s = median(setups);
    const double pass_seconds =
        call_times.sumOfMedians() + cell_times.sumOfMedians();
    const double throughput =
        pass_seconds > 0.0 ? static_cast<double>(cells) / pass_seconds
                           : 0.0;
    const double p50 = cell_times.percentileOfMedians(50) * 1e3;
    const double p90 = cell_times.percentileOfMedians(90) * 1e3;
    report.endToEnd = {{"setup_s", setup_s, "s"},
                       {"throughput_per_s", throughput, "1/s"},
                       {"item_p50_ms", p50, "ms"},
                       {"item_p90_ms", p90, "ms"},
                       {"peak_rss_mb", peakRssMb(), "MB"}};
    report.named = {{"cells_per_s", throughput, "1/s"},
                    {"cell_trials_p50_ms", p50, "ms"},
                    {"cell_trials_p90_ms", p90, "ms"},
                    {"cells_measured",
                     static_cast<double>(cell_times.samples()), "count"},
                    {"cpu_util", log.cpuUtil, "ratio"}};
    double gate_p50 = 0.0;
    for (const SweepCell &cell : sweep.cells) {
        if (cell.failureRate == 1e-5 && cell.refreshIntervalSeconds == 734e-6)
            gate_p50 = cell.report.p50RelativeAccuracy;
    }
    report.modelled = {
        {"baseline_accuracy", sweep.baselineAccuracy, "ratio"},
        {"p50_relative_accuracy_1e-5_734us", gate_p50, "ratio"},
        {"refresh_ops_per_pass", static_cast<double>(refresh_ops),
         "count"}};
    report.digests = digests.digests();

    if (options.trace) {
        const double passes = static_cast<double>(log.traced.size());
        auto &m = report.perLayer;
        commonPerLayer(log, tracer, m);
        m["train.pretrain_s"] = median(tracer.durations("train.pretrain"));
        m["train.retrain_s"] = tracer.totalSeconds("train.retrain") / passes;
        m["robust.simulate_exposures_s"] =
            tracer.totalSeconds("robust.simulate_exposures") / passes;
        const double trials_s = tracer.totalSeconds("robust.trials");
        m["robust.trials_s"] = trials_s / passes;
        m["robust.trials_per_s"] =
            trials_s > 0.0 ? static_cast<double>(traced_trials) / trials_s
                           : 0.0;
        m["robust.copy_on_corrupt_ratio"] =
            traced_trials > 0 ? static_cast<double>(traced_corrupted) /
                                    static_cast<double>(traced_trials)
                              : 0.0;
        m["sched.search_s"] = traced_search / passes;
        m["sim.execute_s"] = traced_simulate / passes;
        m["sim.events"] = static_cast<double>(traced_events) / passes;
        m["sim.ns_per_event"] =
            traced_events > 0
                ? traced_simulate * 1e9 / static_cast<double>(traced_events)
                : 0.0;
        m["edram.refresh_ops"] = static_cast<double>(refresh_ops);
        kernelMetrics(kernels, m);
        report.tables = [kernels](JsonWriter &json) {
            writeKernelRows(json, "kernels", kernels);
        };
    }
    return report;
}

} // namespace perfbench
