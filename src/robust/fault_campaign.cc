/**
 * @file
 * Implementation of the fault-injection campaign engine.
 */

#include "robust/fault_campaign.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <utility>

#include "core/experiments.hh"
#include "energy/technology.hh"
#include "obs/chrome_trace.hh"
#include "obs/metrics_registry.hh"
#include "sched/layer_scheduler.hh"
#include "sim/loopnest_simulator.hh"
#include "sim/trace_export.hh"
#include "train/lane_scorer.hh"
#include "train/mini_models.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"

namespace rana {

namespace {

constexpr std::size_t kInput = static_cast<std::size_t>(DataType::Input);
constexpr std::size_t kOutput =
    static_cast<std::size_t>(DataType::Output);
constexpr std::size_t kWeight =
    static_cast<std::size_t>(DataType::Weight);

/** Whether `type`'s banks are refreshed under the layer's config. */
bool
typeRefreshed(RefreshPolicy policy, const LayerSchedule &layer,
              std::size_t type)
{
    switch (policy) {
      case RefreshPolicy::None:
        return false;
      case RefreshPolicy::ConventionalAll:
        return true;
      case RefreshPolicy::GatedGlobal:
        return layer.gateOn;
      case RefreshPolicy::PerBank:
        return layer.refreshFlags[type];
    }
    panic("unreachable refresh policy in typeRefreshed");
}

} // namespace

std::string
FaultCampaignReport::describe() const
{
    std::ostringstream oss;
    oss << designName << " on " << networkName << " (" << modelName
        << "): baseline " << baselineAccuracy << ", mean accuracy "
        << meanAccuracy << " (p5 " << p5Accuracy << ", p50 "
        << p50Accuracy << ", p95 " << p95Accuracy << ", worst "
        << worstAccuracy << ", relative " << meanRelativeAccuracy
        << ") over " << trials.size() << " trials, "
        << retentionViolations << " corrupted-word events";
    if (guarded) {
        oss << ", guard[" << guardPolicyName << "] trips "
            << guardStats.trips << " (" << guardStats.banksReenabled
            << " banks re-enabled";
        if (guardStats.redisarms > 0)
            oss << ", " << guardStats.redisarms << " re-disarms";
        if (guardStats.escalations > 0)
            oss << ", " << guardStats.escalations << " escalations";
        oss << ")";
    }
    return oss.str();
}

Result<CampaignExposures>
simulateExposures(const DesignPoint &design,
                  const NetworkModel &network,
                  const FaultCampaignConfig &config)
{
    Result<NetworkSchedule> scheduled =
        scheduleNetwork(design.config, network, design.options);
    if (!scheduled.ok())
        return scheduled.error();
    const NetworkSchedule schedule = std::move(scheduled).value();

    CampaignExposures result;
    result.networkName = network.name();
    result.guarded = config.guard;

    // Phase 1: execute the schedule on the trace simulator, under
    // the configured timing faults and (optionally) the runtime
    // guard, and take each buffered tensor's observed lifetime from
    // the simulator's read events.
    ScopedSpan span("campaign", "simulate");
    Result<std::unique_ptr<GuardPolicy>> policy = makeGuardPolicy(
        config.guardPolicy, design.config.buffer, config.retention,
        design.failureRate, config.seed);
    if (!policy.ok())
        return policy.error();
    ReliabilityGuard guard(design.options.refreshIntervalSeconds,
                           std::move(policy).value());
    if (config.guard)
        result.guardPolicyName = guard.policy().name();
    Result<std::vector<LayerSimResult>> simulated = simulateLayersChecked(
        design, network, schedule, config.timingFaults,
        config.guard ? &guard : nullptr, config.traceSink);
    if (!simulated.ok())
        return simulated.error();
    const std::vector<LayerSimResult> layer_sims =
        std::move(simulated).value();
    for (const LayerSimResult &layer : layer_sims) {
        result.executionSeconds += layer.layerSeconds;
        result.retentionViolations += layer.violations;
        result.refreshOps += layer.refreshOps;
    }
    if (config.guard)
        result.guardStats = guard.stats();

    // Phase 2: exposure per (layer, data type). Refreshed banks age
    // at most one refresh interval; a guarded run caps unrefreshed
    // banks at the interval too (the watchdog fallback recharges
    // them before any longer exposure is read). Unguarded,
    // unrefreshed banks are exposed for the full observed lifetime.
    const double interval = design.options.refreshIntervalSeconds;
    const bool volatile_cells =
        macroParams(design.config.buffer.technology).needsRefresh;
    result.exposures.reserve(network.size());
    for (std::size_t i = 0; i < network.size(); ++i) {
        const LayerSchedule &layer = schedule.layers[i];
        const BankAllocation alloc =
            analysisBankAllocation(design.config, layer.analysis);
        LayerExposure exposure;
        exposure.layerName = layer.layerName;
        std::uint32_t bank_start = 0;
        for (std::size_t t = 0; t < numDataTypes; ++t) {
            exposure.banks[t] = alloc.banks[t];
            exposure.words[t] = alloc.words[t];
            exposure.bankStart[t] = bank_start;
            bank_start += alloc.banks[t];
            const double lifetime = layer_sims[i].observedLifetime[t];
            exposure.observedLifetimeSeconds[t] = lifetime;
            if (!volatile_cells || alloc.words[t] == 0)
                continue;
            double exposed = lifetime;
            const bool refreshed = typeRefreshed(
                design.options.policy, layer, t);
            if (refreshed || config.guard)
                exposed = std::min(exposed, interval);
            exposure.exposureSeconds[t] = exposed;
        }
        result.exposures.push_back(std::move(exposure));
    }
    return result;
}

CampaignModel
prepareCampaignModel(RetentionAwareTrainer &trainer,
                     const FaultCampaignConfig &config,
                     double failure_rate)
{
    // Phase 3: train the stand-in model. The retrain at the
    // operating failure rate is the paper's retention-aware
    // training; skipping it gives the untrained control.
    ScopedSpan span("campaign", "retrain");
    trainer.restorePretrained();
    if (config.retrain && failure_rate > 0.0)
        trainer.retrain(failure_rate);

    CampaignModel model;
    model.modelName = miniModelName(config.model);
    model.baselineAccuracy = trainer.baselineAccuracy();
    model.failureRate = failure_rate;
    model.format = config.trainer.format;
    model.weights = trainer.exportWeightsShared(model.format);
    model.test = trainer.dataset().testBatch();
    return model;
}

std::unique_ptr<Sequential>
bindCampaignSkeleton(const FaultCampaignConfig &config,
                     const CampaignModel &model)
{
    RANA_ASSERT(model.weights != nullptr,
                "campaign model has no weight store");
    // The initial weights are never read: binding replaces them.
    Rng unused(0);
    auto skeleton =
        makeMiniModel(config.model, config.dataset.imageSize,
                      config.dataset.numClasses, unused);
    bindSharedWeights(*skeleton, *model.weights);
    return skeleton;
}

Result<std::vector<FaultCampaignReport>>
runPreparedCells(std::span<const PreparedCell> cells)
{
    RANA_ASSERT(!cells.empty(), "no campaign cells to run");
    const FaultCampaignConfig &shared = *cells.front().config;
    for (const PreparedCell &cell : cells) {
        if (cell.config->trials == 0) {
            return makeError(ErrorCode::InvalidArgument,
                             "fault campaign needs at least one trial");
        }
        RANA_ASSERT(cell.config->jobs == shared.jobs &&
                        cell.config->laneBlock == shared.laneBlock,
                    "campaign cells of one run share jobs and laneBlock");
    }
    ScopedSpan span("campaign", "trials");
    const auto trials_started = std::chrono::steady_clock::now();
    const unsigned jobs = shared.jobs == 0 ? hardwareJobs() : shared.jobs;

    std::vector<FaultCampaignReport> reports(cells.size());
    std::vector<RetentionSampler> samplers;
    samplers.reserve(cells.size());
    // (cell, trial) of every trial, cell-major.
    std::vector<std::pair<std::size_t, std::uint32_t>> trials;
    for (std::size_t c = 0; c < cells.size(); ++c) {
        const PreparedCell &cell = cells[c];
        const CampaignExposures &exposures = *cell.exposures;
        FaultCampaignReport &report = reports[c];
        report.designName = cell.design.name;
        report.networkName = exposures.networkName;
        report.modelName = cell.model->modelName;
        report.operatingFailureRate = cell.model->failureRate;
        report.baselineAccuracy = cell.model->baselineAccuracy;
        report.guarded = exposures.guarded;
        report.guardPolicyName = exposures.guardPolicyName;
        report.guardStats = exposures.guardStats;
        report.exposures = exposures.exposures;
        report.executionSeconds = exposures.executionSeconds;
        report.retentionViolations = exposures.retentionViolations;
        report.refreshOps = exposures.refreshOps;
        report.trials.resize(cell.config->trials);
        samplers.emplace_back(cell.config->retention,
                              cell.design.config.buffer.bankWords() * 16);
        for (std::uint32_t t = 0; t < cell.config->trials; ++t)
            trials.emplace_back(c, t);
    }

    // Phase 4a: per-trial chip sampling, every trial of every cell in
    // one parallelFor. Each trial samples one chip (per-bank weakest
    // cells) and converts exposed words into effective failure rates.
    // Results land in per-trial slots, so the reports are identical
    // for any lane count or job count.
    parallelFor(trials.size(), jobs, [&](std::size_t k) {
        const auto [c, trial] = trials[k];
        const FaultCampaignConfig &config = *cells[c].config;
        const auto &buffer = cells[c].design.config.buffer;
        const std::vector<LayerExposure> &exposures =
            reports[c].exposures;
        TrialResult &result = reports[c].trials[trial];
        result.seed = config.seed * 1000003 + trial;
        Rng rng(result.seed);
        const std::vector<double> bank_retention =
            samplers[c].sampleBanks(buffer.numBanks, rng);
        const std::uint64_t bank_words = buffer.bankWords();
        const double worst_case = config.retention.worstCaseRetention();

        // Denominators of the effective-rate averages: every buffered
        // word of the class across the network, exposed or not.
        double total_weight_words = 0.0;
        double total_act_words = 0.0;
        double weighted_weight = 0.0;
        double weighted_act = 0.0;
        for (const LayerExposure &exposure : exposures) {
            total_weight_words +=
                static_cast<double>(exposure.words[kWeight]);
            total_act_words +=
                static_cast<double>(exposure.words[kInput]) +
                static_cast<double>(exposure.words[kOutput]);
            for (std::size_t t = 0; t < numDataTypes; ++t) {
                const double exposed = exposure.exposureSeconds[t];
                if (exposed <= 0.0 || exposure.words[t] == 0 ||
                    exposure.banks[t] == 0) {
                    continue;
                }
                // Below the weakest-cell anchor no cell can fail.
                if (exposed < worst_case)
                    continue;
                const double rate =
                    config.retention.failureRateAt(exposed);
                for (std::uint32_t k = 0; k < exposure.banks[t];
                     ++k) {
                    const std::uint32_t index =
                        exposure.bankStart[t] + k;
                    if (index >= bank_retention.size() ||
                        bank_retention[index] >= exposed) {
                        continue;
                    }
                    const std::uint64_t words_in_bank = std::min(
                        bank_words,
                        exposure.words[t] -
                            std::min<std::uint64_t>(
                                exposure.words[t],
                                static_cast<std::uint64_t>(k) *
                                    bank_words));
                    ++result.exposedBanks;
                    result.exposedWords += words_in_bank;
                    const double contribution =
                        static_cast<double>(words_in_bank) * rate;
                    if (t == kWeight)
                        weighted_weight += contribution;
                    else
                        weighted_act += contribution;
                }
            }
        }
        result.weightFailureRate =
            total_weight_words > 0.0
                ? weighted_weight / total_weight_words
                : 0.0;
        result.activationFailureRate =
            total_act_words > 0.0 ? weighted_act / total_act_words
                                  : 0.0;
    });

    // Phase 4b: corrupted forwards. Each trial is a lane over the
    // whole test batch with injectors seeded by the trial alone. The
    // trials of every cell on one model form that model's lane list,
    // cells in order, scored against the model's clean cache: every
    // (trial, sample) pair resumes at its first failed layer or takes
    // its clean prediction, and all lists' blocks run in one fan-out.
    // Every lane is bit-identical to its 1-lane forward, so the
    // grouping and the block size only move wall-clock. The caches
    // live for this call.
    std::vector<const CampaignModel *> models;
    std::vector<std::unique_ptr<Sequential>> skeletons;
    std::vector<std::unique_ptr<CleanCache>> caches;
    std::vector<LaneList> lists;
    // The lane list of every cell.
    std::vector<std::size_t> list_of(cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
        const CampaignModel *model = cells[c].model;
        const auto m = static_cast<std::size_t>(
            std::find(models.begin(), models.end(), model) -
            models.begin());
        list_of[c] = m;
        if (m == models.size()) {
            models.push_back(model);
            skeletons.push_back(
                bindCampaignSkeleton(*cells[c].config, *model));
            caches.push_back(std::make_unique<CleanCache>(
                *skeletons.back(), model->format, model->test, jobs));
            lists.push_back(
                {skeletons.back().get(), &model->format, &model->test,
                 static_cast<std::uint32_t>(model->test.labels.size()),
                 {},
                 caches.back().get()});
        }
        for (const TrialResult &trial : reports[c].trials) {
            lists[m].lanes.push_back(
                {0,
                 {trial.activationFailureRate, trial.seed * 2 + 1},
                 {trial.weightFailureRate, trial.seed * 2 + 2}});
        }
    }
    const LaneScores scores =
        scoreLaneLists(lists,
                       shared.laneBlock == 0 ? kDefaultLaneBlock
                                             : shared.laneBlock,
                       jobs);
    // Each list's lanes are its cells' trials in cell-major order.
    std::vector<std::size_t> next(lists.size(), 0);
    for (const auto &[c, t] : trials) {
        const std::size_t m = list_of[c];
        reports[c].trials[t].accuracy =
            static_cast<double>(scores.correct[m][next[m]++]) /
            static_cast<double>(lists[m].samplesPerLane);
    }
    std::uint64_t forward_macs = scores.forwardMacs;
    for (const std::unique_ptr<CleanCache> &cache : caches)
        forward_macs += cache->forwardMacs();
    caches.clear();
    const double trial_seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - trials_started)
            .count();

    MetricsRegistry &registry = MetricsRegistry::global();
    // Work counters of the trial phase, from the plan: deterministic
    // per seed and block size.
    registry.counter("campaign_forward_macs_total").add(forward_macs);
    registry.counter("campaign_clean_pairs_total").add(scores.cleanPairs);
    for (FaultCampaignReport &report : reports) {
        report.trialSeconds = trial_seconds;
        report.trialsPerSecond =
            trial_seconds > 0.0
                ? static_cast<double>(trials.size()) / trial_seconds
                : 0.0;
        std::vector<double> accuracies;
        std::vector<double> relatives;
        report.worstAccuracy = 1.0;
        report.worstRelativeAccuracy = 1.0;
        std::uint64_t corrupted = 0;
        std::uint64_t exposed_words = 0;
        for (TrialResult &trial : report.trials) {
            trial.relativeAccuracy =
                report.baselineAccuracy > 0.0
                    ? trial.accuracy / report.baselineAccuracy
                    : 0.0;
            accuracies.push_back(trial.accuracy);
            relatives.push_back(trial.relativeAccuracy);
            report.meanAccuracy += trial.accuracy;
            report.meanRelativeAccuracy += trial.relativeAccuracy;
            report.meanWeightFailureRate += trial.weightFailureRate;
            report.meanActivationFailureRate +=
                trial.activationFailureRate;
            report.worstAccuracy =
                std::min(report.worstAccuracy, trial.accuracy);
            report.worstRelativeAccuracy = std::min(
                report.worstRelativeAccuracy, trial.relativeAccuracy);
            corrupted += trial.exposedBanks > 0 ? 1 : 0;
            exposed_words += trial.exposedWords;
        }
        // Corruption-rate counters, tallied serially from the trial
        // slots so the registry totals are deterministic per seed.
        registry.counter("campaign_trials_total")
            .add(report.trials.size());
        registry.counter("campaign_corrupted_trials_total")
            .add(corrupted);
        registry.counter("campaign_exposed_words_total")
            .add(exposed_words);
        registry.gauge("campaign_trials_per_second")
            .set(report.trialsPerSecond);

        const auto count = static_cast<double>(report.trials.size());
        report.meanAccuracy /= count;
        report.meanRelativeAccuracy /= count;
        report.meanWeightFailureRate /= count;
        report.meanActivationFailureRate /= count;
        report.p5Accuracy = percentile(accuracies, 5.0);
        report.p50Accuracy = percentile(accuracies, 50.0);
        report.p95Accuracy = percentile(accuracies, 95.0);
        report.p5RelativeAccuracy = percentile(relatives, 5.0);
        report.p50RelativeAccuracy = percentile(relatives, 50.0);
        report.p95RelativeAccuracy = percentile(relatives, 95.0);
    }
    return reports;
}

Result<FaultCampaignReport>
runPreparedCampaign(const DesignPoint &design,
                    const CampaignExposures &exposures,
                    const CampaignModel &model,
                    const FaultCampaignConfig &config)
{
    const PreparedCell cell{design, &exposures, &model, &config};
    Result<std::vector<FaultCampaignReport>> reports =
        runPreparedCells({&cell, 1});
    if (!reports.ok())
        return reports.error();
    std::vector<FaultCampaignReport> one = std::move(reports).value();
    return std::move(one.front());
}

} // namespace rana
