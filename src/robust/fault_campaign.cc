/**
 * @file
 * Implementation of the fault-injection campaign engine.
 */

#include "robust/fault_campaign.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>

#include "core/experiments.hh"
#include "energy/technology.hh"
#include "obs/chrome_trace.hh"
#include "obs/metrics_registry.hh"
#include "sched/layer_scheduler.hh"
#include "sim/loopnest_simulator.hh"
#include "sim/trace_export.hh"
#include "train/loss.hh"
#include "train/mini_models.hh"
#include "train/trial_batch.hh"
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

/**
 * Fuse `lanes` consecutive trials starting at `first` into one
 * lane-major forward pass and write each lane's accuracy back into
 * its trial slot. The pass is padded to kernelLanes(lanes) lanes, so
 * a remainder block or an odd lane block still runs a compile-time
 * kernel; pad lanes carry no injector and are never read. Lane l
 * draws from the injectors seeded by its trial alone and runs the
 * per-lane arithmetic of a 1-lane forward, so any block size gives
 * the same accuracies bit for bit.
 */
void
batchedBlockAccuracies(Layer &skeleton, const CampaignModel &model,
                       std::vector<TrialResult> &trials,
                       std::size_t first, std::uint32_t lanes)
{
    const std::uint32_t width = kernelLanes(lanes);
    std::vector<BitErrorInjector> act_injectors;
    std::vector<BitErrorInjector> weight_injectors;
    act_injectors.reserve(lanes);
    weight_injectors.reserve(lanes);
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const TrialResult &trial = trials[first + l];
        act_injectors.emplace_back(trial.activationFailureRate,
                                   trial.seed * 2 + 1);
        weight_injectors.emplace_back(trial.weightFailureRate,
                                      trial.seed * 2 + 2);
    }
    ForwardContext ctx;
    ctx.quant = &model.format;
    ctx.weightsPreQuantized = true;
    ctx.training = false;
    ctx.injectors.assign(width, nullptr);
    ctx.weightInjectors.assign(width, nullptr);
    for (std::uint32_t l = 0; l < lanes; ++l) {
        ctx.injectors[l] = &act_injectors[l];
        ctx.weightInjectors[l] = &weight_injectors[l];
    }
    const Tensor logits =
        skeleton.forward(packTrialLanes(model.test.images, width), ctx);
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const Tensor lane_logits = extractTrialLane(logits, l);
        const LossResult loss =
            softmaxCrossEntropy(lane_logits, model.test.labels);
        trials[first + l].accuracy =
            static_cast<double>(loss.correct) /
            static_cast<double>(model.test.labels.size());
    }
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
    model.weights = trainer.exportWeightsShared(&model.format);
    model.test = trainer.dataset().testBatch();
    return model;
}

Result<FaultCampaignReport>
runPreparedCampaign(const DesignPoint &design,
                    const CampaignExposures &exposures,
                    const CampaignModel &model,
                    const FaultCampaignConfig &config)
{
    if (config.trials == 0) {
        return makeError(ErrorCode::InvalidArgument,
                         "fault campaign needs at least one trial");
    }
    RANA_ASSERT(model.weights != nullptr,
                "campaign model has no weight store");
    ScopedSpan span("campaign", "trials");

    FaultCampaignReport report;
    report.designName = design.name;
    report.networkName = exposures.networkName;
    report.modelName = model.modelName;
    report.operatingFailureRate = model.failureRate;
    report.baselineAccuracy = model.baselineAccuracy;
    report.guarded = exposures.guarded;
    report.guardPolicyName = exposures.guardPolicyName;
    report.guardStats = exposures.guardStats;
    report.exposures = exposures.exposures;
    report.executionSeconds = exposures.executionSeconds;
    report.retentionViolations = exposures.retentionViolations;
    report.refreshOps = exposures.refreshOps;

    // One skeleton model serves every trial: eval-mode forward
    // passes are re-entrant, the bound store is immutable, and a
    // trial copies the weights only when it actually injects bit
    // errors (copy-on-corrupt).
    Rng skeleton_rng(config.seed ^ 0x9e3779b97f4a7c15ULL);
    auto skeleton =
        makeMiniModel(config.model, config.dataset.imageSize,
                      config.dataset.numClasses, skeleton_rng);
    bindSharedWeights(*skeleton, *model.weights);

    // Denominators of the effective-rate averages: every buffered
    // word of the class across the network, exposed or not.
    double total_weight_words = 0.0;
    double total_act_words = 0.0;
    for (const LayerExposure &exposure : report.exposures) {
        total_weight_words +=
            static_cast<double>(exposure.words[kWeight]);
        total_act_words +=
            static_cast<double>(exposure.words[kInput]) +
            static_cast<double>(exposure.words[kOutput]);
    }

    // Phase 4a: per-trial chip sampling. Each trial samples one chip
    // (per-bank weakest cells) and converts exposed words into
    // effective failure rates. Results land in per-trial slots, so
    // the report is identical for any lane count or job count.
    const auto trials_started = std::chrono::steady_clock::now();
    const RetentionSampler sampler(
        config.retention, design.config.buffer.bankWords() * 16);
    const std::uint64_t bank_words = design.config.buffer.bankWords();
    const double worst_case = config.retention.worstCaseRetention();
    const unsigned jobs =
        config.jobs == 0 ? hardwareJobs() : config.jobs;
    report.trials.resize(config.trials);
    parallelFor(config.trials, jobs, [&](std::size_t trial) {
        TrialResult result;
        const std::uint64_t trial_seed =
            config.seed * 1000003 + trial;
        result.seed = trial_seed;

        Rng rng(trial_seed);
        const std::vector<double> bank_retention = sampler.sampleBanks(
            design.config.buffer.numBanks, rng);

        double weighted_weight = 0.0;
        double weighted_act = 0.0;
        for (const LayerExposure &exposure : report.exposures) {
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
        report.trials[trial] = result;
    });

    // Phase 4b: corrupted forwards, laneBlock trials fused per
    // lane-major pass. Every lane is bit-identical to its 1-lane
    // pass, so the block size only moves wall-clock.
    const std::uint32_t lane_block =
        config.laneBlock == 0 ? kDefaultLaneBlock : config.laneBlock;
    const std::size_t blocks =
        (config.trials + lane_block - 1) / lane_block;
    parallelFor(blocks, jobs, [&](std::size_t block) {
        const std::size_t first = block * lane_block;
        const auto lanes = static_cast<std::uint32_t>(
            std::min<std::size_t>(lane_block, config.trials - first));
        batchedBlockAccuracies(*skeleton, model, report.trials, first,
                               lanes);
    });
    for (TrialResult &trial : report.trials) {
        trial.relativeAccuracy =
            report.baselineAccuracy > 0.0
                ? trial.accuracy / report.baselineAccuracy
                : 0.0;
    }
    report.trialSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - trials_started)
            .count();
    report.trialsPerSecond =
        report.trialSeconds > 0.0
            ? static_cast<double>(config.trials) / report.trialSeconds
            : 0.0;

    std::vector<double> accuracies;
    std::vector<double> relatives;
    accuracies.reserve(report.trials.size());
    relatives.reserve(report.trials.size());
    report.worstAccuracy = 1.0;
    report.worstRelativeAccuracy = 1.0;
    for (const TrialResult &trial : report.trials) {
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
    }
    // Corruption-rate counters, tallied serially from the trial
    // slots so the registry totals are deterministic per seed.
    MetricsRegistry &registry = MetricsRegistry::global();
    std::uint64_t corrupted = 0;
    std::uint64_t exposed_words = 0;
    for (const TrialResult &trial : report.trials) {
        corrupted += trial.exposedBanks > 0 ? 1 : 0;
        exposed_words += trial.exposedWords;
    }
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
    return report;
}

Result<FaultCampaignReport>
runFaultCampaign(const DesignPoint &design, const NetworkModel &network,
                 const FaultCampaignConfig &config)
{
    if (config.trials == 0) {
        return makeError(ErrorCode::InvalidArgument,
                         "fault campaign needs at least one trial");
    }
    Result<CampaignExposures> exposures =
        simulateExposures(design, network, config);
    if (!exposures.ok())
        return exposures.error();

    RetentionAwareTrainer trainer(config.model, config.dataset,
                                  config.trainer);
    trainer.pretrain();
    const CampaignModel model =
        prepareCampaignModel(trainer, config, design.failureRate);
    return runPreparedCampaign(design, exposures.value(), model,
                               config);
}

} // namespace rana
