/**
 * @file
 * End-to-end retention-fault campaign engine (EDEN-style validation
 * of an approximate-retention operating point).
 *
 * The scheduler certifies a design point by *predicting* that every
 * buffered tensor's data lifetime stays below the tolerable retention
 * time. The campaign closes the loop operationally:
 *
 *   1. compile the network's schedule for the design point;
 *   2. execute it on the loop-nest trace simulator — optionally
 *      under injected timing faults and/or with the runtime
 *      ReliabilityGuard attached — and take each buffered tensor's
 *      *observed* lifetime from the simulator's read events;
 *   3. per trial, sample every bank's weakest-cell retention time
 *      from the retention distribution (order statistic over the
 *      bank's cells) and mark the banks whose exposure exceeds it;
 *   4. convert the exposed words into effective per-bit failure
 *      rates for weights and activations, inject bit errors at those
 *      rates into a replica of the trained mini model, and measure
 *      the end-to-end test accuracy of the corrupted forward pass.
 *
 * Trials are embarrassingly parallel and run on the shared thread
 * pool into per-trial result slots, so the report is deterministic
 * per seed regardless of the lane count.
 *
 * The phases are exposed individually (simulateExposures /
 * prepareCampaignModel / runPreparedCampaign) so a sweep over a
 * failure-rate x refresh-interval grid can reuse the expensive
 * products: the trace is simulated once per schedule and the model
 * trained once per rate, not once per grid point. All trials of a
 * prepared campaign share one immutable pre-quantized weight store
 * bound into one skeleton model — a trial copies the weights only
 * when its sampled chip actually injects bit errors
 * (copy-on-corrupt).
 */

#ifndef RANA_ROBUST_FAULT_CAMPAIGN_HH_
#define RANA_ROBUST_FAULT_CAMPAIGN_HH_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/design_point.hh"
#include "edram/reliability_guard.hh"
#include "nn/network_model.hh"
#include "robust/retention_sampler.hh"
#include "sim/performance_model.hh"
#include "train/trainer.hh"
#include "train/trial_batch.hh"
#include "util/result.hh"

namespace rana {

class TraceSink;

/**
 * Default trial block of the batched forward path (laneBlock=0): the
 * widest compile-time lane kernel.
 */
constexpr std::uint32_t kDefaultLaneBlock = kMaxKernelLanes;

/** Configuration of one fault-injection campaign. */
struct FaultCampaignConfig
{
    /** Independent retention-sampling trials. */
    std::uint32_t trials = 8;
    /** Master seed; every trial derives its own seed from it. */
    std::uint64_t seed = 1;
    /** Worker lanes for the trial fan-out (0 = hardware threads). */
    unsigned jobs = 0;
    /**
     * Trials fused per batched forward pass: the corrupted forwards
     * run laneBlock trials at a time through the lane-major kernels
     * (train/trial_batch.hh). 0 picks the tuned default block; 1
     * runs each trial as its own 1-lane pass. Any value yields
     * bit-identical reports — the block size is a speed knob only.
     */
    std::uint32_t laneBlock = 0;
    /** Mini model standing in for the paper benchmark. */
    MiniModelKind model = MiniModelKind::MiniVgg;
    /** Synthetic dataset the mini model trains on. */
    DatasetConfig dataset;
    /** Trainer hyper-parameters. */
    TrainerConfig trainer;
    /**
     * Retrain the model at the design's failure rate before the
     * campaign (the paper's retention-aware training); without it
     * the pretrained fixed-point model is used as-is, which is the
     * untrained control.
     */
    bool retrain = true;
    /** Timing perturbations injected into the simulated execution. */
    TimingFaults timingFaults;
    /** Attach the runtime ReliabilityGuard during simulation. */
    bool guard = false;
    /** Decision policy of the attached guard (guard = true only). */
    GuardPolicySpec guardPolicy;
    /** Cell retention-time distribution banks are sampled from. */
    RetentionDistribution retention =
        RetentionDistribution::typical65nm();
    /**
     * Observer of every simulated-execution event (nullptr = none;
     * not owned). The timeline exporter hangs off this: attach a
     * TimelineTraceSink to draw the campaign's simulations on the
     * simulated-time axis.
     */
    TraceSink *traceSink = nullptr;
};

/**
 * Fluent assembler for FaultCampaignConfig, mirroring
 * SchedulerOptionsBuilder: call sites name the knobs they set
 * instead of mutating the struct field by field. The plain struct
 * stays the built product.
 */
class FaultCampaignConfigBuilder
{
  public:
    /** Independent retention-sampling trials. */
    FaultCampaignConfigBuilder &trials(std::uint32_t value)
    {
        config_.trials = value;
        return *this;
    }

    /** Master seed; every trial derives its own seed from it. */
    FaultCampaignConfigBuilder &seed(std::uint64_t value)
    {
        config_.seed = value;
        return *this;
    }

    /** Worker lanes for the trial fan-out (0 = hardware threads). */
    FaultCampaignConfigBuilder &jobs(unsigned value)
    {
        config_.jobs = value;
        return *this;
    }

    /** Trials fused per batched forward (0 = default, 1 = one per pass). */
    FaultCampaignConfigBuilder &laneBlock(std::uint32_t value)
    {
        config_.laneBlock = value;
        return *this;
    }

    /** Mini model standing in for the paper benchmark. */
    FaultCampaignConfigBuilder &model(MiniModelKind value)
    {
        config_.model = value;
        return *this;
    }

    /** Synthetic dataset the mini model trains on. */
    FaultCampaignConfigBuilder &dataset(const DatasetConfig &value)
    {
        config_.dataset = value;
        return *this;
    }

    /** Trainer hyper-parameters. */
    FaultCampaignConfigBuilder &trainer(const TrainerConfig &value)
    {
        config_.trainer = value;
        return *this;
    }

    /** Retrain at the design's failure rate before the campaign. */
    FaultCampaignConfigBuilder &retrain(bool value)
    {
        config_.retrain = value;
        return *this;
    }

    /** Timing perturbations injected into the simulation. */
    FaultCampaignConfigBuilder &timingFaults(const TimingFaults &value)
    {
        config_.timingFaults = value;
        return *this;
    }

    /** Attach the runtime ReliabilityGuard during simulation. */
    FaultCampaignConfigBuilder &guard(bool value)
    {
        config_.guard = value;
        return *this;
    }

    /** Decision policy of the attached guard. */
    FaultCampaignConfigBuilder &guardPolicy(const GuardPolicySpec &value)
    {
        config_.guardPolicy = value;
        return *this;
    }

    /** Cell retention-time distribution banks are sampled from. */
    FaultCampaignConfigBuilder &
    retention(const RetentionDistribution &value)
    {
        config_.retention = value;
        return *this;
    }

    /** Observer of simulated-execution events (not owned). */
    FaultCampaignConfigBuilder &traceSink(TraceSink *value)
    {
        config_.traceSink = value;
        return *this;
    }

    /** The assembled configuration. */
    FaultCampaignConfig build() const { return config_; }

  private:
    FaultCampaignConfig config_;
};

/** One (layer, data type) exposure record. */
struct LayerExposure
{
    std::string layerName;
    /** Exposure time per data type in seconds (0 = not buffered). */
    std::array<double, numDataTypes> exposureSeconds = {0.0, 0.0, 0.0};
    /** Observed lifetime per data type from the simulator. */
    std::array<double, numDataTypes> observedLifetimeSeconds = {
        0.0, 0.0, 0.0};
    /** Banks allocated per data type. */
    std::array<std::uint32_t, numDataTypes> banks = {0, 0, 0};
    /** Buffered words per data type. */
    std::array<std::uint64_t, numDataTypes> words = {0, 0, 0};
    /** First physical bank index per data type. */
    std::array<std::uint32_t, numDataTypes> bankStart = {0, 0, 0};
};

/**
 * Simulated-execution products of one (design, network) pair:
 * per-layer observed-lifetime exposures plus the run's controller
 * counters. Depends on the schedule, the refresh interval, the
 * timing faults and the guard — but not on the failure rate — so a
 * sweep computes one CampaignExposures per refresh interval and
 * reuses it across every failure-rate point.
 */
struct CampaignExposures
{
    std::string networkName;
    /** Per-layer exposure records. */
    std::vector<LayerExposure> exposures;
    /** Simulated execution time in seconds (with timing faults). */
    double executionSeconds = 0.0;
    /** Corrupted-word events: stale reads the controller counted. */
    std::uint64_t retentionViolations = 0;
    /** Refresh operations the simulated run issued. */
    std::uint64_t refreshOps = 0;
    /** Whether the ReliabilityGuard was attached. */
    bool guarded = false;
    /** Name of the guard's decision policy ("" when unguarded). */
    std::string guardPolicyName;
    /** Guard counters of the simulated run (zero when unguarded). */
    ReliabilityGuard::Stats guardStats;
};

/**
 * Trained stand-in model in campaign form: an immutable
 * pre-quantized shared weight store plus the held-out test batch.
 * One CampaignModel serves every trial of every campaign at its
 * failure rate; trials read the store in place and copy only on
 * corruption.
 */
struct CampaignModel
{
    std::string modelName;
    /** Error-free fixed-point baseline accuracy. */
    double baselineAccuracy = 0.0;
    /** Failure rate the store was retrained for (0 = pretrained). */
    double failureRate = 0.0;
    /** Pre-quantized shared weight snapshot, in params() order. */
    WeightStore weights;
    /** Held-out test batch the trials evaluate on. */
    Batch test;
    /** Fixed-point format the store is quantized to. */
    FixedPointFormat format = {12};
};

/** Result of one campaign trial. */
struct TrialResult
{
    /** The trial's derived seed. */
    std::uint64_t seed = 0;
    /** Effective per-bit failure rate injected into weights. */
    double weightFailureRate = 0.0;
    /** Effective per-bit failure rate injected into activations. */
    double activationFailureRate = 0.0;
    /** Banks whose exposure exceeded their sampled retention. */
    std::uint64_t exposedBanks = 0;
    /** Buffered words in exposed banks. */
    std::uint64_t exposedWords = 0;
    /** Top-1 accuracy of the corrupted forward pass. */
    double accuracy = 0.0;
    /** Accuracy relative to the fixed-point baseline. */
    double relativeAccuracy = 0.0;
};

/** Report of one fault-injection campaign. */
struct FaultCampaignReport
{
    std::string designName;
    std::string networkName;
    std::string modelName;

    /** Error-free fixed-point baseline accuracy. */
    double baselineAccuracy = 0.0;
    /** The design's tolerated failure rate (retraining target). */
    double operatingFailureRate = 0.0;

    /** Per-trial results, in trial order. */
    std::vector<TrialResult> trials;
    /** Per-layer exposure records. */
    std::vector<LayerExposure> exposures;

    /** Mean accuracy over the trials. */
    double meanAccuracy = 0.0;
    /** Worst (minimum) trial accuracy. */
    double worstAccuracy = 0.0;
    /** Mean relative accuracy over the trials. */
    double meanRelativeAccuracy = 0.0;
    /** Worst (minimum) trial relative accuracy. */
    double worstRelativeAccuracy = 0.0;
    /** 5th percentile trial accuracy (lower band edge). */
    double p5Accuracy = 0.0;
    /** Median trial accuracy. */
    double p50Accuracy = 0.0;
    /** 95th percentile trial accuracy (upper band edge). */
    double p95Accuracy = 0.0;
    /** 5th percentile relative accuracy. */
    double p5RelativeAccuracy = 0.0;
    /** Median relative accuracy. */
    double p50RelativeAccuracy = 0.0;
    /** 95th percentile relative accuracy. */
    double p95RelativeAccuracy = 0.0;
    /** Mean effective weight failure rate over the trials. */
    double meanWeightFailureRate = 0.0;
    /** Mean effective activation failure rate over the trials. */
    double meanActivationFailureRate = 0.0;

    /** Simulated execution time in seconds (with timing faults). */
    double executionSeconds = 0.0;
    /** Corrupted-word events: stale reads the controller counted. */
    std::uint64_t retentionViolations = 0;
    /** Refresh operations the simulated run issued. */
    std::uint64_t refreshOps = 0;

    /**
     * Wall-clock seconds the trial fan-out took (sampling, corrupted
     * forwards and accuracy measurement). Timing only — excluded
     * from report-equality comparisons.
     */
    double trialSeconds = 0.0;
    /** Trials per wall-clock second (the campaign throughput). */
    double trialsPerSecond = 0.0;

    /** Whether the ReliabilityGuard was attached. */
    bool guarded = false;
    /** Name of the guard's decision policy ("" when unguarded). */
    std::string guardPolicyName;
    /** Guard counters of the simulated run (zero when unguarded). */
    ReliabilityGuard::Stats guardStats;

    /** One-line human-readable summary. */
    std::string describe() const;
};

/**
 * Run one fault-injection campaign of `config` for `design` on
 * `network`. Fails with the scheduler's error when the design cannot
 * run the network, and with ErrorCode::InvalidArgument when the
 * campaign configuration is degenerate (zero trials).
 */
Result<FaultCampaignReport>
runFaultCampaign(const DesignPoint &design, const NetworkModel &network,
                 const FaultCampaignConfig &config);

/**
 * Campaign phases 1+2: compile the network's schedule for `design`,
 * execute it on the trace simulator (simulateLayersChecked, fanned
 * across `design.options.jobs` lanes unless the guard or a trace
 * sink is attached) under the config's timing faults and
 * (optionally) the runtime guard, and convert each buffered tensor's
 * observed lifetime into a per-(layer, type) exposure. Fails with
 * the scheduler's error when the design cannot run the network.
 */
Result<CampaignExposures>
simulateExposures(const DesignPoint &design,
                  const NetworkModel &network,
                  const FaultCampaignConfig &config);

/**
 * Campaign phase 3: turn a *pretrained* trainer into the
 * CampaignModel for `failure_rate` — restore the pretrained
 * snapshot, retrain at the rate when the config asks for it, and
 * export the pre-quantized shared weight store.
 */
CampaignModel
prepareCampaignModel(RetentionAwareTrainer &trainer,
                     const FaultCampaignConfig &config,
                     double failure_rate);

/**
 * Campaign phase 4: the parallel trial fan-out against prepared
 * exposures and a prepared model. Fails with
 * ErrorCode::InvalidArgument when the configuration asks for zero
 * trials.
 */
Result<FaultCampaignReport>
runPreparedCampaign(const DesignPoint &design,
                    const CampaignExposures &exposures,
                    const CampaignModel &model,
                    const FaultCampaignConfig &config);

} // namespace rana

#endif // RANA_ROBUST_FAULT_CAMPAIGN_HH_
