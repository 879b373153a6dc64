/**
 * @file
 * Trial-batching harness: the batched (trial-major, lane-block)
 * corrupted-forward path of the fault campaign against one trial
 * per 1-lane pass, on one prepared campaign cell.
 *
 * Prepares one RANA(E-5) campaign cell on AlexNet (shared exposures
 * and pretrained model), then runs the identical prepared campaign
 * at laneBlock=1 (one trial per 1-lane pass) and at the tuned
 * default block. The batched report must be bit-identical to the
 * 1-lane one — every trial's accuracy and both of its fault rates;
 * any difference is fatal, batching is a speed knob only — and the
 * perf samples report both throughputs plus the headline speedup.
 */

#include "harness.hh"

#include <chrono>
#include <cmath>

#include "robust/fault_campaign.hh"
#include "util/logging.hh"

namespace {

using namespace rana;

void
runCampaignBatch(rana::bench::BenchContext &ctx)
{
    using namespace rana::bench;

    const std::uint32_t trials = ctx.trials > 0 ? ctx.trials : 32;
    DatasetConfig dataset;
    dataset.trainSamples = 256;
    dataset.testSamples = 128;
    dataset.imageSize = 12;
    dataset.numClasses = 4;
    TrainerConfig trainer_cfg;
    trainer_cfg.pretrainEpochs = 6;
    trainer_cfg.retrainEpochs = 2;
    trainer_cfg.evalRepeats = 2;
    FaultCampaignConfig config = FaultCampaignConfigBuilder()
                                     .trials(trials)
                                     .seed(3)
                                     .dataset(dataset)
                                     .trainer(trainer_cfg)
                                     .build();

    DesignPoint design =
        makeDesignPoint(DesignKind::RanaE5, config.retention);
    design.options.refreshIntervalSeconds = 734e-6;
    design.failureRate = 1e-5;
    const NetworkModel network = makeAlexNet();

    const Result<CampaignExposures> exposures =
        simulateExposures(design, network, config);
    if (!exposures.ok())
        fatal("exposure simulation failed: ",
              exposures.error().message);
    RetentionAwareTrainer trainer(config.model, config.dataset,
                                  config.trainer);
    trainer.pretrain();
    const CampaignModel model =
        prepareCampaignModel(trainer, config, design.failureRate);

    std::cout << design.name << " on " << network.name() << ", one "
              << "prepared cell, " << trials
              << " trials: scalar (laneBlock=1) vs batched "
              << "(laneBlock=" << kDefaultLaneBlock << ")\n\n";

    double scalar_tps = 0.0;
    double batched_tps = 0.0;
    FaultCampaignReport scalar;
    TextTable table("Scalar vs trial-batched corrupted forwards");
    table.header(
        {"lane block", "wall-clock", "trials/s", "mean accuracy"});
    for (const std::uint32_t lanes : {1u, kDefaultLaneBlock}) {
        config.laneBlock = lanes;
        const auto start = std::chrono::steady_clock::now();
        const Result<FaultCampaignReport> ran = runPreparedCampaign(
            design, exposures.value(), model, config);
        const double wall = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() -
                                start)
                                .count();
        if (!ran.ok())
            fatal("campaign failed: ", ran.error().message);
        const FaultCampaignReport &report = ran.value();
        const double tps = trials / std::max(wall, 1e-9);
        char wall_s[32], tps_s[32], mean_s[32];
        std::snprintf(wall_s, sizeof(wall_s), "%.3fs", wall);
        std::snprintf(tps_s, sizeof(tps_s), "%.2f", tps);
        std::snprintf(mean_s, sizeof(mean_s), "%.6f",
                      report.meanAccuracy);
        table.row({std::to_string(lanes), wall_s, tps_s, mean_s});
        if (lanes == 1) {
            scalar_tps = tps;
            scalar = report;
            continue;
        }
        batched_tps = tps;
        // Bit-identity is the contract, not a tolerance: every lane
        // draws its own injectors' streams and the batched kernels
        // replay the scalar operation order per accumulator, so each
        // trial must match exactly.
        if (report.trials.size() != scalar.trials.size())
            fatal("batched campaign ran ", report.trials.size(),
                  " trials, scalar ", scalar.trials.size());
        for (std::size_t t = 0; t < report.trials.size(); ++t) {
            const TrialResult &got = report.trials[t];
            const TrialResult &want = scalar.trials[t];
            if (got.accuracy != want.accuracy ||
                got.weightFailureRate != want.weightFailureRate ||
                got.activationFailureRate != want.activationFailureRate)
                fatal("batched campaign diverged from scalar at trial ",
                      t, ": accuracy ", got.accuracy, " vs ",
                      want.accuracy, ", weight rate ",
                      got.weightFailureRate, " vs ",
                      want.weightFailureRate, ", activation rate ",
                      got.activationFailureRate, " vs ",
                      want.activationFailureRate);
        }
        if (report.meanAccuracy != scalar.meanAccuracy)
            fatal("batched campaign diverged from scalar: mean ",
                  report.meanAccuracy, " != ", scalar.meanAccuracy);
    }
    table.print(std::cout);

    const double speedup = batched_tps / std::max(scalar_tps, 1e-9);
    std::cout << "\nbatched speedup: "
              << ratio(speedup) << "x (bit-identical reports)\n";

    ctx.perf("scalar_trials_per_second", scalar_tps, "trials/s");
    ctx.perf("batched_trials_per_second", batched_tps, "trials/s");
    ctx.perf("batched_speedup", speedup, "x");
}

} // namespace

RANA_BENCH("campaign_batch",
           "Trial batching - batched vs scalar campaign forwards "
           "(bit-identical, speedup gated)",
           runCampaignBatch);
