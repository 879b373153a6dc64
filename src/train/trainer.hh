/**
 * @file
 * The retention-aware training method (Section IV-B, Figure 9).
 *
 * Workflow, mirroring the paper:
 *
 *   1. Fixed-point pretrain: the model is trained with 16-bit
 *      fixed-point quantization of inputs and weights (no errors),
 *      giving the baseline accuracy.
 *   2. Adding layer masks: bit-level retention errors at failure
 *      rate r are injected into every layer's quantized inputs and
 *      weights during the forward propagation.
 *   3. Retrain: the model is retrained under injection, adjusting
 *      the weights to the error distribution.
 *   4. Evaluate: accuracy is measured with errors injected; if the
 *      relative accuracy meets the constraint, the model tolerates
 *      failure rate r, and the eDRAM retention distribution converts
 *      r into a tolerable retention time.
 */

#ifndef RANA_TRAIN_TRAINER_HH_
#define RANA_TRAIN_TRAINER_HH_

#include <memory>
#include <vector>

#include "train/dataset.hh"
#include "train/mini_models.hh"
#include "train/optimizer.hh"

namespace rana {

/** Hyper-parameters of the retention-aware trainer. */
struct TrainerConfig
{
    std::uint32_t pretrainEpochs = 8;
    std::uint32_t retrainEpochs = 4;
    std::uint32_t batchSize = 32;
    double learningRate = 0.05;
    double momentum = 0.9;
    double weightDecay = 1e-4;
    /**
     * Per-element gradient clamp; keeps the activation outliers
     * produced by high-order injected bit flips from destabilizing
     * the retrain.
     */
    double gradClip = 0.25;
    /**
     * Hardware fixed-point format of buffered data. Q3.12 keeps the
     * representable range tight around the signal so a flipped
     * high-order bit perturbs a value by at most ~8x the typical
     * activation magnitude (deployed fixed-point CNNs choose
     * per-layer formats the same way).
     */
    FixedPointFormat format = {12};
    /** Evaluation repeats (independent error draws) per rate. */
    std::uint32_t evalRepeats = 3;
    std::uint64_t seed = 7;
};

/** One point of the accuracy-vs-failure-rate curve (Figure 11). */
struct AccuracyPoint
{
    double failureRate = 0.0;
    /** Absolute top-1 accuracy under injection. */
    double accuracy = 0.0;
    /** Accuracy relative to the error-free fixed-point baseline. */
    double relativeAccuracy = 0.0;
};

/** Retention-aware trainer for one mini model. */
class RetentionAwareTrainer
{
  public:
    RetentionAwareTrainer(MiniModelKind kind,
                          const DatasetConfig &dataset_config,
                          const TrainerConfig &trainer_config);

    /**
     * Fixed-point pretrain; returns (and records) the baseline test
     * accuracy. Must be called before the retrain methods.
     */
    double pretrain();

    /** Baseline fixed-point accuracy from pretrain(). */
    double baselineAccuracy() const { return baselineAccuracy_; }

    /**
     * Restore the pretrained weights, retrain with bit errors at
     * `failure_rate`, and evaluate under injection.
     */
    AccuracyPoint retrainAndEvaluate(double failure_rate);

    /**
     * Restore the pretrained weights and retrain with bit errors at
     * `failure_rate`, skipping the before/after evaluations. The
     * weight trajectory is bit-identical to retrainAndEvaluate
     * (evaluate() draws its injector seeds independently and never
     * touches the training RNG); callers that discard the accuracy
     * point — the fault campaign measures accuracy per trial anyway
     * — save two injected evaluation passes.
     */
    void retrain(double failure_rate);

    /** Figure-11 sweep: retrainAndEvaluate over a ladder of rates. */
    std::vector<AccuracyPoint>
    sweep(const std::vector<double> &failure_rates);

    /** Evaluate test accuracy under injection at `failure_rate`. */
    double evaluate(double failure_rate);

    /** The model under training (for inspection). */
    const Sequential &model() const { return *model_; }

    /**
     * Copy of the current parameter tensors, in params() order.
     * Campaign trials import these into per-trial model replicas so
     * corrupted forward passes run without sharing layer caches.
     */
    std::vector<Tensor> exportWeights();

    /**
     * Immutable shared snapshot of the current parameter tensors, in
     * params() order, quantized to `format` once, so every consumer
     * can bind the store (bindSharedWeights) and skip the
     * per-forward re-quantization (quantization is idempotent, hence
     * numerically identical). Campaign trials share one store across
     * all replicas with copy-on-corrupt.
     */
    WeightStore exportWeightsShared(const FixedPointFormat &format);

    /**
     * Restore the pretrained snapshot into the model (the state
     * retrainAndEvaluate starts from). Requires pretrain().
     */
    void restorePretrained();

    /** The dataset the trainer trains and evaluates on. */
    const SyntheticDataset &dataset() const { return dataset_; }

  private:
    void trainEpochs(std::uint32_t epochs, double failure_rate,
                     bool quantized);
    void snapshotWeights();
    void restoreWeights();

    MiniModelKind kind_;
    TrainerConfig config_;
    SyntheticDataset dataset_;
    Rng rng_;
    std::unique_ptr<Sequential> model_;
    std::unique_ptr<SgdOptimizer> optimizer_;
    std::vector<Tensor> snapshot_;
    double baselineAccuracy_ = 0.0;
    bool pretrained_ = false;
};

} // namespace rana

#endif // RANA_TRAIN_TRAINER_HH_
