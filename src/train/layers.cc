/**
 * @file
 * Implementation of the training-framework layers.
 */

#include "train/layers.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>
#include <sstream>

#include "train/trial_batch.hh"
#include "util/logging.hh"

namespace rana {

namespace {

/**
 * Walk an NCHW minibatch in lane blocks of 16/8/4/2 samples, then at
 * most one leftover sample. For each block, `run(in, out, lanes)`
 * gets the block's `in_sample`-float samples packed lane-major (lane
 * innermost) and an unwritten lane-major buffer for the `out_sample`
 * floats per sample, which `run` must write in full and which are
 * then scattered back to the samples' slots of `out`. A lone sample
 * is passed in place: one lane has the NCHW layout.
 */
template <typename Run>
void
forSampleLaneBlocks(const float *in, std::size_t in_sample, float *out,
                    std::size_t out_sample, std::uint32_t batch,
                    Run &&run)
{
    UninitFloats in_lanes;
    UninitFloats out_lanes;
    std::uint32_t lanes = kMaxKernelLanes;
    for (std::uint32_t b = 0; b < batch; b += lanes) {
        while (lanes > batch - b)
            lanes /= 2;
        const float *in_b = in + b * in_sample;
        float *out_b = out + b * out_sample;
        if (lanes == 1) {
            run(in_b, out_b, lanes);
            continue;
        }
        in_lanes.resize(in_sample * lanes);
        for (std::uint32_t l = 0; l < lanes; ++l)
            for (std::size_t i = 0; i < in_sample; ++i)
                in_lanes[i * lanes + l] = in_b[l * in_sample + i];
        out_lanes.resize(out_sample * lanes);
        run(in_lanes.data(), out_lanes.data(), lanes);
        for (std::uint32_t l = 0; l < lanes; ++l)
            for (std::size_t i = 0; i < out_sample; ++i)
                out_b[l * out_sample + i] = out_lanes[i * lanes + l];
    }
}

/**
 * Backward passes read the state of the last training forward. A
 * gradient of any other shape, or a backward with no training
 * forward before it, would index stale or out-of-bounds memory.
 */
void
checkGradShape(const Tensor &grad_output,
               const std::vector<std::uint32_t> &trained_output,
               const char *layer)
{
    RANA_ASSERT(grad_output.shape() == trained_output, layer,
                " backward: gradient shape ",
                grad_output.describeShape(),
                " does not match the last training forward's output");
}

/**
 * The lane count of a forward over `input`, whose per-lane shape has
 * `rank` dimensions: {...} is one lane, {..., L} carries L =
 * ctx.lanes() lanes innermost. Training forwards run one lane.
 */
std::uint32_t
inputLanes(const Tensor &input, std::size_t rank,
           const ForwardContext &ctx, const char *layer)
{
    const std::uint32_t lanes = ctx.lanes();
    const std::vector<std::uint32_t> &shape = input.shape();
    RANA_ASSERT((shape.size() == rank && lanes == 1) ||
                    (shape.size() == rank + 1 && shape.back() == lanes),
                layer, " input ", input.describeShape(),
                " does not carry ", lanes, " lane(s)");
    RANA_ASSERT(!ctx.training || lanes == 1, layer,
                " training forwards run one lane");
    return lanes;
}

/** `shape` plus the trailing lane dimension of `input`, if it has one. */
std::vector<std::uint32_t>
laneShape(std::vector<std::uint32_t> shape, const Tensor &input,
          std::size_t rank)
{
    if (input.shape().size() > rank)
        shape.push_back(input.shape().back());
    return shape;
}

/**
 * Copy-on-corrupt weights of one lane at forward index `layer` among
 * the weighted layers: the quantized / corrupted private copy the
 * hardware would compute with, or std::nullopt when `weights` pass
 * through untouched (no quantization pending because they are
 * `pre_quantized`, and no bit errors), so the caller reads `weights`
 * in place. The bit errors come from the lane's weight injector,
 * drawn now, or from its run's pre-drawn weight failures.
 */
std::optional<Tensor>
laneWeights(const Tensor &weights, bool pre_quantized,
            const ForwardContext &ctx, std::uint32_t lane,
            std::size_t layer)
{
    if (ctx.quant == nullptr)
        return std::nullopt;
    BitErrorInjector *injector = nullptr;
    if (lane < ctx.weightInjectors.size())
        injector = ctx.weightInjectors[lane];
    const bool drawing =
        injector != nullptr && injector->failureRate() > 0.0;
    std::span<const WordFailure> drawn;
    if (ctx.drawn != nullptr && ctx.drawn->lanes[lane].run != nullptr)
        drawn = (*ctx.drawn->lanes[lane].run)[layer].weights;
    if (pre_quantized && !drawing && drawn.empty())
        return std::nullopt;
    Tensor copy = weights;
    if (!pre_quantized)
        quantizeTensor(copy, *ctx.quant);
    if (drawing)
        injector->corruptTensor(copy, *ctx.quant);
    else
        applyWordFailures(drawn, 0, copy.size(), copy.data(), 1,
                          *ctx.quant);
    return copy;
}

/** `count` floats at `src` replicated across `lanes` lanes. */
UninitFloats
replicateLanes(const float *src, std::size_t count, std::uint32_t lanes)
{
    UninitFloats packed(count * lanes);
    packLanePointers(std::vector<const float *>(lanes, src), count,
                     packed.data());
    return packed;
}

} // namespace

void
bindSharedWeights(Layer &model, const std::vector<Tensor> &store)
{
    SharedParamCursor cursor(store);
    model.bindSharedParams(cursor);
    RANA_ASSERT(cursor.exhausted(),
                "shared weight store does not match the model: ",
                cursor.consumed(), " of ", store.size(),
                " tensors bound");
}

void
heInitialize(Tensor &tensor, std::uint32_t fan_in, Rng &rng)
{
    RANA_ASSERT(fan_in > 0, "fan-in must be positive");
    const double bound =
        std::sqrt(6.0 / static_cast<double>(fan_in));
    for (std::size_t i = 0; i < tensor.size(); ++i)
        tensor[i] = static_cast<float>(rng.uniform(-bound, bound));
}

// ---------------------------------------------------------------
// WeightedLayer
// ---------------------------------------------------------------

WeightedLayer::WeightedLayer(std::vector<std::uint32_t> weight_shape)
    : weights_(weight_shape),
      bias_({weight_shape.front()}),
      weightGrad_(weight_shape),
      biasGrad_({weight_shape.front()})
{
}

WeightedLayer::Operands
WeightedLayer::operands(Tensor input, std::uint32_t lanes,
                        std::size_t positions,
                        const ForwardContext &ctx) const
{
    RANA_ASSERT(!(ctx.training && sharedWeights_ != nullptr),
                "shared-weight models are eval-only");
    RANA_ASSERT(ctx.weightInjectors.empty() ||
                    ctx.weightInjectors.size() == lanes,
                "one weight injector per lane");
    RANA_ASSERT(ctx.drawn == nullptr ||
                    (!ctx.training && ctx.injectors.empty() &&
                     ctx.weightInjectors.empty()),
                "pre-drawn bit errors are eval-only and replace the "
                "injectors");
    // This layer's forward index among the weighted layers: where its
    // failures sit in every pre-drawn run.
    const std::size_t layer =
        ctx.drawn != nullptr ? ctx.drawn->next++ : 0;
    Operands ops;
    ops.input = std::move(input);
    const std::size_t per_lane = ops.input.size() / lanes;
    const std::uint32_t batch = ops.input.dim(0);
    const std::size_t words = per_lane / batch;
    if (ctx.drawn != nullptr && ctx.drawn->shapes != nullptr) {
        const std::size_t weight_words = weights_.size();
        ctx.drawn->shapes->push_back(
            {0, words, weight_words, weight_words * positions});
    }
    if (ctx.quant != nullptr) {
        quantizeTrialSpan(ops.input.data(), ops.input.size(),
                          *ctx.quant);
        for (std::uint32_t l = 0; l < lanes; ++l) {
            float *lane = ops.input.data() + l;
            if (l < ctx.injectors.size()) {
                if (ctx.injectors[l] != nullptr)
                    applyWordFailures(
                        ctx.injectors[l]->drawFailures(per_lane), 0,
                        per_lane, lane, lanes, *ctx.quant);
                continue;
            }
            if (ctx.drawn == nullptr ||
                ctx.drawn->lanes[l].run == nullptr)
                continue;
            const DrawnFailures::Lane &drawn = ctx.drawn->lanes[l];
            RANA_ASSERT(layer < drawn.run->size(),
                        "a forward ran more weighted layers than its "
                        "runs drew");
            const std::vector<WordFailure> &failures =
                (*drawn.run)[layer].activations;
            if (failures.empty())
                continue;
            // Sample b of the forward is sample drawn.samples[b] of
            // the run: it applies that sample's window.
            for (std::uint32_t b = 0; b < batch; ++b)
                applyWordFailures(failures, words * drawn.samples[b],
                                  words, lane + b * words * lanes,
                                  lanes, *ctx.quant);
        }
    }
    static_cast<WeightOperands &>(ops) =
        weightOperands(lanes, layer, ctx);
    return ops;
}

WeightOperands
WeightedLayer::weightOperands(std::uint32_t lanes, std::size_t layer,
                              const ForwardContext &ctx) const
{
    // A bound store is pre-quantized (bindSharedWeights).
    const bool bound = sharedWeights_ != nullptr;
    const Tensor &weights = bound ? *sharedWeights_ : weights_;
    const Tensor &bias =
        sharedBias_ != nullptr ? *sharedBias_ : bias_;
    WeightOperands ops;
    if (lanes == 1) {
        ops.corrupted = laneWeights(weights, bound, ctx, 0, layer);
        ops.weights =
            ops.corrupted ? ops.corrupted->data() : weights.data();
        ops.bias = bias.data();
        return ops;
    }
    // Each lane's scalar-layout view, interleaved into one
    // {<weight shape>, L} buffer.
    std::vector<Tensor> copies;
    copies.reserve(lanes);
    std::vector<const float *> ptrs(lanes, weights.data());
    for (std::uint32_t l = 0; l < lanes; ++l) {
        std::optional<Tensor> corrupted =
            laneWeights(weights, bound, ctx, l, layer);
        if (corrupted) {
            copies.push_back(std::move(*corrupted));
            ptrs[l] = copies.back().data();
        }
    }
    if (bound && copies.empty() && std::has_single_bit(lanes) &&
        lanes <= kMaxKernelLanes) {
        // Every lane reads the store: its packing, built at binding.
        const int packed = std::countr_zero(lanes) - 1;
        ops.weights = sharedPackedWeights_[packed].data();
        ops.bias = sharedPackedBias_[packed].data();
        return ops;
    }
    ops.packedWeights.resize(weights.size() * lanes);
    packLanePointers(ptrs, weights.size(), ops.packedWeights.data());
    ops.packedBias = replicateLanes(bias.data(), bias.size(), lanes);
    ops.weights = ops.packedWeights.data();
    ops.bias = ops.packedBias.data();
    return ops;
}

void
WeightedLayer::cacheForBackward(Operands &&ops, const Tensor &output)
{
    cachedWeights_ = ops.corrupted ? std::move(*ops.corrupted) : weights_;
    cachedInput_ = std::move(ops.input);
    outputShape_ = output.shape();
}

std::vector<Param>
WeightedLayer::params()
{
    return {{&weights_, &weightGrad_}, {&bias_, &biasGrad_}};
}

void
WeightedLayer::bindSharedParams(SharedParamCursor &cursor)
{
    sharedWeights_ = cursor.next();
    sharedBias_ = cursor.next();
    RANA_ASSERT(sharedWeights_ != nullptr && sharedBias_ != nullptr,
                "shared weight store exhausted at ", describe());
    RANA_ASSERT(sharedWeights_->shape() == weights_.shape() &&
                sharedBias_->shape() == bias_.shape(),
                "shared weight store shape mismatch at ", describe());
    static_assert(2u << 3 == kMaxKernelLanes,
                  "one store packing per kernel lane count above 1");
    for (std::size_t k = 0; k < sharedPackedWeights_.size(); ++k) {
        const std::uint32_t lanes = 2u << k;
        sharedPackedWeights_[k] = replicateLanes(
            sharedWeights_->data(), sharedWeights_->size(), lanes);
        sharedPackedBias_[k] =
            replicateLanes(sharedBias_->data(), sharedBias_->size(), lanes);
    }
}

// ---------------------------------------------------------------
// Conv2dLayer
// ---------------------------------------------------------------

Conv2dLayer::Conv2dLayer(std::uint32_t in_channels,
                         std::uint32_t out_channels,
                         std::uint32_t kernel, std::uint32_t stride,
                         std::uint32_t pad, Rng &rng)
    : WeightedLayer({out_channels, in_channels, kernel, kernel}),
      inChannels_(in_channels),
      outChannels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad)
{
    heInitialize(weights_, in_channels * kernel * kernel, rng);
}

Tensor
Conv2dLayer::forward(Tensor input, const ForwardContext &ctx)
{
    const std::uint32_t lanes = inputLanes(input, 4, ctx, "conv");
    RANA_ASSERT(input.dim(1) == inChannels_,
                "conv input shape mismatch");
    const std::uint32_t batch = input.dim(0);
    const std::uint32_t h = input.dim(2);
    const std::uint32_t w = input.dim(3);
    RANA_ASSERT(h + 2 * pad_ >= kernel_ && w + 2 * pad_ >= kernel_,
                "conv kernel larger than padded input");
    const std::uint32_t r = (h + 2 * pad_ - kernel_) / stride_ + 1;
    const std::uint32_t c = (w + 2 * pad_ - kernel_) / stride_ + 1;

    Operands ops = operands(std::move(input), lanes,
                            static_cast<std::size_t>(r) * c, ctx);
    Tensor output = Tensor::uninitialized(
        laneShape({batch, outChannels_, r, c}, ops.input, 4));
    if (lanes > 1) {
        convolveTrialLanes(ops.input.data(), ops.weights, ops.bias,
                           output.data(), batch, inChannels_, h, w,
                           outChannels_, r, c, kernel_, stride_, pad_,
                           lanes);
    } else {
        // One lane: the minibatch runs as lanes sharing one weight
        // tensor; per sample the lane kernel accumulates in the
        // 1-lane order.
        UninitFloats block_wt;
        UninitFloats block_bias;
        forSampleLaneBlocks(
            ops.input.data(),
            static_cast<std::size_t>(inChannels_) * h * w,
            output.data(),
            static_cast<std::size_t>(outChannels_) * r * c, batch,
            [&](const float *in, float *out, std::uint32_t block) {
                // Blocks shrink monotonically: replicate once per size.
                if (block_bias.size() != outChannels_ * block) {
                    block_wt = replicateLanes(ops.weights,
                                              weights_.size(), block);
                    block_bias =
                        replicateLanes(ops.bias, outChannels_, block);
                }
                convolveTrialLanes(in, block_wt.data(), block_bias.data(),
                                   out, 1, inChannels_, h, w,
                                   outChannels_, r, c, kernel_, stride_,
                                   pad_, block);
            });
    }
    if (ctx.training)
        cacheForBackward(std::move(ops), output);
    return output;
}

Tensor
Conv2dLayer::backward(const Tensor &grad_output)
{
    backwardParams(grad_output);
    const std::uint32_t batch = cachedInput_.dim(0);
    const std::uint32_t h = cachedInput_.dim(2);
    const std::uint32_t w = cachedInput_.dim(3);
    const std::uint32_t r = grad_output.dim(2);
    const std::uint32_t c = grad_output.dim(3);

    Tensor grad_input = Tensor::uninitialized(cachedInput_.shape());
    const float *wt = cachedWeights_.data();
    const std::size_t in_sample =
        static_cast<std::size_t>(inChannels_) * h * w;
    forSampleLaneBlocks(
        grad_output.data(), static_cast<std::size_t>(outChannels_) * r * c,
        grad_input.data(), in_sample, batch,
        [&](const float *gout, float *gin, std::uint32_t lanes) {
            // The kernel accumulates (+=) into a zeroed block.
            std::fill_n(gin, in_sample * lanes, 0.0f);
            convolveInputGradLanes(gout, wt, gin, inChannels_, h, w,
                                   outChannels_, r, c, kernel_,
                                   stride_, pad_, lanes);
        });
    return grad_input;
}

void
Conv2dLayer::backwardParams(const Tensor &grad_output)
{
    checkGradShape(grad_output, outputShape_, "conv");
    convolveWeightGrad(cachedInput_.data(), grad_output.data(),
                       weightGrad_.data(), biasGrad_.data(),
                       cachedInput_.dim(0), inChannels_,
                       cachedInput_.dim(2), cachedInput_.dim(3),
                       outChannels_, grad_output.dim(2),
                       grad_output.dim(3), kernel_, stride_, pad_);
}

std::string
Conv2dLayer::describe() const
{
    std::ostringstream oss;
    oss << "conv" << kernel_ << "x" << kernel_ << "(" << inChannels_
        << "->" << outChannels_ << ",s" << stride_ << ")";
    return oss.str();
}

// ---------------------------------------------------------------
// ReluLayer
// ---------------------------------------------------------------

Tensor
ReluLayer::forward(Tensor input, const ForwardContext &ctx)
{
    if (ctx.training)
        cachedInput_ = input;
    reluTrialSpan(input.data(), input.size());
    return input;
}

Tensor
ReluLayer::backward(const Tensor &grad_output)
{
    checkGradShape(grad_output, cachedInput_.shape(), "relu");
    Tensor grad = grad_output;
    reluBackwardTrialSpan(grad.data(), cachedInput_.data(), grad.size());
    return grad;
}

// ---------------------------------------------------------------
// MaxPool2dLayer
// ---------------------------------------------------------------

Tensor
MaxPool2dLayer::forward(Tensor input, const ForwardContext &ctx)
{
    const std::uint32_t lanes = inputLanes(input, 4, ctx, "maxpool");
    const std::uint32_t batch = input.dim(0);
    const std::uint32_t channels = input.dim(1);
    const std::uint32_t h = input.dim(2);
    const std::uint32_t w = input.dim(3);
    RANA_ASSERT(h % 2 == 0 && w % 2 == 0,
                "maxpool2x2 needs even spatial dims");
    const std::uint32_t r = h / 2;
    const std::uint32_t c = w / 2;
    Tensor output =
        Tensor::uninitialized(laneShape({batch, channels, r, c}, input, 4));
    if (lanes > 1) {
        maxPoolTrialLanes(input.data(), output.data(), batch, channels, h,
                          w, lanes);
        return output;
    }
    std::uint32_t *argmax = nullptr;
    if (ctx.training) {
        // The backward routes each gradient to the input the forward
        // kept.
        inputShape_ = input.shape();
        outputShape_ = output.shape();
        argmax_.resize(output.size());
        argmax = argmax_.data();
    }
    maxPoolOneLane(input.data(), output.data(), argmax, batch, channels, h,
                   w);
    return output;
}

Tensor
MaxPool2dLayer::backward(const Tensor &grad_output)
{
    checkGradShape(grad_output, outputShape_, "maxpool");
    Tensor grad_input(inputShape_);
    float *gin = grad_input.data();
    const float *gout = grad_output.data();
    for (std::size_t i = 0; i < argmax_.size(); ++i)
        gin[argmax_[i]] += gout[i];
    return grad_input;
}

// ---------------------------------------------------------------
// DenseLayer
// ---------------------------------------------------------------

DenseLayer::DenseLayer(std::uint32_t in_features,
                       std::uint32_t out_features, Rng &rng)
    : WeightedLayer({out_features, in_features}),
      inFeatures_(in_features),
      outFeatures_(out_features)
{
    heInitialize(weights_, in_features, rng);
}

Tensor
DenseLayer::forward(Tensor input, const ForwardContext &ctx)
{
    const std::uint32_t lanes = inputLanes(input, 2, ctx, "dense");
    RANA_ASSERT(input.dim(1) == inFeatures_,
                "dense input shape mismatch");
    const std::uint32_t batch = input.dim(0);
    Operands ops = operands(std::move(input), lanes, 1, ctx);
    Tensor output = Tensor::uninitialized(
        laneShape({batch, outFeatures_}, ops.input, 2));
    denseTrialLanes(ops.input.data(), ops.weights, ops.bias,
                    output.data(), batch, inFeatures_, outFeatures_,
                    lanes);
    if (ctx.training)
        cacheForBackward(std::move(ops), output);
    return output;
}

Tensor
DenseLayer::backward(const Tensor &grad_output)
{
    checkGradShape(grad_output, outputShape_, "dense");
    const std::uint32_t batch = grad_output.dim(0);
    Tensor grad_input({batch, inFeatures_});
    const float *gout = grad_output.data();
    const float *in = cachedInput_.data();
    const float *wt = cachedWeights_.data();
    float *gin = grad_input.data();
    float *gwt = weightGrad_.data();
    float *gbias = biasGrad_.data();
    for (std::uint32_t b = 0; b < batch; ++b) {
        const float *gout_b = gout + static_cast<std::size_t>(b) * outFeatures_;
        const float *in_b = in + static_cast<std::size_t>(b) * inFeatures_;
        float *gin_b = gin + static_cast<std::size_t>(b) * inFeatures_;
        for (std::uint32_t o = 0; o < outFeatures_; ++o) {
            const float g = gout_b[o];
            gbias[o] += g;
            float *gwt_o = gwt + static_cast<std::size_t>(o) * inFeatures_;
            const float *wt_o =
                wt + static_cast<std::size_t>(o) * inFeatures_;
            for (std::uint32_t i = 0; i < inFeatures_; ++i) {
                gwt_o[i] += g * in_b[i];
                gin_b[i] += g * wt_o[i];
            }
        }
    }
    return grad_input;
}

std::string
DenseLayer::describe() const
{
    std::ostringstream oss;
    oss << "dense(" << inFeatures_ << "->" << outFeatures_ << ")";
    return oss.str();
}

// ---------------------------------------------------------------
// FlattenLayer
// ---------------------------------------------------------------

Tensor
FlattenLayer::forward(Tensor input, const ForwardContext &ctx)
{
    const std::uint32_t lanes = inputLanes(input, 4, ctx, "flatten");
    if (ctx.training)
        inputShape_ = input.shape();
    const std::uint32_t batch = input.dim(0);
    // The lane index is innermost, so collapsing the middle
    // dimensions is a pure reshape of the moved storage.
    const auto features =
        static_cast<std::uint32_t>(input.size() / batch / lanes);
    std::vector<std::uint32_t> shape =
        laneShape({batch, features}, input, 4);
    return std::move(input).reshaped(std::move(shape));
}

Tensor
FlattenLayer::backward(const Tensor &grad_output)
{
    return grad_output.reshaped(inputShape_);
}

// ---------------------------------------------------------------
// Sequential
// ---------------------------------------------------------------

void
Sequential::add(std::unique_ptr<Layer> layer)
{
    layers_.push_back(std::move(layer));
}

Tensor
Sequential::forward(Tensor input, const ForwardContext &ctx)
{
    return forwardLayers(std::move(input), ctx, 0, layers_.size());
}

Tensor
Sequential::forwardLayers(Tensor input, const ForwardContext &ctx,
                          std::size_t first, std::size_t last)
{
    RANA_ASSERT(first <= last && last <= layers_.size(),
                "top-level layers [", first, ", ", last,
                ") outside a model of ", layers_.size());
    // The activation moves from layer to layer.
    for (std::size_t i = first; i < last; ++i)
        input = layers_[i]->forward(std::move(input), ctx);
    return input;
}

Tensor
Sequential::backwardToFirst(const Tensor &grad_output)
{
    Tensor grad = grad_output;
    for (std::size_t i = layers_.size() - 1; i > 0; --i)
        grad = layers_[i]->backward(grad);
    return grad;
}

Tensor
Sequential::backward(const Tensor &grad_output)
{
    if (layers_.empty())
        return grad_output;
    return layers_.front()->backward(backwardToFirst(grad_output));
}

void
Sequential::backwardParams(const Tensor &grad_output)
{
    if (layers_.empty())
        return;
    layers_.front()->backwardParams(backwardToFirst(grad_output));
}

std::vector<Param>
Sequential::params()
{
    std::vector<Param> all;
    for (auto &layer : layers_) {
        auto layer_params = layer->params();
        all.insert(all.end(), layer_params.begin(), layer_params.end());
    }
    return all;
}

void
Sequential::bindSharedParams(SharedParamCursor &cursor)
{
    for (auto &layer : layers_)
        layer->bindSharedParams(cursor);
}

std::string
Sequential::describe() const
{
    std::ostringstream oss;
    oss << "sequential[";
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        if (i > 0)
            oss << ", ";
        oss << layers_[i]->describe();
    }
    oss << "]";
    return oss.str();
}

// ---------------------------------------------------------------
// ResidualBlock
// ---------------------------------------------------------------

ResidualBlock::ResidualBlock(std::unique_ptr<Sequential> body)
    : body_(std::move(body))
{
    RANA_ASSERT(body_ != nullptr, "residual body must exist");
}

Tensor
ResidualBlock::forward(Tensor input, const ForwardContext &ctx)
{
    // The body gets a copy: the skip needs the block input unchanged.
    Tensor branch = body_->forward(input, ctx);
    RANA_ASSERT(branch.size() == input.size(),
                "residual body must preserve the shape");
    // The skip adds the raw (uncorrupted) block input element-wise.
    addTrialSpan(branch.data(), input.data(), branch.size());
    return branch;
}

Tensor
ResidualBlock::backward(const Tensor &grad_output)
{
    Tensor grad = body_->backward(grad_output);
    addTrialSpan(grad.data(), grad_output.data(), grad.size());
    return grad;
}

std::vector<Param>
ResidualBlock::params()
{
    return body_->params();
}

void
ResidualBlock::bindSharedParams(SharedParamCursor &cursor)
{
    body_->bindSharedParams(cursor);
}

// ---------------------------------------------------------------
// InceptionConcat
// ---------------------------------------------------------------

InceptionConcat::InceptionConcat(
    std::vector<std::unique_ptr<Sequential>> branches)
    : branches_(std::move(branches))
{
    RANA_ASSERT(!branches_.empty(), "inception needs branches");
}

Tensor
InceptionConcat::forward(Tensor input, const ForwardContext &ctx)
{
    std::vector<Tensor> outputs;
    outputs.reserve(branches_.size());
    std::vector<std::uint32_t> channels;
    channels.reserve(branches_.size());
    std::uint32_t total_channels = 0;
    for (std::size_t i = 0; i < branches_.size(); ++i) {
        // Every branch but the last reads a copy; the last consumes
        // the input.
        if (i + 1 < branches_.size())
            outputs.push_back(branches_[i]->forward(input, ctx));
        else
            outputs.push_back(
                branches_[i]->forward(std::move(input), ctx));
        const Tensor &out = outputs.back();
        inputLanes(out, 4, ctx, "inception branch");
        RANA_ASSERT(out.dim(0) == outputs.front().dim(0) &&
                    out.dim(2) == outputs.front().dim(2) &&
                    out.dim(3) == outputs.front().dim(3),
                    "inception branch output shapes must align");
        channels.push_back(out.dim(1));
        total_channels += out.dim(1);
    }

    const Tensor &front = outputs.front();
    const std::uint32_t batch = front.dim(0);
    // Channel concatenation is a block copy: for one sample, a
    // branch's {c_i, h, w[, L]} slab is contiguous in both the source
    // and the destination.
    const std::size_t plane = front.size() / batch / channels.front();
    Tensor concat = Tensor::uninitialized(laneShape(
        {batch, total_channels, front.dim(2), front.dim(3)}, front, 4));
    for (std::uint32_t b = 0; b < batch; ++b) {
        float *dst = concat.data() + b * total_channels * plane;
        for (std::size_t i = 0; i < outputs.size(); ++i) {
            const std::size_t slab = channels[i] * plane;
            const float *src = outputs[i].data() + b * slab;
            dst = std::copy(src, src + slab, dst);
        }
    }
    // Only training-mode forwards may touch member state: eval-mode
    // forwards run concurrently on a shared skeleton model.
    if (ctx.training) {
        branchChannels_ = channels;
        outputShape_ = concat.shape();
    }
    return concat;
}

Tensor
InceptionConcat::backward(const Tensor &grad_output)
{
    checkGradShape(grad_output, outputShape_, "inception");
    const std::uint32_t batch = grad_output.dim(0);
    const std::uint32_t h = grad_output.dim(2);
    const std::uint32_t w = grad_output.dim(3);
    const std::size_t plane = static_cast<std::size_t>(h) * w;

    Tensor grad_input;
    std::uint32_t channel_base = 0;
    for (std::size_t i = 0; i < branches_.size(); ++i) {
        const std::size_t slab = branchChannels_[i] * plane;
        Tensor branch_grad({batch, branchChannels_[i], h, w});
        for (std::uint32_t b = 0; b < batch; ++b) {
            const float *src =
                grad_output.data() +
                (static_cast<std::size_t>(b) * grad_output.dim(1) +
                 channel_base) *
                    plane;
            std::copy(src, src + slab, branch_grad.data() + b * slab);
        }
        channel_base += branchChannels_[i];
        const Tensor g = branches_[i]->backward(branch_grad);
        if (i == 0)
            grad_input = g;
        else
            addTrialSpan(grad_input.data(), g.data(), grad_input.size());
    }
    return grad_input;
}

std::vector<Param>
InceptionConcat::params()
{
    std::vector<Param> all;
    for (auto &branch : branches_) {
        auto branch_params = branch->params();
        all.insert(all.end(), branch_params.begin(),
                   branch_params.end());
    }
    return all;
}

void
InceptionConcat::bindSharedParams(SharedParamCursor &cursor)
{
    for (auto &branch : branches_)
        branch->bindSharedParams(cursor);
}

} // namespace rana
