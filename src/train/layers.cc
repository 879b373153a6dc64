/**
 * @file
 * Implementation of the training-framework layers.
 */

#include "train/layers.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "train/trial_batch.hh"
#include "util/logging.hh"

namespace rana {

namespace {

/**
 * Convolution forward kernel of one sample. Bit-compatible with the
 * reference loop nest: every output element accumulates bias + sum
 * over (n, ky, kx) of the valid taps, in exactly that order, so
 * refactoring the loop structure cannot change a single ULP. The
 * speed comes from the loop shape: the output-x dimension is
 * innermost, contiguous and branch-free (the padding clip is hoisted
 * into the [x_lo, x_hi) bounds), so the compiler vectorizes the
 * multiply-accumulate across independent output accumulators without
 * reordering any per-accumulator addition.
 */
void
convolveForward(const float *in, const float *wt, const float *bias,
                float *out, std::uint32_t in_channels, std::uint32_t h,
                std::uint32_t w, std::uint32_t out_channels,
                std::uint32_t r, std::uint32_t c,
                std::uint32_t kernel, std::uint32_t stride,
                std::uint32_t pad)
{
    const std::size_t in_plane = static_cast<std::size_t>(h) * w;
    const std::size_t out_plane = static_cast<std::size_t>(r) * c;
    const std::size_t wt_kernel =
        static_cast<std::size_t>(kernel) * kernel;
    std::vector<float> acc_buf(c);
    float *acc = acc_buf.data();
    for (std::uint32_t m = 0; m < out_channels; ++m) {
        float *out_m = out + m * out_plane;
        const float *wt_m = wt + m * in_channels * wt_kernel;
        const float bias_m = bias[m];
        for (std::uint32_t y = 0; y < r; ++y) {
            const std::int64_t base_y =
                static_cast<std::int64_t>(y) * stride - pad;
            for (std::uint32_t x = 0; x < c; ++x)
                acc[x] = bias_m;
            for (std::uint32_t n = 0; n < in_channels; ++n) {
                const float *in_n = in + n * in_plane;
                const float *wt_n = wt_m + n * wt_kernel;
                for (std::uint32_t ky = 0; ky < kernel; ++ky) {
                    const std::int64_t in_y = base_y + ky;
                    if (in_y < 0 || in_y >= h)
                        continue;
                    const float *in_row = in_n + in_y * w;
                    const float *wt_row = wt_n + ky * kernel;
                    for (std::uint32_t kx = 0; kx < kernel; ++kx) {
                        // Valid x satisfy 0 <= x*stride + off < w.
                        const std::int64_t off =
                            static_cast<std::int64_t>(kx) - pad;
                        std::int64_t x_lo = 0;
                        if (off < 0) {
                            x_lo = (-off + stride - 1) / stride;
                        }
                        std::int64_t x_hi = 0;
                        if (w >= off + 1) {
                            x_hi = (w - 1 - off) / stride + 1;
                        }
                        x_hi = std::min<std::int64_t>(x_hi, c);
                        if (x_lo >= x_hi)
                            continue;
                        const float wv = wt_row[kx];
                        if (stride == 1) {
                            const float *src = in_row + off;
                            for (std::int64_t x = x_lo; x < x_hi; ++x)
                                acc[x] += src[x] * wv;
                        } else {
                            for (std::int64_t x = x_lo; x < x_hi; ++x)
                                acc[x] += in_row[x * stride + off] * wv;
                        }
                    }
                }
            }
            float *out_row = out_m + static_cast<std::size_t>(y) * c;
            for (std::uint32_t x = 0; x < c; ++x)
                out_row[x] = acc[x];
        }
    }
}

/**
 * Walk an NCHW minibatch in lane blocks of 16/8/4/2 samples, then at
 * most one leftover sample. For each block, `run(in, out, lanes)`
 * gets the block's `in_sample`-float samples packed lane-major (lane
 * innermost) and a zeroed lane-major buffer for the `out_sample`
 * floats per sample, which are then scattered back to the samples'
 * slots of `out`. A lone sample is passed in place: one lane has the
 * NCHW layout, and its `out` slot is still zero.
 */
template <typename Run>
void
forSampleLaneBlocks(const float *in, std::size_t in_sample, float *out,
                    std::size_t out_sample, std::uint32_t batch,
                    Run &&run)
{
    std::vector<float> in_lanes;
    std::vector<float> out_lanes;
    std::uint32_t lanes = 16;
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
        out_lanes.assign(out_sample * lanes, 0.0f);
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
 * Dense forward kernel shared by the per-trial and the trial-batched
 * paths. Keeps the reference accumulation order (one sequential dot
 * product per output); the win over the reference loop is the raw
 * contiguous pointers instead of per-element index arithmetic.
 */
void
denseForward(const float *in, const float *wt, const float *bias,
             float *out, std::uint32_t batch,
             std::uint32_t in_features, std::uint32_t out_features)
{
    for (std::uint32_t b = 0; b < batch; ++b) {
        const float *in_b =
            in + static_cast<std::size_t>(b) * in_features;
        float *out_b =
            out + static_cast<std::size_t>(b) * out_features;
        for (std::uint32_t o = 0; o < out_features; ++o) {
            const float *wt_o =
                wt + static_cast<std::size_t>(o) * in_features;
            float acc = bias[o];
            for (std::uint32_t i = 0; i < in_features; ++i)
                acc += in_b[i] * wt_o[i];
            out_b[o] = acc;
        }
    }
}

/**
 * Batched counterpart of effectiveOperand: quantize the whole
 * lane-major tensor once (element-wise, so the shared quantization
 * is bit-identical per lane), then walk each lane with its own
 * injector at the lane stride — the per-lane RNG streams match the
 * scalar path exactly.
 */
void
corruptTrialOperand(Tensor &stacked, const TrialForwardContext &ctx)
{
    if (ctx.quant == nullptr)
        return;
    const std::uint32_t lanes = ctx.lanes();
    quantizeTrialSpan(stacked.data(), stacked.size(), *ctx.quant);
    const std::size_t lane_count = stacked.size() / lanes;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        if (ctx.injectors[l] != nullptr) {
            ctx.injectors[l]->corruptStrided(stacked.data() + l,
                                             lane_count, lanes,
                                             *ctx.quant);
        }
    }
}

/**
 * Per-lane copy-on-corrupt weights packed lane-major: each lane runs
 * the scalar corruptedWeights transformation (same injector fallback,
 * same RNG stream), and the resulting scalar-layout views are
 * interleaved into one {<weight shape>, L} buffer for the kernels.
 */
std::vector<float>
packTrialWeights(const Tensor &weights, const TrialForwardContext &ctx)
{
    const std::uint32_t lanes = ctx.lanes();
    std::vector<Tensor> copies;
    copies.reserve(lanes);
    std::vector<const float *> ptrs(lanes, weights.data());
    for (std::uint32_t l = 0; l < lanes; ++l) {
        ForwardContext lane_ctx;
        lane_ctx.quant = ctx.quant;
        lane_ctx.injector = ctx.injectors[l];
        lane_ctx.weightInjector = ctx.weightInjectors[l];
        lane_ctx.weightsPreQuantized = ctx.weightsPreQuantized;
        std::optional<Tensor> corrupted =
            corruptedWeights(weights, lane_ctx);
        if (corrupted) {
            copies.push_back(std::move(*corrupted));
            ptrs[l] = copies.back().data();
        }
    }
    std::vector<float> packed(weights.size() *
                              static_cast<std::size_t>(lanes));
    packLanePointers(ptrs, weights.size(), packed.data());
    return packed;
}

/** Bias replicated across lanes ({O} -> {O, L}; never corrupted). */
std::vector<float>
packTrialBias(const Tensor &bias, std::uint32_t lanes)
{
    std::vector<float> packed(bias.size() *
                              static_cast<std::size_t>(lanes));
    for (std::size_t i = 0; i < bias.size(); ++i)
        for (std::uint32_t l = 0; l < lanes; ++l)
            packed[i * lanes + l] = bias[i];
    return packed;
}

} // namespace

Tensor
Layer::forwardTrials(const Tensor &input,
                     const TrialForwardContext &ctx)
{
    (void)input;
    (void)ctx;
    panic("layer does not support trial-batched forward: ",
          describe());
}

Tensor
effectiveOperand(const Tensor &operand, const ForwardContext &ctx)
{
    Tensor effective = operand;
    if (ctx.quant != nullptr) {
        quantizeTensor(effective, *ctx.quant);
        if (ctx.injector != nullptr)
            ctx.injector->corruptTensor(effective, *ctx.quant);
    }
    return effective;
}

Tensor
effectiveWeights(const Tensor &weights, const ForwardContext &ctx)
{
    if (ctx.weightInjector == nullptr)
        return effectiveOperand(weights, ctx);
    ForwardContext weight_ctx = ctx;
    weight_ctx.injector = ctx.weightInjector;
    return effectiveOperand(weights, weight_ctx);
}

std::optional<Tensor>
corruptedWeights(const Tensor &weights, const ForwardContext &ctx)
{
    if (ctx.quant == nullptr)
        return std::nullopt;
    BitErrorInjector *injector =
        ctx.weightInjector != nullptr ? ctx.weightInjector
                                      : ctx.injector;
    const bool corrupting =
        injector != nullptr && injector->failureRate() > 0.0;
    if (ctx.weightsPreQuantized && !corrupting)
        return std::nullopt;
    Tensor copy = weights;
    if (!ctx.weightsPreQuantized)
        quantizeTensor(copy, *ctx.quant);
    if (corrupting)
        injector->corruptTensor(copy, *ctx.quant);
    return copy;
}

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
// Conv2dLayer
// ---------------------------------------------------------------

Conv2dLayer::Conv2dLayer(std::uint32_t in_channels,
                         std::uint32_t out_channels,
                         std::uint32_t kernel, std::uint32_t stride,
                         std::uint32_t pad, Rng &rng)
    : inChannels_(in_channels),
      outChannels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weights_({out_channels, in_channels, kernel, kernel}),
      bias_({out_channels}),
      weightGrad_({out_channels, in_channels, kernel, kernel}),
      biasGrad_({out_channels})
{
    heInitialize(weights_, in_channels * kernel * kernel, rng);
}

Tensor
Conv2dLayer::forward(const Tensor &input, const ForwardContext &ctx)
{
    RANA_ASSERT(input.shape().size() == 4 &&
                input.dim(1) == inChannels_,
                "conv input shape mismatch");
    RANA_ASSERT(!(ctx.training && sharedWeights_ != nullptr),
                "shared-weight models are eval-only");
    const std::uint32_t batch = input.dim(0);
    const std::uint32_t h = input.dim(2);
    const std::uint32_t w = input.dim(3);
    RANA_ASSERT(h + 2 * pad_ >= kernel_ && w + 2 * pad_ >= kernel_,
                "conv kernel larger than padded input");
    const std::uint32_t r = (h + 2 * pad_ - kernel_) / stride_ + 1;
    const std::uint32_t c = (w + 2 * pad_ - kernel_) / stride_ + 1;

    const Tensor &weights =
        sharedWeights_ != nullptr ? *sharedWeights_ : weights_;
    const Tensor &bias =
        sharedBias_ != nullptr ? *sharedBias_ : bias_;
    const Tensor eff_input = effectiveOperand(input, ctx);
    const std::optional<Tensor> corrupted =
        corruptedWeights(weights, ctx);
    const Tensor &eff_weights = corrupted ? *corrupted : weights;
    Tensor output({batch, outChannels_, r, c});
    if (ctx.training) {
        cachedInput_ = eff_input;
        cachedWeights_ = eff_weights;
        outputShape_ = output.shape();
    }

    // The minibatch runs as lanes sharing one weight tensor; per
    // sample the lane kernel accumulates in the scalar kernel's
    // order, and a lone sample stays on the scalar kernel.
    const float *wt = eff_weights.data();
    std::vector<float> lane_wt;
    std::vector<float> lane_bias;
    forSampleLaneBlocks(
        eff_input.data(), static_cast<std::size_t>(inChannels_) * h * w,
        output.data(), static_cast<std::size_t>(outChannels_) * r * c,
        batch,
        [&](const float *in, float *out, std::uint32_t lanes) {
            if (lanes == 1) {
                convolveForward(in, wt, bias.data(), out, inChannels_,
                                h, w, outChannels_, r, c, kernel_,
                                stride_, pad_);
                return;
            }
            // Blocks shrink monotonically: replicate once per size.
            if (lane_bias.size() != bias.size() * lanes) {
                lane_wt.resize(eff_weights.size() * lanes);
                packLanePointers(std::vector<const float *>(lanes, wt),
                                 eff_weights.size(), lane_wt.data());
                lane_bias = packTrialBias(bias, lanes);
            }
            convolveTrialLanes(in, lane_wt.data(), lane_bias.data(),
                               out, 1, inChannels_, h, w,
                               outChannels_, r, c, kernel_, stride_,
                               pad_, lanes);
        });
    return output;
}

Tensor
Conv2dLayer::forwardTrials(const Tensor &input,
                           const TrialForwardContext &ctx)
{
    const std::uint32_t lanes = ctx.lanes();
    RANA_ASSERT(input.shape().size() == 5 &&
                input.dim(1) == inChannels_ &&
                input.dim(4) == lanes,
                "conv trial-batch input shape mismatch");
    const std::uint32_t batch = input.dim(0);
    const std::uint32_t h = input.dim(2);
    const std::uint32_t w = input.dim(3);
    RANA_ASSERT(h + 2 * pad_ >= kernel_ && w + 2 * pad_ >= kernel_,
                "conv kernel larger than padded input");
    const std::uint32_t r = (h + 2 * pad_ - kernel_) / stride_ + 1;
    const std::uint32_t c = (w + 2 * pad_ - kernel_) / stride_ + 1;

    const Tensor &weights =
        sharedWeights_ != nullptr ? *sharedWeights_ : weights_;
    const Tensor &bias =
        sharedBias_ != nullptr ? *sharedBias_ : bias_;
    Tensor eff_input = input;
    corruptTrialOperand(eff_input, ctx);
    const std::vector<float> packed_weights =
        packTrialWeights(weights, ctx);
    const std::vector<float> packed_bias = packTrialBias(bias, lanes);

    Tensor output({batch, outChannels_, r, c, lanes});
    convolveTrialLanes(eff_input.data(), packed_weights.data(),
                       packed_bias.data(), output.data(), batch,
                       inChannels_, h, w, outChannels_, r, c, kernel_,
                       stride_, pad_, lanes);
    return output;
}

Tensor
Conv2dLayer::backward(const Tensor &grad_output)
{
    checkGradShape(grad_output, outputShape_, "conv");
    const std::uint32_t batch = cachedInput_.dim(0);
    const std::uint32_t h = cachedInput_.dim(2);
    const std::uint32_t w = cachedInput_.dim(3);
    const std::uint32_t r = grad_output.dim(2);
    const std::uint32_t c = grad_output.dim(3);

    Tensor grad_input(cachedInput_.shape());
    const float *wt = cachedWeights_.data();
    forSampleLaneBlocks(
        grad_output.data(), static_cast<std::size_t>(outChannels_) * r * c,
        grad_input.data(), static_cast<std::size_t>(inChannels_) * h * w,
        batch,
        [&](const float *gout, float *gin, std::uint32_t lanes) {
            convolveInputGradLanes(gout, wt, gin, inChannels_, h, w,
                                   outChannels_, r, c, kernel_,
                                   stride_, pad_, lanes);
        });
    convolveWeightGrad(cachedInput_.data(), grad_output.data(),
                       weightGrad_.data(), biasGrad_.data(), batch,
                       inChannels_, h, w, outChannels_, r, c, kernel_,
                       stride_, pad_);
    return grad_input;
}

std::vector<Param>
Conv2dLayer::params()
{
    return {{&weights_, &weightGrad_}, {&bias_, &biasGrad_}};
}

void
Conv2dLayer::bindSharedParams(SharedParamCursor &cursor)
{
    sharedWeights_ = cursor.next();
    sharedBias_ = cursor.next();
    RANA_ASSERT(sharedWeights_ != nullptr && sharedBias_ != nullptr,
                "shared weight store exhausted at ", describe());
    RANA_ASSERT(sharedWeights_->shape() == weights_.shape() &&
                sharedBias_->shape() == bias_.shape(),
                "shared weight store shape mismatch at ", describe());
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
ReluLayer::forward(const Tensor &input, const ForwardContext &ctx)
{
    if (ctx.training)
        cachedInput_ = input;
    Tensor output = input;
    for (std::size_t i = 0; i < output.size(); ++i)
        output[i] = std::max(0.0f, output[i]);
    return output;
}

Tensor
ReluLayer::forwardTrials(const Tensor &input,
                         const TrialForwardContext &ctx)
{
    (void)ctx;
    Tensor output = input;
    reluTrialSpan(output.data(), output.size());
    return output;
}

Tensor
ReluLayer::backward(const Tensor &grad_output)
{
    checkGradShape(grad_output, cachedInput_.shape(), "relu");
    Tensor grad = grad_output;
    for (std::size_t i = 0; i < grad.size(); ++i) {
        if (cachedInput_[i] <= 0.0f)
            grad[i] = 0.0f;
    }
    return grad;
}

// ---------------------------------------------------------------
// MaxPool2dLayer
// ---------------------------------------------------------------

Tensor
MaxPool2dLayer::forward(const Tensor &input, const ForwardContext &ctx)
{
    const std::uint32_t batch = input.dim(0);
    const std::uint32_t channels = input.dim(1);
    const std::uint32_t h = input.dim(2);
    const std::uint32_t w = input.dim(3);
    RANA_ASSERT(h % 2 == 0 && w % 2 == 0,
                "maxpool2x2 needs even spatial dims");
    const std::uint32_t r = h / 2;
    const std::uint32_t c = w / 2;

    Tensor output({batch, channels, r, c});
    if (ctx.training) {
        inputShape_ = input.shape();
        outputShape_ = output.shape();
        argmax_.assign(output.size(), 0);
    }
    std::size_t out_index = 0;
    for (std::uint32_t b = 0; b < batch; ++b) {
        for (std::uint32_t ch = 0; ch < channels; ++ch) {
            for (std::uint32_t y = 0; y < r; ++y) {
                for (std::uint32_t x = 0; x < c; ++x) {
                    float best = -1e30f;
                    std::uint32_t best_off = 0;
                    for (std::uint32_t dy = 0; dy < 2; ++dy) {
                        for (std::uint32_t dx = 0; dx < 2; ++dx) {
                            const float v = input.at4(b, ch, 2 * y + dy,
                                                      2 * x + dx);
                            if (v > best) {
                                best = v;
                                best_off = dy * 2 + dx;
                            }
                        }
                    }
                    output.at4(b, ch, y, x) = best;
                    if (ctx.training)
                        argmax_[out_index] = best_off;
                    ++out_index;
                }
            }
        }
    }
    return output;
}

Tensor
MaxPool2dLayer::forwardTrials(const Tensor &input,
                              const TrialForwardContext &ctx)
{
    const std::uint32_t lanes = ctx.lanes();
    RANA_ASSERT(input.shape().size() == 5 && input.dim(4) == lanes,
                "maxpool trial-batch input shape mismatch");
    const std::uint32_t batch = input.dim(0);
    const std::uint32_t channels = input.dim(1);
    const std::uint32_t h = input.dim(2);
    const std::uint32_t w = input.dim(3);
    RANA_ASSERT(h % 2 == 0 && w % 2 == 0,
                "maxpool2x2 needs even spatial dims");
    Tensor output({batch, channels, h / 2, w / 2, lanes});
    maxPoolTrialLanes(input.data(), output.data(), batch, channels, h,
                      w, lanes);
    return output;
}

Tensor
MaxPool2dLayer::backward(const Tensor &grad_output)
{
    checkGradShape(grad_output, outputShape_, "maxpool");
    Tensor grad_input(inputShape_);
    const std::uint32_t batch = grad_output.dim(0);
    const std::uint32_t channels = grad_output.dim(1);
    const std::uint32_t r = grad_output.dim(2);
    const std::uint32_t c = grad_output.dim(3);
    std::size_t out_index = 0;
    for (std::uint32_t b = 0; b < batch; ++b) {
        for (std::uint32_t ch = 0; ch < channels; ++ch) {
            for (std::uint32_t y = 0; y < r; ++y) {
                for (std::uint32_t x = 0; x < c; ++x) {
                    const std::uint32_t off = argmax_[out_index];
                    grad_input.at4(b, ch, 2 * y + off / 2,
                                   2 * x + off % 2) +=
                        grad_output.at4(b, ch, y, x);
                    ++out_index;
                }
            }
        }
    }
    return grad_input;
}

// ---------------------------------------------------------------
// AvgPool2dLayer
// ---------------------------------------------------------------

Tensor
AvgPool2dLayer::forward(const Tensor &input, const ForwardContext &ctx)
{
    const std::uint32_t batch = input.dim(0);
    const std::uint32_t channels = input.dim(1);
    const std::uint32_t h = input.dim(2);
    const std::uint32_t w = input.dim(3);
    RANA_ASSERT(h % 2 == 0 && w % 2 == 0,
                "avgpool2x2 needs even spatial dims");
    if (ctx.training)
        inputShape_ = input.shape();
    Tensor output({batch, channels, h / 2, w / 2});
    for (std::uint32_t b = 0; b < batch; ++b) {
        for (std::uint32_t ch = 0; ch < channels; ++ch) {
            for (std::uint32_t y = 0; y < h / 2; ++y) {
                for (std::uint32_t x = 0; x < w / 2; ++x) {
                    float sum = 0.0f;
                    for (std::uint32_t dy = 0; dy < 2; ++dy)
                        for (std::uint32_t dx = 0; dx < 2; ++dx)
                            sum += input.at4(b, ch, 2 * y + dy,
                                             2 * x + dx);
                    output.at4(b, ch, y, x) = sum * 0.25f;
                }
            }
        }
    }
    return output;
}

Tensor
AvgPool2dLayer::forwardTrials(const Tensor &input,
                              const TrialForwardContext &ctx)
{
    const std::uint32_t lanes = ctx.lanes();
    RANA_ASSERT(input.shape().size() == 5 && input.dim(4) == lanes,
                "avgpool trial-batch input shape mismatch");
    const std::uint32_t batch = input.dim(0);
    const std::uint32_t channels = input.dim(1);
    const std::uint32_t h = input.dim(2);
    const std::uint32_t w = input.dim(3);
    RANA_ASSERT(h % 2 == 0 && w % 2 == 0,
                "avgpool2x2 needs even spatial dims");
    Tensor output({batch, channels, h / 2, w / 2, lanes});
    avgPoolTrialLanes(input.data(), output.data(), batch, channels, h,
                      w, lanes);
    return output;
}

Tensor
AvgPool2dLayer::backward(const Tensor &grad_output)
{
    Tensor grad_input(inputShape_);
    const std::uint32_t batch = grad_output.dim(0);
    const std::uint32_t channels = grad_output.dim(1);
    const std::uint32_t r = grad_output.dim(2);
    const std::uint32_t c = grad_output.dim(3);
    for (std::uint32_t b = 0; b < batch; ++b) {
        for (std::uint32_t ch = 0; ch < channels; ++ch) {
            for (std::uint32_t y = 0; y < r; ++y) {
                for (std::uint32_t x = 0; x < c; ++x) {
                    const float g =
                        grad_output.at4(b, ch, y, x) * 0.25f;
                    for (std::uint32_t dy = 0; dy < 2; ++dy)
                        for (std::uint32_t dx = 0; dx < 2; ++dx)
                            grad_input.at4(b, ch, 2 * y + dy,
                                           2 * x + dx) += g;
                }
            }
        }
    }
    return grad_input;
}

// ---------------------------------------------------------------
// DenseLayer
// ---------------------------------------------------------------

DenseLayer::DenseLayer(std::uint32_t in_features,
                       std::uint32_t out_features, Rng &rng)
    : inFeatures_(in_features),
      outFeatures_(out_features),
      weights_({out_features, in_features}),
      bias_({out_features}),
      weightGrad_({out_features, in_features}),
      biasGrad_({out_features})
{
    heInitialize(weights_, in_features, rng);
}

Tensor
DenseLayer::forward(const Tensor &input, const ForwardContext &ctx)
{
    RANA_ASSERT(input.shape().size() == 2 &&
                input.dim(1) == inFeatures_,
                "dense input shape mismatch");
    RANA_ASSERT(!(ctx.training && sharedWeights_ != nullptr),
                "shared-weight models are eval-only");
    const std::uint32_t batch = input.dim(0);

    const Tensor &weights =
        sharedWeights_ != nullptr ? *sharedWeights_ : weights_;
    const Tensor &bias =
        sharedBias_ != nullptr ? *sharedBias_ : bias_;
    const Tensor eff_input = effectiveOperand(input, ctx);
    const std::optional<Tensor> corrupted =
        corruptedWeights(weights, ctx);
    const Tensor &eff_weights = corrupted ? *corrupted : weights;
    Tensor output({batch, outFeatures_});
    if (ctx.training) {
        cachedInput_ = eff_input;
        cachedWeights_ = eff_weights;
        outputShape_ = output.shape();
    }

    denseForward(eff_input.data(), eff_weights.data(), bias.data(),
                 output.data(), batch, inFeatures_, outFeatures_);
    return output;
}

Tensor
DenseLayer::forwardTrials(const Tensor &input,
                          const TrialForwardContext &ctx)
{
    const std::uint32_t lanes = ctx.lanes();
    RANA_ASSERT(input.shape().size() == 3 &&
                input.dim(1) == inFeatures_ &&
                input.dim(2) == lanes,
                "dense trial-batch input shape mismatch");
    const std::uint32_t batch = input.dim(0);

    const Tensor &weights =
        sharedWeights_ != nullptr ? *sharedWeights_ : weights_;
    const Tensor &bias =
        sharedBias_ != nullptr ? *sharedBias_ : bias_;
    Tensor eff_input = input;
    corruptTrialOperand(eff_input, ctx);
    const std::vector<float> packed_weights =
        packTrialWeights(weights, ctx);
    const std::vector<float> packed_bias = packTrialBias(bias, lanes);

    Tensor output({batch, outFeatures_, lanes});
    denseTrialLanes(eff_input.data(), packed_weights.data(),
                    packed_bias.data(), output.data(), batch,
                    inFeatures_, outFeatures_, lanes);
    return output;
}

Tensor
DenseLayer::backward(const Tensor &grad_output)
{
    checkGradShape(grad_output, outputShape_, "dense");
    const std::uint32_t batch = grad_output.dim(0);
    Tensor grad_input({batch, inFeatures_});
    for (std::uint32_t b = 0; b < batch; ++b) {
        for (std::uint32_t o = 0; o < outFeatures_; ++o) {
            const float g = grad_output.at2(b, o);
            biasGrad_[o] += g;
            for (std::uint32_t i = 0; i < inFeatures_; ++i) {
                weightGrad_.at2(o, i) += g * cachedInput_.at2(b, i);
                grad_input.at2(b, i) += g * cachedWeights_.at2(o, i);
            }
        }
    }
    return grad_input;
}

std::vector<Param>
DenseLayer::params()
{
    return {{&weights_, &weightGrad_}, {&bias_, &biasGrad_}};
}

void
DenseLayer::bindSharedParams(SharedParamCursor &cursor)
{
    sharedWeights_ = cursor.next();
    sharedBias_ = cursor.next();
    RANA_ASSERT(sharedWeights_ != nullptr && sharedBias_ != nullptr,
                "shared weight store exhausted at ", describe());
    RANA_ASSERT(sharedWeights_->shape() == weights_.shape() &&
                sharedBias_->shape() == bias_.shape(),
                "shared weight store shape mismatch at ", describe());
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
FlattenLayer::forward(const Tensor &input, const ForwardContext &ctx)
{
    if (ctx.training)
        inputShape_ = input.shape();
    const std::uint32_t batch = input.dim(0);
    const auto features =
        static_cast<std::uint32_t>(input.size() / batch);
    return input.reshaped({batch, features});
}

Tensor
FlattenLayer::forwardTrials(const Tensor &input,
                            const TrialForwardContext &ctx)
{
    const std::uint32_t lanes = ctx.lanes();
    RANA_ASSERT(input.shape().size() >= 2 &&
                input.shape().back() == lanes,
                "flatten trial-batch input shape mismatch");
    const std::uint32_t batch = input.dim(0);
    // The lane index is innermost, so collapsing the middle
    // dimensions is the same pure reshape as the scalar layer.
    const auto features = static_cast<std::uint32_t>(
        input.size() / batch / lanes);
    return input.reshaped({batch, features, lanes});
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
Sequential::forward(const Tensor &input, const ForwardContext &ctx)
{
    Tensor current = input;
    for (auto &layer : layers_)
        current = layer->forward(current, ctx);
    return current;
}

Tensor
Sequential::forwardTrials(const Tensor &input,
                          const TrialForwardContext &ctx)
{
    Tensor current = input;
    for (auto &layer : layers_)
        current = layer->forwardTrials(current, ctx);
    return current;
}

Tensor
Sequential::backward(const Tensor &grad_output)
{
    Tensor grad = grad_output;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
        grad = (*it)->backward(grad);
    return grad;
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
ResidualBlock::forward(const Tensor &input, const ForwardContext &ctx)
{
    Tensor branch = body_->forward(input, ctx);
    RANA_ASSERT(branch.size() == input.size(),
                "residual body must preserve the shape");
    for (std::size_t i = 0; i < branch.size(); ++i)
        branch[i] += input[i];
    return branch;
}

Tensor
ResidualBlock::forwardTrials(const Tensor &input,
                             const TrialForwardContext &ctx)
{
    Tensor branch = body_->forwardTrials(input, ctx);
    RANA_ASSERT(branch.size() == input.size(),
                "residual body must preserve the shape");
    // As in the scalar layer, the skip adds the raw (uncorrupted)
    // block input element-wise; per lane the addition pairs are
    // identical to the scalar pass.
    addTrialSpan(branch.data(), input.data(), branch.size());
    return branch;
}

Tensor
ResidualBlock::backward(const Tensor &grad_output)
{
    Tensor grad = body_->backward(grad_output);
    for (std::size_t i = 0; i < grad.size(); ++i)
        grad[i] += grad_output[i];
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
InceptionConcat::forward(const Tensor &input, const ForwardContext &ctx)
{
    std::vector<Tensor> outputs;
    outputs.reserve(branches_.size());
    std::vector<std::uint32_t> channels;
    channels.reserve(branches_.size());
    std::uint32_t total_channels = 0;
    for (auto &branch : branches_) {
        outputs.push_back(branch->forward(input, ctx));
        const Tensor &out = outputs.back();
        RANA_ASSERT(out.shape().size() == 4,
                    "inception branches must output 4-D maps");
        RANA_ASSERT(out.dim(0) == outputs.front().dim(0) &&
                    out.dim(2) == outputs.front().dim(2) &&
                    out.dim(3) == outputs.front().dim(3),
                    "inception branch output shapes must align");
        channels.push_back(out.dim(1));
        total_channels += out.dim(1);
    }
    // Only training-mode forwards may touch member state: eval-mode
    // forwards run concurrently on a shared skeleton model.
    if (ctx.training)
        branchChannels_ = channels;

    const std::uint32_t batch = outputs.front().dim(0);
    const std::uint32_t h = outputs.front().dim(2);
    const std::uint32_t w = outputs.front().dim(3);
    Tensor concat({batch, total_channels, h, w});
    for (std::uint32_t b = 0; b < batch; ++b) {
        std::uint32_t channel_base = 0;
        for (std::size_t i = 0; i < outputs.size(); ++i) {
            for (std::uint32_t c = 0; c < channels[i]; ++c) {
                for (std::uint32_t y = 0; y < h; ++y) {
                    for (std::uint32_t x = 0; x < w; ++x) {
                        concat.at4(b, channel_base + c, y, x) =
                            outputs[i].at4(b, c, y, x);
                    }
                }
            }
            channel_base += channels[i];
        }
    }
    return concat;
}

Tensor
InceptionConcat::forwardTrials(const Tensor &input,
                               const TrialForwardContext &ctx)
{
    const std::uint32_t lanes = ctx.lanes();
    std::vector<Tensor> outputs;
    outputs.reserve(branches_.size());
    std::vector<std::uint32_t> channels;
    channels.reserve(branches_.size());
    std::uint32_t total_channels = 0;
    for (auto &branch : branches_) {
        outputs.push_back(branch->forwardTrials(input, ctx));
        const Tensor &out = outputs.back();
        RANA_ASSERT(out.shape().size() == 5 && out.dim(4) == lanes,
                    "inception branches must output lane-major 4-D "
                    "maps");
        RANA_ASSERT(out.dim(0) == outputs.front().dim(0) &&
                    out.dim(2) == outputs.front().dim(2) &&
                    out.dim(3) == outputs.front().dim(3),
                    "inception branch output shapes must align");
        channels.push_back(out.dim(1));
        total_channels += out.dim(1);
    }

    const std::uint32_t batch = outputs.front().dim(0);
    const std::uint32_t h = outputs.front().dim(2);
    const std::uint32_t w = outputs.front().dim(3);
    // Lane-major channel concatenation is a block copy: for one
    // sample, a branch's {c_i, h, w, L} slab is contiguous in both
    // the source and the destination.
    const std::size_t plane = static_cast<std::size_t>(h) * w * lanes;
    Tensor concat({batch, total_channels, h, w, lanes});
    for (std::uint32_t b = 0; b < batch; ++b) {
        std::uint32_t channel_base = 0;
        for (std::size_t i = 0; i < outputs.size(); ++i) {
            const std::size_t slab = channels[i] * plane;
            const float *src = outputs[i].data() + b * slab;
            float *dst = concat.data() +
                         (static_cast<std::size_t>(b) *
                              total_channels +
                          channel_base) *
                             plane;
            std::copy(src, src + slab, dst);
            channel_base += channels[i];
        }
    }
    return concat;
}

Tensor
InceptionConcat::backward(const Tensor &grad_output)
{
    const std::uint32_t batch = grad_output.dim(0);
    const std::uint32_t h = grad_output.dim(2);
    const std::uint32_t w = grad_output.dim(3);

    Tensor grad_input;
    bool first = true;
    std::uint32_t channel_base = 0;
    for (std::size_t i = 0; i < branches_.size(); ++i) {
        Tensor branch_grad({batch, branchChannels_[i], h, w});
        for (std::uint32_t b = 0; b < batch; ++b) {
            for (std::uint32_t c = 0; c < branchChannels_[i]; ++c) {
                for (std::uint32_t y = 0; y < h; ++y) {
                    for (std::uint32_t x = 0; x < w; ++x) {
                        branch_grad.at4(b, c, y, x) =
                            grad_output.at4(b, channel_base + c, y, x);
                    }
                }
            }
        }
        channel_base += branchChannels_[i];
        Tensor g = branches_[i]->backward(branch_grad);
        if (first) {
            grad_input = g;
            first = false;
        } else {
            for (std::size_t j = 0; j < grad_input.size(); ++j)
                grad_input[j] += g[j];
        }
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
