/**
 * @file
 * Gradient and shape tests for the training-framework layers: every
 * differentiable layer is verified against central finite
 * differences on random small tensors. The TrainKernels suite pins
 * the convolution's forward and backward bit for bit against the
 * reference loop nests they replaced, checks that every kernel
 * writes its whole output and that no clone fuses a multiply-add,
 * and the backward passes die on gradients that do not match the
 * last training forward.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>

#include "train/error_injection.hh"
#include "train/lane_scorer.hh"
#include "train/layers.hh"
#include "train/loss.hh"
#include "train/mini_models.hh"
#include "train/trial_batch.hh"
#include "util/random.hh"

namespace rana {
namespace {

/** Fill a tensor with small random values. */
void
randomize(Tensor &tensor, Rng &rng)
{
    for (std::size_t i = 0; i < tensor.size(); ++i)
        tensor[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
}

/** Scalar objective: sum of squares of the layer output. */
double
objective(Layer &layer, const Tensor &input)
{
    ForwardContext ctx;
    ctx.training = true;
    const Tensor out = layer.forward(input, ctx);
    double total = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i)
        total += 0.5 * static_cast<double>(out[i]) * out[i];
    return total;
}

/**
 * Verify d(objective)/d(input) and d(objective)/d(params) from
 * backward() against central finite differences.
 */
void
checkGradients(Layer &layer, Tensor input, double tolerance = 2e-2)
{
    ForwardContext ctx;
    ctx.training = true;
    const Tensor out = layer.forward(input, ctx);
    Tensor grad_out = out; // d(0.5*sum(out^2))/d(out) = out.
    for (Param param : layer.params())
        param.grad->fill(0.0f);
    const Tensor grad_in = layer.backward(grad_out);

    const double eps = 1e-3;

    // Input gradient: probe a handful of elements.
    Rng rng(31);
    for (int probe = 0; probe < 8; ++probe) {
        const std::size_t i = rng.uniformInt(
            static_cast<std::uint64_t>(input.size()));
        Tensor plus = input;
        Tensor minus = input;
        plus[i] += static_cast<float>(eps);
        minus[i] -= static_cast<float>(eps);
        const double numeric =
            (objective(layer, plus) - objective(layer, minus)) /
            (2.0 * eps);
        EXPECT_NEAR(grad_in[i], numeric,
                    tolerance * std::max(1.0, std::abs(numeric)))
            << "input element " << i;
    }

    // Parameter gradients.
    for (Param param : layer.params()) {
        for (int probe = 0; probe < 6; ++probe) {
            const std::size_t i = rng.uniformInt(
                static_cast<std::uint64_t>(param.value->size()));
            const float saved = (*param.value)[i];
            (*param.value)[i] = saved + static_cast<float>(eps);
            const double plus = objective(layer, input);
            (*param.value)[i] = saved - static_cast<float>(eps);
            const double minus = objective(layer, input);
            (*param.value)[i] = saved;
            const double numeric = (plus - minus) / (2.0 * eps);
            EXPECT_NEAR((*param.grad)[i], numeric,
                        tolerance * std::max(1.0, std::abs(numeric)))
                << "param element " << i;
        }
    }
}

TEST(LayerGradients, Conv2dNoPad)
{
    Rng rng(1);
    Conv2dLayer layer(2, 3, 3, 1, 0, rng);
    Tensor input({2, 2, 6, 6});
    randomize(input, rng);
    checkGradients(layer, input);
}

TEST(LayerGradients, Conv2dPaddedStrided)
{
    Rng rng(2);
    Conv2dLayer layer(3, 2, 3, 2, 1, rng);
    Tensor input({1, 3, 7, 7});
    randomize(input, rng);
    checkGradients(layer, input);
}

TEST(LayerGradients, Conv2dOneByOne)
{
    Rng rng(3);
    Conv2dLayer layer(4, 4, 1, 1, 0, rng);
    Tensor input({2, 4, 4, 4});
    randomize(input, rng);
    checkGradients(layer, input);
}

TEST(LayerGradients, Dense)
{
    Rng rng(4);
    DenseLayer layer(10, 5, rng);
    Tensor input({3, 10});
    randomize(input, rng);
    checkGradients(layer, input);
}

TEST(LayerGradients, Residual)
{
    Rng rng(5);
    auto body = std::make_unique<Sequential>();
    body->add(std::make_unique<Conv2dLayer>(2, 2, 3, 1, 1, rng));
    ResidualBlock layer(std::move(body));
    Tensor input({1, 2, 5, 5});
    randomize(input, rng);
    checkGradients(layer, input);
}

TEST(LayerGradients, Inception)
{
    Rng rng(6);
    std::vector<std::unique_ptr<Sequential>> branches;
    auto b1 = std::make_unique<Sequential>();
    b1->add(std::make_unique<Conv2dLayer>(2, 2, 1, 1, 0, rng));
    branches.push_back(std::move(b1));
    auto b2 = std::make_unique<Sequential>();
    b2->add(std::make_unique<Conv2dLayer>(2, 3, 3, 1, 1, rng));
    branches.push_back(std::move(b2));
    InceptionConcat layer(std::move(branches));
    Tensor input({1, 2, 4, 4});
    randomize(input, rng);
    checkGradients(layer, input);
}

TEST(LayerGradients, SequentialComposite)
{
    Rng rng(7);
    Sequential net;
    net.add(std::make_unique<Conv2dLayer>(1, 2, 3, 1, 1, rng));
    net.add(std::make_unique<ReluLayer>());
    net.add(std::make_unique<MaxPool2dLayer>());
    net.add(std::make_unique<FlattenLayer>());
    net.add(std::make_unique<DenseLayer>(2 * 3 * 3, 4, rng));
    Tensor input({2, 1, 6, 6});
    randomize(input, rng);
    checkGradients(net, input);
}

TEST(LayerShapes, ConvOutput)
{
    Rng rng(8);
    Conv2dLayer layer(3, 8, 5, 2, 2, rng);
    Tensor input({2, 3, 16, 16});
    ForwardContext ctx;
    const Tensor out = layer.forward(input, ctx);
    EXPECT_EQ(out.dim(0), 2u);
    EXPECT_EQ(out.dim(1), 8u);
    EXPECT_EQ(out.dim(2), 8u);
    EXPECT_EQ(out.dim(3), 8u);
}

TEST(LayerShapes, MaxPoolHalves)
{
    MaxPool2dLayer pool;
    Tensor input({1, 2, 6, 6});
    Rng rng(9);
    randomize(input, rng);
    ForwardContext ctx;
    const Tensor out = pool.forward(input, ctx);
    EXPECT_EQ(out.dim(2), 3u);
    EXPECT_EQ(out.dim(3), 3u);
    // Each output is the max of its 2x2 window.
    for (std::uint32_t y = 0; y < 3; ++y) {
        for (std::uint32_t x = 0; x < 3; ++x) {
            float expected = -1e30f;
            for (std::uint32_t dy = 0; dy < 2; ++dy)
                for (std::uint32_t dx = 0; dx < 2; ++dx)
                    expected = std::max(
                        expected,
                        input.at4(0, 1, 2 * y + dy, 2 * x + dx));
            EXPECT_FLOAT_EQ(out.at4(0, 1, y, x), expected);
        }
    }
}

TEST(LayerShapes, ReluClamps)
{
    ReluLayer relu;
    Tensor input({4});
    input[0] = -1.0f;
    input[1] = 2.0f;
    input[2] = 0.0f;
    input[3] = -0.5f;
    ForwardContext ctx;
    const Tensor out = relu.forward(input, ctx);
    EXPECT_FLOAT_EQ(out[0], 0.0f);
    EXPECT_FLOAT_EQ(out[1], 2.0f);
    EXPECT_FLOAT_EQ(out[3], 0.0f);
}

TEST(LayerShapes, QuantizedForwardDiffersSlightly)
{
    // With quantization enabled the conv result moves by at most a
    // few quantization steps.
    Rng rng(10);
    Conv2dLayer layer(2, 2, 3, 1, 1, rng);
    Tensor input({1, 2, 6, 6});
    randomize(input, rng);
    ForwardContext plain;
    plain.training = false;
    const Tensor exact = layer.forward(input, plain);
    const FixedPointFormat format{12};
    ForwardContext quantized;
    quantized.quant = &format;
    quantized.training = false;
    const Tensor approx = layer.forward(input, quantized);
    for (std::size_t i = 0; i < exact.size(); ++i)
        EXPECT_NEAR(approx[i], exact[i], 0.05f);
}

TEST(LayerShapes, ParamsEnumerateAllLayers)
{
    Rng rng(11);
    Sequential net;
    net.add(std::make_unique<Conv2dLayer>(1, 2, 3, 1, 1, rng));
    net.add(std::make_unique<ReluLayer>());
    net.add(std::make_unique<DenseLayer>(4, 2, rng));
    // conv weights+bias, dense weights+bias.
    EXPECT_EQ(net.params().size(), 4u);
}

// ---------------------------------------------------------------
// TrainKernels: Conv2dLayer against the reference loop nests
// ---------------------------------------------------------------

/**
 * Reference conv forward: the scalar loop nest Conv2dLayer::forward
 * ran over the whole minibatch before the lane kernels.
 */
void
referenceConvolveForward(const float *in, const float *wt,
                         const float *bias, float *out,
                         std::uint32_t batch, std::uint32_t in_channels,
                         std::uint32_t h, std::uint32_t w,
                         std::uint32_t out_channels, std::uint32_t r,
                         std::uint32_t c, std::uint32_t kernel,
                         std::uint32_t stride, std::uint32_t pad)
{
    const std::size_t in_plane = static_cast<std::size_t>(h) * w;
    const std::size_t in_sample = in_plane * in_channels;
    const std::size_t out_plane = static_cast<std::size_t>(r) * c;
    const std::size_t wt_kernel =
        static_cast<std::size_t>(kernel) * kernel;
    std::vector<float> acc_buf(c);
    float *acc = acc_buf.data();
    for (std::uint32_t b = 0; b < batch; ++b) {
        for (std::uint32_t m = 0; m < out_channels; ++m) {
            float *out_m = out + (b * out_channels + m) * out_plane;
            const float *wt_m = wt + m * in_channels * wt_kernel;
            const float bias_m = bias[m];
            for (std::uint32_t y = 0; y < r; ++y) {
                const std::int64_t base_y =
                    static_cast<std::int64_t>(y) * stride - pad;
                for (std::uint32_t x = 0; x < c; ++x)
                    acc[x] = bias_m;
                for (std::uint32_t n = 0; n < in_channels; ++n) {
                    const float *in_n =
                        in + b * in_sample + n * in_plane;
                    const float *wt_n = wt_m + n * wt_kernel;
                    for (std::uint32_t ky = 0; ky < kernel; ++ky) {
                        const std::int64_t in_y = base_y + ky;
                        if (in_y < 0 || in_y >= h)
                            continue;
                        const float *in_row = in_n + in_y * w;
                        const float *wt_row = wt_n + ky * kernel;
                        for (std::uint32_t kx = 0; kx < kernel;
                             ++kx) {
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
                                for (std::int64_t x = x_lo; x < x_hi;
                                     ++x)
                                    acc[x] += src[x] * wv;
                            } else {
                                for (std::int64_t x = x_lo; x < x_hi;
                                     ++x)
                                    acc[x] +=
                                        in_row[x * stride + off] * wv;
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
}

/**
 * Reference conv backward: the scalar loop nest of the former
 * Conv2dLayer::backward, with the layer members as parameters.
 * Accumulates into gin, gwt and gbias (+=).
 */
void
referenceConvolveBackward(const float *in, const float *wt,
                          const float *gout, float *gin, float *gwt,
                          float *gbias, std::uint32_t batch,
                          std::uint32_t in_channels, std::uint32_t h,
                          std::uint32_t w, std::uint32_t out_channels,
                          std::uint32_t r, std::uint32_t c,
                          std::uint32_t kernel, std::uint32_t stride,
                          std::uint32_t pad)
{
    const std::size_t in_plane = static_cast<std::size_t>(h) * w;
    const std::size_t in_sample = in_plane * in_channels;
    const std::size_t out_plane = static_cast<std::size_t>(r) * c;
    const std::size_t wt_kernel =
        static_cast<std::size_t>(kernel) * kernel;
    for (std::uint32_t b = 0; b < batch; ++b) {
        for (std::uint32_t m = 0; m < out_channels; ++m) {
            const float *gout_row =
                gout + (b * out_channels + m) * out_plane;
            const float *wt_m = wt + m * in_channels * wt_kernel;
            float *gwt_m = gwt + m * in_channels * wt_kernel;
            for (std::uint32_t y = 0; y < r; ++y) {
                for (std::uint32_t x = 0; x < c; ++x) {
                    const float g = gout_row[y * c + x];
                    gbias[m] += g;
                    const std::int64_t base_y =
                        static_cast<std::int64_t>(y) * stride - pad;
                    const std::int64_t base_x =
                        static_cast<std::int64_t>(x) * stride - pad;
                    for (std::uint32_t n = 0; n < in_channels; ++n) {
                        const float *in_n =
                            in + b * in_sample + n * in_plane;
                        float *gin_n =
                            gin + b * in_sample + n * in_plane;
                        const float *wt_n = wt_m + n * wt_kernel;
                        float *gwt_n = gwt_m + n * wt_kernel;
                        for (std::uint32_t ky = 0; ky < kernel; ++ky) {
                            const std::int64_t in_y = base_y + ky;
                            if (in_y < 0 || in_y >= h)
                                continue;
                            const float *in_row = in_n + in_y * w;
                            float *gin_row = gin_n + in_y * w;
                            const float *wt_row = wt_n + ky * kernel;
                            float *gwt_row = gwt_n + ky * kernel;
                            for (std::uint32_t kx = 0; kx < kernel;
                                 ++kx) {
                                const std::int64_t in_x = base_x + kx;
                                if (in_x < 0 || in_x >= w)
                                    continue;
                                gwt_row[kx] += g * in_row[in_x];
                                gin_row[in_x] += g * wt_row[kx];
                            }
                        }
                    }
                }
            }
        }
    }
}

/** One lane's operand settings, as the reference transforms read them. */
struct ReferenceContext
{
    const FixedPointFormat *quant = nullptr;
    BitErrorInjector *injector = nullptr;
    BitErrorInjector *weightInjector = nullptr;
};

/** Reference operand transform: quantize, then corrupt. */
Tensor
effectiveOperand(const Tensor &operand, const ReferenceContext &ctx)
{
    Tensor effective = operand;
    if (ctx.quant != nullptr) {
        quantizeTensor(effective, *ctx.quant);
        if (ctx.injector != nullptr)
            ctx.injector->corruptTensor(effective, *ctx.quant);
    }
    return effective;
}

/**
 * Reference weight transform of one lane of an owning layer (which
 * always quantizes): quantize, then corrupt with the lane's weight
 * injector. Without one the lane gets no weight errors.
 */
std::optional<Tensor>
corruptedWeights(const Tensor &weights, const ReferenceContext &ctx)
{
    if (ctx.quant == nullptr)
        return std::nullopt;
    Tensor copy = weights;
    quantizeTensor(copy, *ctx.quant);
    if (ctx.weightInjector != nullptr &&
        ctx.weightInjector->failureRate() > 0.0)
        ctx.weightInjector->corruptTensor(copy, *ctx.quant);
    return copy;
}

/** One conv layer configuration and how its operands are built. */
struct ConvCase
{
    std::uint32_t batch;
    std::uint32_t inChannels;
    std::uint32_t outChannels;
    std::uint32_t h;
    std::uint32_t w;
    std::uint32_t kernel;
    std::uint32_t stride;
    std::uint32_t pad;
    /** Quantize the operands (Q3.12). */
    bool quantized = false;
    /** Bit failure rate of the injector (needs `quantized`). */
    double rate = 0.0;
    /**
     * Inputs and pre-filled gradients all -0.0, output gradients all
     * positive: a kernel that added zero-padding taps would turn
     * some -0.0 weight gradients into +0.0.
     */
    bool negativeZeros = false;

    std::string describe() const
    {
        std::ostringstream oss;
        oss << "B" << batch << " N" << inChannels << " M" << outChannels
            << " " << h << "x" << w << " k" << kernel << " s" << stride
            << " p" << pad << (quantized ? " quant" : "")
            << " rate " << rate << (negativeZeros ? " -0" : "");
        return oss.str();
    }
};

bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) ==
               0;
}

/**
 * Run Conv2dLayer::forward and ::backward on `cc` and the reference
 * loop nests on the same effective operands (same injector seed, so
 * the same draws); compare output, input gradient, weight gradient
 * and bias gradient bit for bit. The parameter gradients are
 * pre-filled, pinning the += semantics.
 */
void
checkConvAgainstReference(const ConvCase &cc)
{
    SCOPED_TRACE(cc.describe());
    Rng rng(cc.batch * 7919 + cc.kernel * 131 + cc.stride * 17 + cc.pad);
    Conv2dLayer layer(cc.inChannels, cc.outChannels, cc.kernel,
                      cc.stride, cc.pad, rng);
    const std::vector<Param> params = layer.params();
    Tensor &weights = *params[0].value;
    Tensor &bias = *params[1].value;
    randomize(bias, rng);
    Tensor input({cc.batch, cc.inChannels, cc.h, cc.w});
    if (cc.negativeZeros) {
        input.fill(-0.0f);
    } else {
        randomize(input, rng);
        // Exact zeros of both signs, as ReLU outputs carry.
        for (std::size_t i = 0; i < input.size(); i += 5)
            input[i] = (i % 2 == 0) ? 0.0f : -0.0f;
    }

    const FixedPointFormat format{12};
    const std::uint64_t seed = 0x5eed + cc.batch;
    BitErrorInjector injector(cc.rate, seed);
    ForwardContext ctx;
    ctx.training = true;
    ctx.quant = cc.quantized ? &format : nullptr;
    if (cc.rate > 0.0) {
        // Training names its one injector for both operands.
        ctx.injectors = {&injector};
        ctx.weightInjectors = {&injector};
    }
    const Tensor out = layer.forward(input, ctx);

    BitErrorInjector ref_injector(cc.rate, seed);
    ReferenceContext ref_ctx;
    ref_ctx.quant = ctx.quant;
    ref_ctx.injector = cc.rate > 0.0 ? &ref_injector : nullptr;
    ref_ctx.weightInjector = ref_ctx.injector;
    const Tensor eff_input = effectiveOperand(input, ref_ctx);
    const std::optional<Tensor> corrupted =
        corruptedWeights(weights, ref_ctx);
    const Tensor &eff_weights = corrupted ? *corrupted : weights;
    const std::uint32_t r = (cc.h + 2 * cc.pad - cc.kernel) / cc.stride + 1;
    const std::uint32_t c = (cc.w + 2 * cc.pad - cc.kernel) / cc.stride + 1;
    Tensor ref_out({cc.batch, cc.outChannels, r, c});
    referenceConvolveForward(eff_input.data(), eff_weights.data(),
                             bias.data(), ref_out.data(), cc.batch,
                             cc.inChannels, cc.h, cc.w, cc.outChannels,
                             r, c, cc.kernel, cc.stride, cc.pad);
    EXPECT_TRUE(sameBits(out, ref_out)) << "forward output";

    Tensor grad_out(out.shape());
    randomize(grad_out, rng);
    for (std::size_t i = 0; i < grad_out.size(); i += 7)
        grad_out[i] = 0.0f;
    if (cc.negativeZeros) {
        // Positive gradients times -0.0 inputs: every valid tap adds
        // -0.0, which leaves a -0.0 accumulator alone; a padding tap
        // would add +0.0 and flip it.
        for (std::size_t i = 0; i < grad_out.size(); ++i)
            grad_out[i] = 0.5f + std::abs(grad_out[i]);
    }
    for (Param param : params) {
        if (cc.negativeZeros) {
            param.grad->fill(-0.0f);
        } else {
            randomize(*param.grad, rng);
        }
    }
    Tensor ref_gwt = *params[0].grad;
    Tensor ref_gbias = *params[1].grad;
    const Tensor grad_in = layer.backward(grad_out);
    Tensor ref_gin(input.shape());
    referenceConvolveBackward(eff_input.data(), eff_weights.data(),
                              grad_out.data(), ref_gin.data(),
                              ref_gwt.data(), ref_gbias.data(),
                              cc.batch, cc.inChannels, cc.h, cc.w,
                              cc.outChannels, r, c, cc.kernel,
                              cc.stride, cc.pad);
    EXPECT_TRUE(sameBits(grad_in, ref_gin)) << "input gradient";
    EXPECT_TRUE(sameBits(*params[0].grad, ref_gwt)) << "weight gradient";
    EXPECT_TRUE(sameBits(*params[1].grad, ref_gbias)) << "bias gradient";
}

TEST(TrainKernels, GeometrySweepMatchesReference)
{
    // Kernel 1/3/5, stride 1/2, pad 0-2 on odd, non-square maps; 5
    // output channels leave one past the last whole channel tile of
    // the lane kernel.
    for (std::uint32_t kernel : {1u, 3u, 5u})
        for (std::uint32_t stride : {1u, 2u})
            for (std::uint32_t pad : {0u, 1u, 2u})
                for (std::uint32_t batch : {1u, 3u, 17u})
                    checkConvAgainstReference(
                        {batch, 3, 5, 7, 9, kernel, stride, pad});
}

TEST(TrainKernels, BatchSweepMatchesReference)
{
    // Every split of the minibatch into 16/8/4/2 lane blocks plus a
    // lone sample, on a wide-row shape and a strided padded one.
    for (std::uint32_t batch : {1u, 2u, 3u, 15u, 16u, 17u, 32u, 33u,
                                128u}) {
        checkConvAgainstReference({batch, 4, 8, 9, 9, 3, 1, 1});
        checkConvAgainstReference({batch, 2, 3, 11, 11, 5, 2, 2});
    }
}

TEST(TrainKernels, QuantizedAndInjectedOperandsMatchReference)
{
    for (std::uint32_t batch : {1u, 17u, 33u}) {
        ConvCase cc{batch, 4, 8, 9, 9, 3, 1, 1};
        cc.quantized = true;
        checkConvAgainstReference(cc);
        // Sparse (1e-3) and dense (2e-2) injector paths.
        for (double rate : {1e-3, 2e-2}) {
            cc.rate = rate;
            checkConvAgainstReference(cc);
        }
    }
}

TEST(TrainKernels, SignedZeroGradientsMatchReference)
{
    for (std::uint32_t pad : {1u, 2u}) {
        ConvCase cc{19, 2, 4, 7, 7, 3, 1, pad};
        cc.negativeZeros = true;
        checkConvAgainstReference(cc);
        cc.stride = 2;
        checkConvAgainstReference(cc);
    }
}

TEST(TrainKernels, KernelLanes)
{
    // A lane count up to the widest compile-time kernel is padded to
    // the next kernel width. (More lanes split into several forwards:
    // LaneBlocks covers 17 and 33.)
    const std::pair<std::uint32_t, std::uint32_t> cases[] = {
        {1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16}, {16, 16}};
    for (const auto &[lanes, padded] : cases)
        EXPECT_EQ(kernelLanes(lanes), padded) << lanes << " lanes";
    EXPECT_EQ(kernelLanes(kMaxKernelLanes), kMaxKernelLanes);
}

const float kPoison = std::numeric_limits<float>::quiet_NaN();

/** Whether any element of `values` is NaN. */
bool
anyNaN(const float *values, std::size_t count)
{
    return std::any_of(values, values + count,
                       [](float v) { return std::isnan(v); });
}

/** `count` random floats in [-1, 1). */
std::vector<float>
finiteValues(std::size_t count, Rng &rng)
{
    std::vector<float> values(count);
    for (float &v : values)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    return values;
}

/**
 * Allocate `count` NaN floats and free them again: the allocator
 * usually hands that block to the next allocation of the same size,
 * so a helper that returns a tensor it did not fill in full shows
 * NaN.
 */
void
poisonNextAllocation(std::size_t count)
{
    std::vector<float> poison(count, kPoison);
    // Keep the fill: the block must really hold NaN when freed.
    asm volatile("" : : "r"(poison.data()) : "memory");
}

TEST(TrainKernels, OutputsFullyWritten)
{
    // Layers take kernel outputs from Tensor::uninitialized, so every
    // kernel must write each element of its destination. Destinations
    // start as NaN and the operands are finite, so a NaN left over is
    // an element the kernel skipped.
    Rng rng(41);
    for (std::uint32_t lanes : {1u, 2u, 4u, 8u, 16u}) {
        SCOPED_TRACE(::testing::Message() << lanes << " lanes");
        // 5-wide rows are mostly edge columns, 16-wide rows run
        // full column tiles plus leftovers; 3 output channels are
        // fewer than one channel tile.
        const std::uint32_t batch = 2, n = 2, m = 3, h = 5, k = 3;
        for (std::uint32_t stride : {1u, 2u})
            for (std::uint32_t pad : {0u, 1u})
                for (std::uint32_t w : {5u, 16u}) {
                    const std::uint32_t r =
                        (h + 2 * pad - k) / stride + 1;
                    const std::uint32_t c =
                        (w + 2 * pad - k) / stride + 1;
                    const auto in =
                        finiteValues(batch * n * h * w * lanes, rng);
                    const auto wt =
                        finiteValues(m * n * k * k * lanes, rng);
                    const auto bias = finiteValues(m * lanes, rng);
                    std::vector<float> out(batch * m * r * c * lanes,
                                           kPoison);
                    convolveTrialLanes(in.data(), wt.data(), bias.data(),
                                       out.data(), batch, n, h, w, m, r,
                                       c, k, stride, pad, lanes);
                    EXPECT_FALSE(anyNaN(out.data(), out.size()))
                        << "conv stride " << stride << " pad " << pad
                        << " c " << c;
                }

        const std::uint32_t features = 5, outputs = 3;
        const auto in = finiteValues(batch * features * lanes, rng);
        const auto wt = finiteValues(outputs * features * lanes, rng);
        const auto bias = finiteValues(outputs * lanes, rng);
        std::vector<float> dense(batch * outputs * lanes, kPoison);
        denseTrialLanes(in.data(), wt.data(), bias.data(), dense.data(),
                        batch, features, outputs, lanes);
        EXPECT_FALSE(anyNaN(dense.data(), dense.size())) << "dense";

        const std::uint32_t channels = 3, ph = 4, pw = 6;
        const auto maps = finiteValues(batch * channels * ph * pw * lanes,
                                       rng);
        std::vector<float> pooled(batch * channels * 2 * 3 * lanes,
                                  kPoison);
        maxPoolTrialLanes(maps.data(), pooled.data(), batch, channels, ph,
                          pw, lanes);
        EXPECT_FALSE(anyNaN(pooled.data(), pooled.size())) << "maxpool";

        // The gather and extract helpers return their tensors: each
        // element must hold its source value. Trial-style lanes read
        // the whole batch, sample-style lanes one sample each.
        Tensor images({3, 2, 2, 3});
        randomize(images, rng);
        const std::size_t count = images.size();
        poisonNextAllocation(count * lanes);
        const Tensor trials = gatherLanes(
            images, std::vector<std::uint32_t>(lanes, 0), 3);
        std::size_t wrong = 0;
        for (std::size_t i = 0; i < count; ++i)
            for (std::uint32_t l = 0; l < lanes; ++l)
                wrong += !(trials[i * lanes + l] == images[i]);
        EXPECT_EQ(wrong, 0u) << "trial-style gatherLanes";

        std::vector<std::uint32_t> indices;
        for (std::uint32_t l = 0; l < lanes; ++l)
            indices.push_back((l * 2) % 3);
        const std::size_t sample = count / 3;
        poisonNextAllocation(sample * lanes);
        const Tensor samples = gatherLanes(images, indices, 1);
        wrong = 0;
        for (std::size_t i = 0; i < sample; ++i)
            for (std::uint32_t l = 0; l < lanes; ++l)
                wrong += !(samples[i * lanes + l] ==
                           images[indices[l] * sample + i]);
        EXPECT_EQ(wrong, 0u) << "sample-style gatherLanes";

        poisonNextAllocation(sample);
        const Tensor lane = extractTrialLane(samples, lanes - 1);
        wrong = 0;
        for (std::size_t i = 0; i < sample; ++i)
            wrong += !(lane[i] == images[indices[lanes - 1] * sample + i]);
        EXPECT_EQ(wrong, 0u) << "extractTrialLane";
    }
}

/**
 * Naive per-lane conv: every lane's outputs from its own weights,
 * bias + each valid tap in (n, ky, kx) order, one lane at a time.
 */
std::vector<float>
naiveLaneConv(const std::vector<float> &in, const std::vector<float> &wt,
              const std::vector<float> &bias, std::uint32_t batch,
              std::uint32_t n_in, std::uint32_t h, std::uint32_t w,
              std::uint32_t m_out, std::uint32_t r, std::uint32_t c,
              std::uint32_t k, std::uint32_t stride, std::uint32_t pad,
              std::uint32_t lanes)
{
    std::vector<float> out(batch * m_out * r * c * lanes);
    const std::int64_t ih = h, iw = w;
    for (std::uint32_t l = 0; l < lanes; ++l)
        for (std::uint32_t b = 0; b < batch; ++b)
            for (std::uint32_t m = 0; m < m_out; ++m)
                for (std::uint32_t y = 0; y < r; ++y)
                    for (std::uint32_t x = 0; x < c; ++x) {
                        float acc = bias[m * lanes + l];
                        for (std::uint32_t n = 0; n < n_in; ++n)
                            for (std::uint32_t ky = 0; ky < k; ++ky)
                                for (std::uint32_t kx = 0; kx < k; ++kx) {
                                    const std::int64_t iy =
                                        std::int64_t(y) * stride + ky - pad;
                                    const std::int64_t ix =
                                        std::int64_t(x) * stride + kx - pad;
                                    if (iy < 0 || iy >= ih || ix < 0 ||
                                        ix >= iw)
                                        continue;
                                    const float s =
                                        in[(((b * n_in + n) * ih + iy) * iw +
                                            ix) * lanes + l];
                                    const float v =
                                        wt[(((m * n_in + n) * k + ky) * k +
                                            kx) * lanes + l];
                                    acc += s * v;
                                }
                        out[(((b * m_out + m) * r + y) * c + x) * lanes + l] =
                            acc;
                    }
    return out;
}

/**
 * One lane-conv case on every ISA instantiation the host runs:
 * distinct random weights per lane, inputs with exact zeros of both
 * signs, NaN-poisoned outputs; compares bit for bit with the naive
 * per-lane loop nest.
 */
void
checkLaneConv(std::uint32_t n_in, std::uint32_t m_out, std::uint32_t k,
              std::uint32_t stride, std::uint32_t pad, std::uint32_t c,
              std::uint32_t lanes, Rng &rng)
{
    // The narrowest input row that gives `c` output columns.
    const std::int64_t min_w =
        std::int64_t(c - 1) * stride + k - 2 * std::int64_t(pad);
    const std::uint32_t w = static_cast<std::uint32_t>(
        std::max<std::int64_t>(min_w, 1) + (c % 2 == 0 ? stride - 1 : 0));
    if ((w + 2 * pad - k) / stride + 1 != c)
        return; // no input width gives c columns at this geometry
    const std::uint32_t h = std::max<std::uint32_t>(k, 3);
    const std::uint32_t r = (h + 2 * pad - k) / stride + 1;
    const std::uint32_t batch = 2;
    std::vector<float> in = finiteValues(batch * n_in * h * w * lanes, rng);
    for (std::size_t i = 0; i < in.size(); i += 5)
        in[i] = (i % 2 == 0) ? 0.0f : -0.0f;
    const std::vector<float> wt = finiteValues(m_out * n_in * k * k * lanes,
                                               rng);
    std::vector<float> bias = finiteValues(m_out * lanes, rng);
    bias[0] = -0.0f;
    const std::vector<float> want = naiveLaneConv(
        in, wt, bias, batch, n_in, h, w, m_out, r, c, k, stride, pad, lanes);
    for (LaneIsa isa : hostLaneIsas()) {
        std::vector<float> got(want.size(), kPoison);
        convolveTrialLanesOn(isa, in.data(), wt.data(), bias.data(),
                             got.data(), batch, n_in, h, w, m_out, r, c, k,
                             stride, pad, lanes);
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              want.size() * sizeof(float)),
                  0)
            << laneIsaName(isa) << ": N" << n_in << " M" << m_out << " k"
            << k << " s" << stride << " p" << pad << " c" << c << " L"
            << lanes;
    }
}

TEST(TrainKernels, LaneConvMatchesPerLaneReference)
{
    // Every register-tile instantiation the host runs against the
    // per-lane loop nest, bit for bit, at every lane count a kernel
    // accepts. Output widths 1..13 give rows
    // narrower than one column tile, leftover columns after the full
    // tiles, and rows that are all edge columns.
    Rng rng(43);
    const std::uint32_t lane_counts[] = {16, 8, 4, 2, 1};
    for (std::uint32_t lanes : lane_counts)
        for (std::uint32_t k : {1u, 3u, 5u})
            for (std::uint32_t stride : {1u, 2u})
                for (std::uint32_t pad : {0u, 1u, 2u})
                    for (std::uint32_t c = 1; c <= 13; ++c)
                        checkLaneConv(3, 5, k, stride, pad, c, lanes, rng);
    // Output channels below, at and past whole channel tiles, on a
    // wide padded row, a strided one and an all-edge 5x5 one.
    for (std::uint32_t lanes : lane_counts)
        for (std::uint32_t m_out : {1u, 2u, 3u, 5u, 8u, 12u, 16u, 17u})
            for (std::uint32_t n_in : {1u, 3u, 16u}) {
                checkLaneConv(n_in, m_out, 3, 1, 1, 13, lanes, rng);
                checkLaneConv(n_in, m_out, 3, 2, 1, 7, lanes, rng);
                checkLaneConv(n_in, m_out, 5, 1, 2, 6, lanes, rng);
            }
}

/**
 * One weight-gradient case on every ISA instantiation the host runs,
 * against the reference backward's weight and bias gradients, bit for
 * bit. Inputs carry exact zeros of both signs; the gradients start
 * from random values, pinning the += semantics.
 */
void
checkWeightGrad(std::uint32_t batch, std::uint32_t n_in,
                std::uint32_t m_out, std::uint32_t k, std::uint32_t stride,
                Rng &rng)
{
    // An odd, non-square map with "same" padding: edge rows and
    // columns on every side, and interior points for every tap.
    const std::uint32_t h = 7, w = 9, pad = k / 2;
    const std::uint32_t r = (h + 2 * pad - k) / stride + 1;
    const std::uint32_t c = (w + 2 * pad - k) / stride + 1;
    std::vector<float> in = finiteValues(batch * n_in * h * w, rng);
    for (std::size_t i = 0; i < in.size(); i += 5)
        in[i] = (i % 2 == 0) ? 0.0f : -0.0f;
    const std::vector<float> wt = finiteValues(m_out * n_in * k * k, rng);
    const std::vector<float> gout = finiteValues(batch * m_out * r * c, rng);
    const std::vector<float> gwt0 = finiteValues(m_out * n_in * k * k, rng);
    const std::vector<float> gbias0 = finiteValues(m_out, rng);
    std::vector<float> want_gwt = gwt0;
    std::vector<float> want_gbias = gbias0;
    std::vector<float> gin(in.size());
    referenceConvolveBackward(in.data(), wt.data(), gout.data(), gin.data(),
                              want_gwt.data(), want_gbias.data(), batch,
                              n_in, h, w, m_out, r, c, k, stride, pad);
    for (LaneIsa isa : hostLaneIsas()) {
        std::vector<float> gwt = gwt0;
        std::vector<float> gbias = gbias0;
        convolveWeightGradOn(isa, in.data(), gout.data(), gwt.data(),
                             gbias.data(), batch, n_in, h, w, m_out, r, c,
                             k, stride, pad);
        const std::string where =
            std::string(laneIsaName(isa)) + ": B" + std::to_string(batch) +
            " N" + std::to_string(n_in) + " M" + std::to_string(m_out) +
            " k" + std::to_string(k) + " s" + std::to_string(stride);
        EXPECT_EQ(std::memcmp(gwt.data(), want_gwt.data(),
                              gwt.size() * sizeof(float)),
                  0)
            << where << " weight gradient";
        EXPECT_EQ(std::memcmp(gbias.data(), want_gbias.data(),
                              gbias.size() * sizeof(float)),
                  0)
            << where << " bias gradient";
    }
}

TEST(TrainKernels, WeightGradSweepMatchesReference)
{
    // Every register-tile instantiation the host runs: output channels
    // below, at and past each vector width (remainders included), every
    // unrolled kernel size, both strides, and batches of one sample, an
    // odd count and the training minibatch.
    Rng rng(47);
    for (std::uint32_t n_in : {1u, 3u, 16u})
        for (std::uint32_t m_out : {1u, 2u, 3u, 4u, 5u, 8u, 12u, 16u, 17u})
            for (std::uint32_t k : {1u, 3u, 5u})
                for (std::uint32_t stride : {1u, 2u})
                    for (std::uint32_t batch : {1u, 17u, 32u})
                        checkWeightGrad(batch, n_in, m_out, k, stride, rng);
}

TEST(TrainKernels, MaxPoolOneLaneMatchesLanesAndRoutesFirstMaximum)
{
    // Windows with ties, signed zeros, NaNs and nothing above the
    // -1e30 start, between random ones.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const std::vector<std::vector<float>> special = {
        {0.5f, 0.5f, 0.5f, 0.5f},   {0.25f, 0.75f, 0.75f, 0.1f},
        {-0.0f, 0.0f, -1.0f, -2.0f}, {0.0f, -0.0f, -1.0f, -2.0f},
        {-1.0f, -0.0f, 0.0f, -0.0f}, {nan, 1.0f, nan, 2.0f},
        {nan, nan, nan, nan},       {3.0f, nan, 3.0f, nan},
        {-inf, -inf, -inf, -inf},   {-1e30f, -1e30f, -2e30f, -inf},
        {-1e30f, -inf, -0.5f, -0.5f}, {inf, inf, 1.0f, inf},
    };
    const std::uint32_t batch = 3, channels = 5, h = 6, w = 8;
    Rng rng(53);
    Tensor input({batch, channels, h, w});
    randomize(input, rng);
    const std::uint32_t r = h / 2, c = w / 2;
    const std::size_t windows = static_cast<std::size_t>(batch) * channels *
                                r * c;
    // The input index of candidate (dy, dx) of window `i`.
    auto candidate = [&](std::size_t i, std::uint32_t off) {
        const std::size_t plane = i / (r * c);
        const std::size_t y = i / c % r;
        const std::size_t x = i % c;
        return (plane * h + 2 * y + off / 2) * w + 2 * x + off % 2;
    };
    for (std::size_t i = 0; i < windows; i += 2)
        for (std::uint32_t off = 0; off < 4; ++off)
            input[candidate(i, off)] = special[i / 2 % special.size()][off];

    MaxPool2dLayer pool;
    ForwardContext ctx;
    ctx.training = true;
    const Tensor out = pool.forward(input, ctx);

    // The 16-lane kernel, lane 5 carrying this input and the others
    // different random maps.
    const std::uint32_t lanes = 16;
    std::vector<Tensor> maps(lanes, input);
    for (std::uint32_t l = 0; l < lanes; ++l)
        if (l != 5)
            randomize(maps[l], rng);
    std::vector<const float *> ptrs;
    for (const Tensor &map : maps)
        ptrs.push_back(map.data());
    std::vector<float> packed(input.size() * lanes);
    packLanePointers(ptrs, input.size(), packed.data());
    Tensor pooled({batch, channels, r, c, lanes});
    maxPoolTrialLanes(packed.data(), pooled.data(), batch, channels, h, w,
                      lanes);
    EXPECT_TRUE(sameBits(out, extractTrialLane(pooled, 5)))
        << "1-lane training forward against lane 5 of 16";

    // Every gradient goes to the first candidate that beats the running
    // maximum by a strict >, or to candidate (0, 0) when none beats
    // -1e30; every other input gets +0.0.
    Tensor grad_out(out.shape());
    for (std::size_t i = 0; i < windows; ++i)
        grad_out[i] = static_cast<float>(i + 1);
    const Tensor grad_in = pool.backward(grad_out);
    Tensor want(input.shape());
    for (std::size_t i = 0; i < windows; ++i) {
        float best = -1e30f;
        std::uint32_t kept = 0;
        for (std::uint32_t off = 0; off < 4; ++off)
            if (input[candidate(i, off)] > best) {
                best = input[candidate(i, off)];
                kept = off;
            }
        want[candidate(i, kept)] = grad_out[i];
    }
    EXPECT_TRUE(sameBits(grad_in, want)) << "backward routing";

    // The eval forward gives the same values, and every kernel output
    // is written in full.
    std::vector<float> values(windows, kPoison);
    std::vector<std::uint32_t> argmax(windows, UINT32_MAX);
    maxPoolOneLane(input.data(), values.data(), argmax.data(), batch,
                   channels, h, w);
    EXPECT_EQ(std::memcmp(values.data(), out.data(),
                          windows * sizeof(float)),
              0);
    EXPECT_EQ(std::count(argmax.begin(), argmax.end(), UINT32_MAX), 0);
    ctx.training = false;
    EXPECT_TRUE(sameBits(pool.forward(input, ctx), out)) << "eval forward";
}

TEST(TrainKernels, NoFusedMultiplyAdd)
{
    // x = 1 + 2^-12: x * x = 1 + 2^-11 + 2^-24 rounds (to even) to
    // 1 + 2^-11, so bias + x * x with bias = -(1 + 2^-11) is exactly 0
    // when the product is rounded first, as the 1-lane order does. A
    // fused multiply-add keeps the 2^-24 (0x1p-24).
    const float x = 1.0f + std::ldexp(1.0f, -12);
    const float b = -(1.0f + std::ldexp(1.0f, -11));
    for (std::uint32_t lanes : {16u, 8u, 1u}) {
        SCOPED_TRACE(::testing::Message() << lanes << " lanes");
        const std::vector<float> in(lanes, x);
        const std::vector<float> bias(lanes, b);
        std::vector<float> out(lanes, kPoison);
        denseTrialLanes(in.data(), in.data(), bias.data(), out.data(), 1,
                        1, 1, lanes);
        for (std::uint32_t l = 0; l < lanes; ++l)
            EXPECT_EQ(out[l], 0.0f) << "dense lane " << l << ": "
                                    << std::hexfloat << out[l];
        std::fill(out.begin(), out.end(), kPoison);
        // One 1x1 tap over a 1x1 map.
        convolveTrialLanes(in.data(), in.data(), bias.data(), out.data(),
                           1, 1, 1, 1, 1, 1, 1, 1, 1, 0, lanes);
        for (std::uint32_t l = 0; l < lanes; ++l)
            EXPECT_EQ(out[l], 0.0f) << "conv lane " << l << ": "
                                    << std::hexfloat << out[l];
    }
    // The weight gradient adds g * x to a pre-filled b on every ISA:
    // one K x K tap window over a K x K map (interior: every tap
    // valid), and the same window padded around a 1 x 1 map (edge:
    // only the centre tap valid, the others keep b). M spans each
    // vector width and the scalar remainder.
    for (LaneIsa isa : hostLaneIsas())
        for (std::uint32_t k : {1u, 3u, 5u})
            for (std::uint32_t m : {16u, 8u, 4u, 1u})
                for (std::uint32_t size : {k, 1u}) {
                    const std::uint32_t pad = (k - size) / 2;
                    const std::vector<float> in(size * size, x);
                    const std::vector<float> gout(m, x);
                    std::vector<float> gwt(m * k * k, b);
                    std::vector<float> gbias(m, 0.0f);
                    convolveWeightGradOn(isa, in.data(), gout.data(),
                                         gwt.data(), gbias.data(), 1, 1,
                                         size, size, m, 1, 1, k, 1, pad);
                    for (std::uint32_t i = 0; i < m; ++i)
                        for (std::uint32_t t = 0; t < k * k; ++t) {
                            const bool valid =
                                size == k || t == k * k / 2;
                            const float v = gwt[i * k * k + t];
                            EXPECT_EQ(v, valid ? 0.0f : b)
                                << laneIsaName(isa) << " weight gradient k"
                                << k << " M" << m << " map " << size
                                << " tap " << t << ": " << std::hexfloat
                                << v;
                        }
                }
}

TEST(TrainKernels, ReluBackwardSpan)
{
    // The gradient is cut where the forward input is <= 0, signed
    // zeros included; a NaN input compares false and passes it.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const std::vector<float> in = {nan, -0.0f, 0.0f, -1.0f, 2.0f,
                                   1e-30f};
    std::vector<float> grad(in.size(), 5.0f);
    reluBackwardTrialSpan(grad.data(), in.data(), grad.size());
    EXPECT_EQ(grad, (std::vector<float>{5.0f, 0.0f, 0.0f, 0.0f, 5.0f,
                                        5.0f}));
}

TEST(TrainKernelsDeathTest, RejectsUnpaddedLaneCount)
{
    // The lane kernels run 1, 2, 4, 8 or 16 lanes; scoreLanes pads
    // every other count, so a bare 3-lane call is a caller bug.
    const std::vector<float> ones(3, 1.0f);
    std::vector<float> out(3);
    EXPECT_DEATH(denseTrialLanes(ones.data(), ones.data(), ones.data(),
                                 out.data(), 1, 1, 1, 3),
                 "1, 2, 4, 8 or 16 lanes");
}

// ---------------------------------------------------------------
// Backward shape guards
// ---------------------------------------------------------------

TEST(LayerBackwardDeathTest, ConvWithoutTrainingForward)
{
    Rng rng(21);
    Conv2dLayer layer(2, 3, 3, 1, 1, rng);
    Tensor input({2, 2, 5, 5});
    ForwardContext eval;
    eval.training = false;
    const Tensor out = layer.forward(input, eval);
    EXPECT_DEATH(layer.backward(out), "conv backward");
}

TEST(LayerBackwardDeathTest, ConvMismatchedGradient)
{
    Rng rng(22);
    Conv2dLayer layer(2, 3, 3, 1, 1, rng);
    ForwardContext train;
    train.training = true;
    layer.forward(Tensor({2, 2, 5, 5}), train);
    // A later eval forward on a bigger batch leaves the training
    // state in place; its output shape is not accepted.
    ForwardContext eval;
    eval.training = false;
    const Tensor out = layer.forward(Tensor({4, 2, 5, 5}), eval);
    EXPECT_DEATH(layer.backward(out), "conv backward");
}

TEST(LayerBackwardDeathTest, ReluMismatchedGradient)
{
    ReluLayer relu;
    ForwardContext train;
    train.training = true;
    relu.forward(Tensor({2, 3}), train);
    EXPECT_DEATH(relu.backward(Tensor({2, 4})), "relu backward");
    ReluLayer fresh;
    EXPECT_DEATH(fresh.backward(Tensor({2, 3})), "relu backward");
}

TEST(LayerBackwardDeathTest, MaxPoolMismatchedGradient)
{
    MaxPool2dLayer pool;
    ForwardContext train;
    train.training = true;
    pool.forward(Tensor({1, 2, 4, 4}), train);
    EXPECT_DEATH(pool.backward(Tensor({1, 2, 4, 4})),
                 "maxpool backward");
    MaxPool2dLayer fresh;
    EXPECT_DEATH(fresh.backward(Tensor({1, 2, 2, 2})),
                 "maxpool backward");
}

TEST(LayerBackwardDeathTest, DenseMismatchedGradient)
{
    Rng rng(23);
    DenseLayer dense(6, 4, rng);
    ForwardContext train;
    train.training = true;
    dense.forward(Tensor({3, 6}), train);
    EXPECT_DEATH(dense.backward(Tensor({5, 4})), "dense backward");
    DenseLayer fresh(6, 4, rng);
    EXPECT_DEATH(fresh.backward(Tensor({3, 4})), "dense backward");
}

/** Inception block of a 1x1 (2 channels) and a 3x3 (3) branch. */
InceptionConcat
makeInception(Rng &rng)
{
    std::vector<std::unique_ptr<Sequential>> branches;
    auto b1 = std::make_unique<Sequential>();
    b1->add(std::make_unique<Conv2dLayer>(2, 2, 1, 1, 0, rng));
    branches.push_back(std::move(b1));
    auto b2 = std::make_unique<Sequential>();
    b2->add(std::make_unique<Conv2dLayer>(2, 3, 3, 1, 1, rng));
    branches.push_back(std::move(b2));
    return InceptionConcat(std::move(branches));
}

TEST(LayerBackwardDeathTest, InceptionMismatchedGradient)
{
    Rng rng(25);
    InceptionConcat inception = makeInception(rng);
    ForwardContext train;
    train.training = true;
    inception.forward(Tensor({1, 2, 4, 4}), train);
    EXPECT_DEATH(inception.backward(Tensor({1, 7, 4, 4})),
                 "inception backward");
    InceptionConcat fresh = makeInception(rng);
    EXPECT_DEATH(fresh.backward(Tensor({1, 5, 4, 4})),
                 "inception backward");
}

TEST(LayerBackwardGuard, MatchingGradientIsAccepted)
{
    Rng rng(24);
    Conv2dLayer layer(2, 3, 3, 1, 1, rng);
    ForwardContext train;
    train.training = true;
    const Tensor out = layer.forward(Tensor({2, 2, 5, 5}), train);
    // Eval forwards in between do not move the training state.
    ForwardContext eval;
    eval.training = false;
    layer.forward(Tensor({4, 2, 5, 5}), eval);
    EXPECT_EQ(layer.backward(out).shape(), Tensor({2, 2, 5, 5}).shape());
}

// ---------------------------------------------------------------
// LaneForward: an L-lane forward against L 1-lane forwards
// ---------------------------------------------------------------

/** A mini model bound to a pre-quantized shared store. */
struct BoundModel
{
    std::unique_ptr<Sequential> skeleton;
    std::vector<Tensor> store;
};

BoundModel
bindQuantized(MiniModelKind kind, std::uint32_t image_size,
              const FixedPointFormat &format)
{
    Rng rng(77 + static_cast<std::uint64_t>(kind));
    BoundModel bound;
    const auto owner = makeMiniModel(kind, image_size, 4, rng);
    for (Param param : owner->params()) {
        bound.store.push_back(*param.value);
        randomize(bound.store.back(), rng);
        quantizeTensor(bound.store.back(), format);
    }
    bound.skeleton = makeMiniModel(kind, image_size, 4, rng);
    bindSharedWeights(*bound.skeleton, bound.store);
    return bound;
}

/** Seeds of lane `l`'s activation and weight injectors. */
std::uint64_t
actSeed(std::uint32_t l)
{
    return 0xa11ce + 2 * l + 1;
}

std::uint64_t
weightSeed(std::uint32_t l)
{
    return 0xa11ce + 2 * l + 2;
}

/**
 * Eval context over a pre-quantized store with one injector pair per
 * lane, seeded by lane (rate 0: a clean forward), padded to
 * kernelLanes(lanes) with injector-free lanes. `first_lane` offsets
 * the seeds so a 1-lane forward can replay any lane of a batched
 * one.
 */
struct LaneInjectors
{
    LaneInjectors(std::uint32_t lanes, double rate,
                  const FixedPointFormat &format,
                  std::uint32_t first_lane = 0)
    {
        // Reserved, so the injector pointers stay valid.
        act.reserve(lanes);
        weight.reserve(lanes);
        ctx.quant = &format;
        ctx.training = false;
        for (std::uint32_t l = 0; l < lanes; ++l) {
            act.emplace_back(rate, actSeed(first_lane + l));
            weight.emplace_back(rate, weightSeed(first_lane + l));
            ctx.injectors.push_back(&act.back());
            ctx.weightInjectors.push_back(&weight.back());
        }
        ctx.injectors.resize(kernelLanes(lanes), nullptr);
        ctx.weightInjectors.resize(kernelLanes(lanes), nullptr);
    }
    LaneInjectors(const LaneInjectors &) = delete;

    std::vector<BitErrorInjector> act;
    std::vector<BitErrorInjector> weight;
    ForwardContext ctx;
};

/** Eval forward of `input` under a fresh LaneInjectors context. */
Tensor
injectedForward(Layer &model, Tensor input, std::uint32_t lanes,
                double rate, const FixedPointFormat &format,
                std::uint32_t first_lane = 0)
{
    const LaneInjectors injectors(lanes, rate, format, first_lane);
    return model.forward(std::move(input), injectors.ctx);
}

/**
 * The samples [first, first + count) of a {B, ...} batch as a
 * {count, ...} batch.
 */
Tensor
sampleOf(const Tensor &batch, std::uint32_t first, std::uint32_t count = 1)
{
    std::vector<std::uint32_t> shape = batch.shape();
    const std::size_t size = batch.size() / shape.front();
    shape.front() = count;
    Tensor samples(std::move(shape));
    std::copy(batch.data() + first * size,
              batch.data() + (first + count) * size, samples.data());
    return samples;
}

/**
 * Forward `kind` at lane counts 1..16 over trial lanes and sample
 * lanes, each padded to kernelLanes with injector-free lanes, and
 * memcmp every lane's logits against a 1-lane forward of that lane's
 * input with freshly seeded copies of its injectors. (More than 16
 * lanes run as several forwards: LaneBlocks covers 17 and 33.)
 */
void
checkLaneForward(MiniModelKind kind)
{
    // 12x12 images give 12-, 6- and 3-wide maps: full column tiles,
    // leftover columns and all-edge rows of the conv kernel run.
    const std::uint32_t image_size = 12;
    const std::uint32_t batch = 2;
    // Rate 2e-3 per bit corrupts every lane's input and weights.
    const double rate = 2e-3;
    const FixedPointFormat format{12};
    BoundModel bound = bindQuantized(kind, image_size, format);
    Layer &model = *bound.skeleton;
    Rng rng(5);
    Tensor images({batch, 1, image_size, image_size});
    randomize(images, rng);

    for (std::uint32_t lanes : {1u, 2u, 3u, 7u, 8u, 16u}) {
        SCOPED_TRACE(::testing::Message() << lanes << " lanes");
        const std::uint32_t width = kernelLanes(lanes);
        // Trial lanes: the whole batch replicated, errors differ.
        const Tensor trials = injectedForward(
            model,
            gatherLanes(images, std::vector<std::uint32_t>(width, 0),
                        batch),
            lanes, rate, format);
        // Sample lanes: one sample per lane, cycling through the
        // batch; pad lanes repeat lane 0's.
        std::vector<std::uint32_t> indices(width, 0);
        for (std::uint32_t l = 0; l < lanes; ++l)
            indices[l] = l % batch;
        const Tensor samples = injectedForward(
            model, gatherLanes(images, indices, 1), lanes, rate, format);
        for (std::uint32_t l = 0; l < lanes; ++l) {
            SCOPED_TRACE(::testing::Message() << "lane " << l);
            const Tensor trial_ref =
                injectedForward(model, images, 1, rate, format, l);
            EXPECT_TRUE(sameBits(extractTrialLane(trials, l), trial_ref))
                << "trial lane";
            const Tensor sample = sampleOf(images, indices[l]);
            const Tensor sample_ref =
                injectedForward(model, sample, 1, rate, format, l);
            EXPECT_TRUE(
                sameBits(extractTrialLane(samples, l), sample_ref))
                << "sample lane";
            // The rate does corrupt the lane.
            EXPECT_FALSE(sameBits(
                sample_ref, injectedForward(model, sample, 1, 0.0, format)))
                << "uncorrupted lane";
        }
    }
}

TEST(LaneForward, MiniAlex)
{
    checkLaneForward(MiniModelKind::MiniAlex);
}

TEST(LaneForward, MiniVgg)
{
    checkLaneForward(MiniModelKind::MiniVgg);
}

TEST(LaneForward, MiniInception)
{
    checkLaneForward(MiniModelKind::MiniInception);
}

TEST(LaneForward, MiniRes)
{
    checkLaneForward(MiniModelKind::MiniRes);
}

/**
 * A lane with an activation injector and a null weight injector gets
 * no weight errors: its forward equals one whose weight injector
 * runs at rate 0, for an owning layer (which quantizes its weights)
 * and for every lane of a model bound to a pre-quantized store.
 */
TEST(LaneForward, NullWeightInjectorLeavesWeightsClean)
{
    const FixedPointFormat format{12};
    const double rate = 1e-2;

    Rng rng(31);
    Conv2dLayer conv(3, 8, 3, 1, 1, rng);
    Tensor image({2, 3, 6, 6});
    randomize(image, rng);
    const auto convForward = [&](bool clean_weight_injector) {
        BitErrorInjector act(rate, 5);
        BitErrorInjector clean(0.0, 6);
        ForwardContext ctx;
        ctx.quant = &format;
        ctx.training = false;
        ctx.injectors = {&act};
        if (clean_weight_injector)
            ctx.weightInjectors = {&clean};
        return conv.forward(image, ctx);
    };
    EXPECT_TRUE(sameBits(convForward(false), convForward(true)))
        << "owning conv";

    const std::uint32_t image_size = 12;
    BoundModel bound =
        bindQuantized(MiniModelKind::MiniVgg, image_size, format);
    Tensor images({2, 1, image_size, image_size});
    randomize(images, rng);
    const std::uint32_t lanes = 4;
    const Tensor input = gatherLanes(
        images, std::vector<std::uint32_t>(lanes, 0), 2);
    const auto boundForward = [&](bool clean_weight_injectors) {
        std::vector<BitErrorInjector> act;
        std::vector<BitErrorInjector> clean;
        act.reserve(lanes);
        clean.reserve(lanes);
        ForwardContext ctx;
        ctx.quant = &format;
        ctx.training = false;
        for (std::uint32_t l = 0; l < lanes; ++l) {
            ctx.injectors.push_back(&act.emplace_back(rate, actSeed(l)));
            ctx.weightInjectors.push_back(
                clean_weight_injectors
                    ? &clean.emplace_back(0.0, weightSeed(l))
                    : nullptr);
        }
        return bound.skeleton->forward(input, ctx);
    };
    EXPECT_TRUE(sameBits(boundForward(false), boundForward(true)))
        << "bound MiniVgg, " << lanes << " lanes";
}

// ---------------------------------------------------------------
// LaneBlocks: scoreLanes against 1-lane forwards
// ---------------------------------------------------------------

/**
 * Correct predictions of a 1-lane forward of `lane`'s samples with
 * freshly seeded injectors of its rates (rate 0 included).
 */
std::uint32_t
oneLaneCorrect(Layer &model, const FixedPointFormat &format,
               const Batch &test, std::uint32_t samples_per_lane,
               const ScoredLane &lane)
{
    BitErrorInjector act(lane.activation.rate, lane.activation.seed);
    BitErrorInjector weight(lane.weight.rate, lane.weight.seed);
    ForwardContext ctx;
    ctx.quant = &format;
    ctx.training = false;
    ctx.injectors = {&act};
    ctx.weightInjectors = {&weight};
    const auto labels = test.labels.begin() + lane.first;
    return softmaxCrossEntropy(
               model.forward(sampleOf(test.images, lane.first,
                                      samples_per_lane),
                             ctx),
               {labels, labels + samples_per_lane})
        .correct;
}

/** A lane's activation and weight bit-error rates. */
struct FaultMix
{
    double activation;
    double weight;
};

/**
 * scoreLanes at each of `counts` lanes over a `batch`-sample test
 * batch, against oneLaneCorrect for every lane. Lane l runs
 * `mixes[l % mixes.size()]`; a lane with a zero rate must keep that
 * operand clean. The labels are the clean model's own predictions,
 * so a clean lane scores every sample and the corrupted lanes show
 * that the errors reach the logits. `first(l)` picks lane l's first
 * sample.
 */
void
checkLaneBlocks(std::uint32_t batch, std::uint32_t samples_per_lane,
                const std::function<std::uint32_t(std::uint32_t)> &first,
                const std::vector<FaultMix> &mixes,
                const std::vector<std::uint32_t> &counts)
{
    const std::uint32_t image_size = 12;
    const FixedPointFormat format{12};
    for (MiniModelKind kind :
         {MiniModelKind::MiniAlex, MiniModelKind::MiniVgg,
          MiniModelKind::MiniInception, MiniModelKind::MiniRes}) {
        SCOPED_TRACE(::testing::Message()
                     << "model " << static_cast<int>(kind));
        BoundModel bound = bindQuantized(kind, image_size, format);
        Layer &model = *bound.skeleton;
        Rng rng(13);
        Batch test;
        test.images = Tensor({batch, 1, image_size, image_size});
        randomize(test.images, rng);
        const Tensor clean =
            injectedForward(model, test.images, 1, 0.0, format);
        const std::uint32_t classes = clean.shape().back();
        for (std::uint32_t b = 0; b < batch; ++b) {
            const float *row = clean.data() + b * classes;
            test.labels.push_back(static_cast<std::uint32_t>(
                std::max_element(row, row + classes) - row));
        }

        std::uint32_t corrupted_misses = 0;
        for (std::uint32_t count : counts) {
            SCOPED_TRACE(::testing::Message() << count << " lanes");
            std::vector<ScoredLane> lanes;
            for (std::uint32_t l = 0; l < count; ++l) {
                const FaultMix &mix = mixes[l % mixes.size()];
                lanes.push_back({first(l),
                                 {mix.activation, 0x5eed + 2 * l + 1},
                                 {mix.weight, 0x5eed + 2 * l + 2}});
            }
            const std::vector<std::uint32_t> correct = scoreLanes(
                model, format, test, samples_per_lane, lanes);
            ASSERT_EQ(correct.size(), count);
            for (std::uint32_t l = 0; l < count; ++l) {
                EXPECT_EQ(correct[l],
                          oneLaneCorrect(model, format, test,
                                         samples_per_lane, lanes[l]))
                    << "lane " << l;
                if (lanes[l].activation.rate == 0.0 &&
                    lanes[l].weight.rate == 0.0)
                    EXPECT_EQ(correct[l], samples_per_lane)
                        << "clean lane " << l;
                else
                    corrupted_misses += samples_per_lane - correct[l];
            }
        }
        EXPECT_GT(corrupted_misses, 0u) << "no lane was corrupted";
    }
}

/**
 * Both rates 2e-3, both 0, and one of the two at 0, at 1/3/5/16/17/33
 * lanes: one forward, padded ones, a 16-lane forward plus a padded
 * remainder.
 */
const std::vector<FaultMix> kLaneMixes = {
    {2e-3, 2e-3}, {0.0, 0.0}, {2e-3, 0.0}, {0.0, 2e-3}};
const std::vector<std::uint32_t> kLaneCounts = {1, 3, 5, 16, 17, 33};

TEST(LaneBlocks, TrialLanesMatchOneLaneForwards)
{
    // A campaign trial: every lane reads the whole test batch.
    checkLaneBlocks(8, 8, [](std::uint32_t) { return 0u; }, kLaneMixes,
                    kLaneCounts);
}

TEST(LaneBlocks, SampleLanesMatchOneLaneForwards)
{
    // Served requests: one sample per lane, firsts spread over the
    // batch.
    checkLaneBlocks(8, 1, [](std::uint32_t l) { return (l * 3) % 8; },
                    kLaneMixes, kLaneCounts);
}

TEST(LaneBlocks, SampleTilesMatchOneLaneForwards)
{
    // Campaign trials over two full sample tiles and a 5-sample
    // remainder: every tile must apply the failures drawn once over
    // the whole batch and reuse the weights drawn once. Rate 2e-3
    // takes the injector's sparse path, 1e-2 its dense path. 17 lanes
    // end in a 1-lane forward, whose weights are a private copy.
    const std::uint32_t batch = 2 * kSampleTile + 5;
    checkLaneBlocks(batch, batch, [](std::uint32_t) { return 0u; },
                    {{2e-3, 2e-3},
                     {1e-2, 1e-2},
                     {0.0, 0.0},
                     {1e-2, 0.0},
                     {0.0, 1e-2},
                     {2e-3, 0.0},
                     {0.0, 2e-3}},
                    {1, 5, 17});
}

// ---------------------------------------------------------------
// LaneResume: pairs resumed at their first failure, against
// scoreLanes and 1-lane forwards
// ---------------------------------------------------------------

TEST(LaneResume, ResumedPairsMatchScoreLanesAndOneLaneForwards)
{
    // Campaign trials scored against a clean cache: each (lane,
    // sample) pair starts at its first failed top-level layer, or
    // takes its clean prediction. Every lane must count what scoreLanes
    // (every pair from layer 0) and a 1-lane forward count. The mixes
    // cover dense (1e-2) and sparse rates on both operands, each
    // operand alone and a clean lane; the 3e-5 lanes leave most pairs
    // clean and resume the rest at every layer. Two sample tiles plus
    // a remainder split the larger groups across forward lanes.
    const std::uint32_t image_size = 12;
    const std::uint32_t batch = 2 * kSampleTile + 5;
    const FixedPointFormat format{12};
    const std::vector<FaultMix> mixes = {
        {1e-2, 1e-2}, {2e-4, 2e-4}, {3e-5, 3e-5}, {3e-5, 0.0},
        {1e-3, 0.0},  {0.0, 1e-3},  {0.0, 3e-5},  {0.0, 0.0}};
    for (MiniModelKind kind :
         {MiniModelKind::MiniAlex, MiniModelKind::MiniVgg,
          MiniModelKind::MiniInception, MiniModelKind::MiniRes}) {
        SCOPED_TRACE(::testing::Message()
                     << "model " << static_cast<int>(kind));
        BoundModel bound = bindQuantized(kind, image_size, format);
        Rng rng(13);
        Batch test;
        test.images = Tensor({batch, 1, image_size, image_size});
        randomize(test.images, rng);
        const Tensor clean =
            injectedForward(*bound.skeleton, test.images, 1, 0.0, format);
        const std::uint32_t classes = clean.shape().back();
        for (std::uint32_t b = 0; b < batch; ++b) {
            const float *row = clean.data() + b * classes;
            test.labels.push_back(static_cast<std::uint32_t>(
                std::max_element(row, row + classes) - row));
        }

        LaneList list{bound.skeleton.get(), &format, &test, batch, {},
                      nullptr};
        for (std::uint32_t l = 0; l < 2 * mixes.size() + 1; ++l) {
            const FaultMix &mix = mixes[l % mixes.size()];
            list.lanes.push_back({0,
                                  {mix.activation, 0x5eed + 2 * l + 1},
                                  {mix.weight, 0x5eed + 2 * l + 2}});
        }
        const LaneScores from_start = scoreLaneLists({&list, 1}, 16, 1);
        EXPECT_EQ(from_start.cleanPairs, 0u);

        // One job: this suite starts no pool threads, since a later
        // death test forks (the FaultCampaign and CampaignSweep
        // suites run the cache and the blocks fanned out).
        const CleanCache cache(*bound.skeleton, format, test, 1);
        list.clean = &cache;
        for (std::uint32_t block_lanes : {16u, 5u}) {
            SCOPED_TRACE(::testing::Message()
                         << block_lanes << "-lane blocks");
            const LaneScores resumed =
                scoreLaneLists({&list, 1}, block_lanes, 1);
            ASSERT_EQ(resumed.correct.front().size(), list.lanes.size());
            EXPECT_GT(resumed.cleanPairs, 0u);
            EXPECT_LT(resumed.cleanPairs,
                      static_cast<std::uint64_t>(batch) * list.lanes.size());
            std::uint32_t corrupted_misses = 0;
            for (std::size_t l = 0; l < list.lanes.size(); ++l) {
                const ScoredLane &lane = list.lanes[l];
                const std::uint32_t correct = resumed.correct.front()[l];
                EXPECT_EQ(correct, from_start.correct.front()[l])
                    << "lane " << l;
                EXPECT_EQ(correct, oneLaneCorrect(*bound.skeleton, format,
                                                  test, batch, lane))
                    << "lane " << l;
                if (lane.activation.rate == 0.0 && lane.weight.rate == 0.0)
                    EXPECT_EQ(correct, batch) << "clean lane " << l;
                else
                    corrupted_misses += batch - correct;
            }
            EXPECT_GT(corrupted_misses, 0u) << "no lane was corrupted";
        }
        // Resumed pairs skip the layers before their first failure.
        EXPECT_LT(scoreLaneLists({&list, 1}, 16, 1).forwardMacs,
                  from_start.forwardMacs);
    }
}

TEST(LaneResume, CleanCacheKeepsEveryResumePoint)
{
    // The cache's predictions are the clean forward's, and every
    // weighted layer's top-level layer keeps each sample's input:
    // layer 0 reads the test images, later ones the clean
    // activations (MiniRes resumes at its two residual blocks).
    const std::uint32_t image_size = 12;
    const FixedPointFormat format{12};
    BoundModel bound =
        bindQuantized(MiniModelKind::MiniRes, image_size, format);
    Rng rng(31);
    Batch test;
    test.images = Tensor({37, 1, image_size, image_size});
    randomize(test.images, rng);
    const Tensor clean =
        injectedForward(*bound.skeleton, test.images, 1, 0.0, format);
    test.labels.assign(37, 0);
    const CleanCache cache(*bound.skeleton, format, test, 1);
    const std::uint32_t classes = clean.shape().back();
    for (std::uint32_t b = 0; b < 37; ++b) {
        const float *row = clean.data() + b * classes;
        EXPECT_EQ(cache.prediction(b),
                  static_cast<std::uint32_t>(
                      std::max_element(row, row + classes) - row))
            << "sample " << b;
    }
    // conv, relu, pool, residual, relu, residual, relu, pool,
    // flatten, dense: the stem conv, both blocks' two convs, dense.
    std::vector<std::uint32_t> levels;
    for (const WeightedLayerShape &shape : cache.shapes())
        levels.push_back(shape.level);
    EXPECT_EQ(levels, (std::vector<std::uint32_t>{0, 3, 3, 5, 5, 9}));
    EXPECT_EQ(cache.input(0, 36), test.images.data() + 36 * 144);
    EXPECT_EQ(cache.inputDims(3),
              (std::vector<std::uint32_t>{12, image_size / 2,
                                          image_size / 2}));
    // Sample 36's input to the first block equals a one-sample
    // forward through the stem.
    ForwardContext ctx;
    ctx.quant = &format;
    ctx.training = false;
    const Tensor stem = bound.skeleton->forwardLayers(
        sampleOf(test.images, 36), ctx, 0, 3);
    EXPECT_EQ(std::memcmp(cache.input(3, 36), stem.data(),
                          stem.size() * sizeof(float)),
              0);
}

TEST(LaneForward, LvalueInputIsUntouched)
{
    // forward takes its input by value and the layers quantize,
    // corrupt, overwrite and reshape it in place: an lvalue argument
    // is copied, so the caller's tensor must come back byte for byte.
    const std::uint32_t image_size = 12;
    const double rate = 2e-3;
    const FixedPointFormat format{12};
    for (MiniModelKind kind :
         {MiniModelKind::MiniAlex, MiniModelKind::MiniVgg,
          MiniModelKind::MiniInception, MiniModelKind::MiniRes}) {
        SCOPED_TRACE(::testing::Message()
                     << "model " << static_cast<int>(kind));
        BoundModel bound = bindQuantized(kind, image_size, format);
        Rng rng(9);
        Tensor images({2, 1, image_size, image_size});
        randomize(images, rng);
        for (std::uint32_t lanes : {1u, 4u}) {
            SCOPED_TRACE(::testing::Message() << lanes << " lanes");
            const Tensor input =
                lanes == 1
                    ? images
                    : gatherLanes(images,
                                  std::vector<std::uint32_t>(lanes, 0), 2);
            Tensor arg = input;
            const LaneInjectors injectors(lanes, rate, format);
            const Tensor logits =
                bound.skeleton->forward(arg, injectors.ctx);
            EXPECT_TRUE(sameBits(arg, input)) << "eval input";
            // The copy runs the same forward a moved-in tensor does.
            EXPECT_TRUE(sameBits(
                logits, injectedForward(*bound.skeleton, input, lanes,
                                        rate, format)));
        }
        // A training forward quantizes and injects the owned weights'
        // operands too.
        const auto owner = makeMiniModel(kind, image_size, 4, rng);
        BitErrorInjector injector(rate, 7);
        ForwardContext train;
        train.quant = &format;
        train.injectors = {&injector};
        train.weightInjectors = {&injector};
        train.training = true;
        Tensor arg = images;
        owner->forward(arg, train);
        EXPECT_TRUE(sameBits(arg, images)) << "training input";
    }
}

} // namespace
} // namespace rana
