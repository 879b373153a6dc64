/**
 * @file
 * Concrete layers: convolution, pooling, activation, dense, flatten,
 * plus the Sequential / Residual / InceptionConcat containers needed
 * to express the four mini benchmark architectures.
 */

#ifndef RANA_TRAIN_LAYERS_HH_
#define RANA_TRAIN_LAYERS_HH_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "train/layer.hh"

namespace rana {

/**
 * Parameter plumbing shared by the convolution and dense layers: the
 * owned weights and bias with their gradients, the optional bound
 * shared store, and the one copy-on-corrupt operand path of their
 * forwards.
 */
class WeightedLayer : public Layer
{
  public:
    std::vector<Param> params() override;
    void bindSharedParams(SharedParamCursor &cursor) override;

  protected:
    /** Zero weights of `weight_shape` (first dimension: outputs). */
    explicit WeightedLayer(std::vector<std::uint32_t> weight_shape);

    /** The operands one forward's lane kernel reads. */
    struct Operands : WeightOperands
    {
        /** The input, quantized and corrupted per lane. */
        Tensor input;
    };

    /**
     * The effective operands of a forward over `input` with `lanes`
     * lanes, whose output has `positions` values per output channel
     * and sample. The input is quantized in place as a whole
     * (element-wise, so each lane as a 1-lane forward would), then
     * each lane's bit errors are applied in place at the lane stride:
     * an injector draws its lane's failures over the lane's whole run
     * now, activations before weights, so every injector draws the
     * same stream as in a 1-lane forward; ctx.drawn's lanes apply
     * each sample's window of their pre-drawn run. The weights are
     * copy-on-corrupt per lane. A shape pass (ctx.drawn->shapes)
     * records the layer here.
     */
    Operands operands(Tensor input, std::uint32_t lanes,
                      std::size_t positions,
                      const ForwardContext &ctx) const;

    /**
     * The weight operands of a forward with `lanes` lanes at forward
     * index `layer` among its weighted layers.
     */
    WeightOperands weightOperands(std::uint32_t lanes, std::size_t layer,
                                  const ForwardContext &ctx) const;

    /** Keep a training forward's operands for the backward. */
    void cacheForBackward(Operands &&ops, const Tensor &output);

    Tensor weights_;
    Tensor bias_;
    Tensor weightGrad_;
    Tensor biasGrad_;
    Tensor cachedInput_;
    Tensor cachedWeights_;
    /** Output shape of the last training forward. */
    std::vector<std::uint32_t> outputShape_;
    /** Bound shared store tensors (null = use the owned ones). */
    const Tensor *sharedWeights_ = nullptr;
    const Tensor *sharedBias_ = nullptr;
    /**
     * The bound weights and bias packed for 2, 4, 8 and 16 lanes
     * (entry log2(L) - 1), built at binding: what an L-lane forward
     * reads when no lane copies its weights.
     */
    std::array<UninitFloats, 4> sharedPackedWeights_;
    std::array<UninitFloats, 4> sharedPackedBias_;
};

/** 2-D convolution with square kernels, stride and zero padding. */
class Conv2dLayer : public WeightedLayer
{
  public:
    /**
     * @param in_channels  input channels
     * @param out_channels output channels
     * @param kernel       square kernel size
     * @param stride       stride
     * @param pad          zero padding
     * @param rng          initializer RNG
     */
    Conv2dLayer(std::uint32_t in_channels, std::uint32_t out_channels,
                std::uint32_t kernel, std::uint32_t stride,
                std::uint32_t pad, Rng &rng);

    Tensor forward(Tensor input, const ForwardContext &ctx) override;
    Tensor backward(const Tensor &grad_output) override;
    void backwardParams(const Tensor &grad_output) override;
    std::string describe() const override;

  private:
    std::uint32_t inChannels_;
    std::uint32_t outChannels_;
    std::uint32_t kernel_;
    std::uint32_t stride_;
    std::uint32_t pad_;
};

/** Rectified linear unit. */
class ReluLayer : public Layer
{
  public:
    Tensor forward(Tensor input, const ForwardContext &ctx) override;
    Tensor backward(const Tensor &grad_output) override;
    std::string describe() const override { return "relu"; }

  private:
    Tensor cachedInput_;
};

/** 2x2 max pooling with stride 2. */
class MaxPool2dLayer : public Layer
{
  public:
    Tensor forward(Tensor input, const ForwardContext &ctx) override;
    Tensor backward(const Tensor &grad_output) override;
    std::string describe() const override { return "maxpool2x2"; }

  private:
    /** Per output of the last training forward, the flat input index kept. */
    std::vector<std::uint32_t> argmax_;
    std::vector<std::uint32_t> inputShape_;
    /** Output shape of the last training forward. */
    std::vector<std::uint32_t> outputShape_;
};

/** Fully connected layer on flattened inputs. */
class DenseLayer : public WeightedLayer
{
  public:
    /** @param in_features input width, @param out_features output. */
    DenseLayer(std::uint32_t in_features, std::uint32_t out_features,
               Rng &rng);

    Tensor forward(Tensor input, const ForwardContext &ctx) override;
    Tensor backward(const Tensor &grad_output) override;
    std::string describe() const override;

  private:
    std::uint32_t inFeatures_;
    std::uint32_t outFeatures_;
};

/** Flatten {B, C, H, W[, L]} to {B, C*H*W[, L]}. */
class FlattenLayer : public Layer
{
  public:
    Tensor forward(Tensor input, const ForwardContext &ctx) override;
    Tensor backward(const Tensor &grad_output) override;
    std::string describe() const override { return "flatten"; }

  private:
    std::vector<std::uint32_t> inputShape_;
};

/** Ordered container of layers. */
class Sequential : public Layer
{
  public:
    Sequential() = default;

    /** Append a layer. */
    void add(std::unique_ptr<Layer> layer);

    /** Number of layers. */
    std::size_t size() const { return layers_.size(); }

    Tensor forward(Tensor input, const ForwardContext &ctx) override;

    /**
     * Forward `input` through the top-level layers [first, last) only:
     * it is layer `first`'s input, and the result is layer
     * `last - 1`'s output. forward runs [0, size()). A lane block
     * resumes here at the top-level layer of its first failure, a
     * nested inception or residual block at its own index.
     */
    Tensor forwardLayers(Tensor input, const ForwardContext &ctx,
                         std::size_t first, std::size_t last);

    Tensor backward(const Tensor &grad_output) override;
    /** The first layer skips its input gradient (backwardParams). */
    void backwardParams(const Tensor &grad_output) override;
    std::vector<Param> params() override;
    void bindSharedParams(SharedParamCursor &cursor) override;
    std::string describe() const override;

  private:
    /** Back through layers [1, size()): the first layer's output gradient. */
    Tensor backwardToFirst(const Tensor &grad_output);

    std::vector<std::unique_ptr<Layer>> layers_;
};

/** Residual block: output = body(x) + x (ResNet-style identity). */
class ResidualBlock : public Layer
{
  public:
    /** @param body inner layers; must preserve the input shape. */
    explicit ResidualBlock(std::unique_ptr<Sequential> body);

    Tensor forward(Tensor input, const ForwardContext &ctx) override;
    Tensor backward(const Tensor &grad_output) override;
    std::vector<Param> params() override;
    void bindSharedParams(SharedParamCursor &cursor) override;
    std::string describe() const override { return "residual"; }

  private:
    std::unique_ptr<Sequential> body_;
};

/**
 * Inception-style block: parallel branches over the same input,
 * concatenated along the channel dimension.
 */
class InceptionConcat : public Layer
{
  public:
    /** @param branches parallel branches (same spatial output). */
    explicit InceptionConcat(
        std::vector<std::unique_ptr<Sequential>> branches);

    Tensor forward(Tensor input, const ForwardContext &ctx) override;
    Tensor backward(const Tensor &grad_output) override;
    std::vector<Param> params() override;
    void bindSharedParams(SharedParamCursor &cursor) override;
    std::string describe() const override { return "inception"; }

  private:
    std::vector<std::unique_ptr<Sequential>> branches_;
    std::vector<std::uint32_t> branchChannels_;
    /** Output shape of the last training forward. */
    std::vector<std::uint32_t> outputShape_;
};

} // namespace rana

#endif // RANA_TRAIN_LAYERS_HH_
