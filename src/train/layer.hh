/**
 * @file
 * Layer interface of the from-scratch training framework.
 *
 * Layers implement forward/backward with cached activations. The
 * ForwardContext carries the fixed-point quantization format and the
 * retention-error injectors: when present, every weighted layer
 * quantizes its input and weights to 16-bit fixed point and injects
 * bit-level retention failures before computing, exactly as the
 * retention-aware training method prescribes (a mask on each layer's
 * inputs and weights, Figure 9). Gradients flow through the
 * corrupted values (straight-through estimation), and the optimizer
 * updates the float master weights.
 *
 * One forward serves training, the fault campaign's trials and the
 * serving engine's requests: it runs one or more *lanes*, each with
 * its own injector pair, over lane-major tensors (see
 * train/trial_batch.hh). A lane block may run as several forwards,
 * one per sample tile (SampleTiles): the first tile draws every bit
 * error and later tiles replay them.
 */

#ifndef RANA_TRAIN_LAYER_HH_
#define RANA_TRAIN_LAYER_HH_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "train/error_injection.hh"
#include "train/fixed_point.hh"
#include "train/tensor.hh"
#include "util/random.hh"

namespace rana {

/**
 * The weights and bias one weighted layer's lane kernel reads, with
 * the buffers that hold them when they are not the layer's own.
 */
struct WeightOperands
{
    WeightOperands() = default;
    // Moves only: a copy's pointers would read the source's buffers.
    WeightOperands(WeightOperands &&) = default;
    WeightOperands &operator=(WeightOperands &&) = default;

    /** One lane's private weight copy (null: read in place). */
    std::optional<Tensor> corrupted;
    /** L > 1: per-lane weights and bias, lane index innermost. */
    UninitFloats packedWeights;
    UninitFloats packedBias;
    /**
     * Weights {out, ...[, L]} and bias {out[, L]} to read: into the
     * buffers above (a move keeps them in place) or into the layer's
     * tensors.
     */
    const float *weights = nullptr;
    const float *bias = nullptr;
};

/**
 * A lane block forwarded in sample tiles: one forward per tile, each
 * over samples [first, first + count) of every lane's `samples`, in
 * sample order from 0. The first tile draws, for every weighted layer
 * in forward order, each lane's activation failures over the lane's
 * whole run (samples x per-sample words) and the layer's weight
 * operands, and keeps them here; every tile applies the failures
 * that fall in its window, and later tiles read the kept weights. So
 * each injector draws exactly what one forward of all the samples
 * draws, once, in the same order (the draws depend only on counts,
 * see train/error_injection.hh).
 */
class SampleTiles
{
  public:
    /** What the first tile drew for one weighted layer. */
    struct LayerDraws
    {
        /** Per lane: its activation failures (none: no injector). */
        std::vector<std::vector<WordFailure>> activations;
        WeightOperands weights;
    };

    /** @param samples samples per lane of the whole block */
    explicit SampleTiles(std::uint32_t samples) : samples_(samples) {}

    /** Begin the forward of samples [first, first + count). */
    void start(std::uint32_t first, std::uint32_t count);

    std::uint32_t samples() const { return samples_; }
    std::uint32_t first() const { return first_; }
    std::uint32_t count() const { return count_; }
    /** Whether this tile draws (the first) or replays. */
    bool drawing() const { return first_ == 0; }

    /**
     * The next weighted layer's draws: a new entry to fill on the
     * first tile, the kept one after.
     */
    LayerDraws &nextLayer();

  private:
    std::uint32_t samples_;
    std::uint32_t first_ = 0;
    std::uint32_t count_ = 0;
    std::vector<LayerDraws> layers_;
    std::size_t cursor_ = 0;
};

/** Per-forward-pass execution options. */
struct ForwardContext
{
    /** Quantize operands to fixed point (16-bit hardware model). */
    const FixedPointFormat *quant = nullptr;
    /**
     * Per-lane activation injectors; their number is the lane count
     * (empty: one lane without injection; a null entry: no injection
     * on that lane).
     */
    std::vector<BitErrorInjector *> injectors;
    /**
     * Per-lane weight injectors (empty, or a null entry: the lane's
     * weights get no bit errors). The fault campaign gives a lane
     * its own weight injector because weight and activation banks
     * see different exposure times, hence different effective
     * failure rates; training names its one injector for both.
     */
    std::vector<BitErrorInjector *> weightInjectors;
    /** Whether activations are cached for a following backward. */
    bool training = true;
    /**
     * The sample tiles this eval forward is one of (null: the
     * forward runs its lanes' whole samples, as training and serving
     * forwards do).
     */
    SampleTiles *tiles = nullptr;

    /** Number of lanes fused into the pass. */
    std::uint32_t lanes() const
    {
        return injectors.empty()
                   ? 1
                   : static_cast<std::uint32_t>(injectors.size());
    }
};

/** One learnable parameter with its gradient accumulator. */
struct Param
{
    Tensor *value = nullptr;
    Tensor *grad = nullptr;
};

/**
 * Hands out externally owned parameter tensors in params() order so
 * a model can *bind* a shared immutable weight store instead of
 * owning a private copy. Campaign trials bind one store into one
 * skeleton model and run their (eval-only) corrupted forward passes
 * against it — no per-trial weight copies.
 */
class SharedParamCursor
{
  public:
    explicit SharedParamCursor(const std::vector<Tensor> &store)
        : store_(store)
    {
    }

    /** The next shared tensor; null once the store is exhausted. */
    const Tensor *next()
    {
        if (index_ >= store_.size())
            return nullptr;
        return &store_[index_++];
    }

    /** Tensors handed out so far. */
    std::size_t consumed() const { return index_; }

    /** Whether every store tensor has been handed out. */
    bool exhausted() const { return index_ == store_.size(); }

  private:
    const std::vector<Tensor> &store_;
    std::size_t index_ = 0;
};

/** Abstract differentiable layer. */
class Layer
{
  public:
    virtual ~Layer() = default;

    /**
     * Compute the layer's output for `input` under `ctx`. `input` is
     * the layer's batch shape {...} (one lane) or that shape plus a
     * trailing lane dimension {..., L} with L = ctx.lanes(); the
     * output keeps the input's form. One lane has the same layout
     * either way. Per lane the result is bit-identical to a 1-lane
     * forward with that lane's injectors. Training forwards run one
     * lane.
     *
     * `input` is a sink argument: the layer owns it and may quantize,
     * corrupt or reshape it in place, or return its storage. A caller
     * that is done with its tensor passes a temporary or moves it in
     * (containers move the activation from layer to layer); passing
     * an lvalue copies it, and the caller's tensor stays untouched.
     */
    virtual Tensor forward(Tensor input, const ForwardContext &ctx) = 0;

    /**
     * Back-propagate `grad_output`, accumulating parameter
     * gradients, and return the gradient w.r.t. the input.
     */
    virtual Tensor backward(const Tensor &grad_output) = 0;

    /** Learnable parameters (empty for stateless layers). */
    virtual std::vector<Param> params() { return {}; }

    /**
     * Bind shared parameter tensors from `cursor` (one per params()
     * entry, in the same order). Bound layers read the shared
     * tensors during eval-mode forward passes instead of their own;
     * training a bound model is a usage error. Stateless layers
     * consume nothing.
     */
    virtual void bindSharedParams(SharedParamCursor &cursor)
    {
        (void)cursor;
    }

    /** Short human-readable description. */
    virtual std::string describe() const = 0;
};

/**
 * Immutable shared weight snapshot: many concurrent consumers bind
 * the same store; nobody writes through it.
 */
using WeightStore = std::shared_ptr<const std::vector<Tensor>>;

/**
 * Bind `store` into `model` in params() order. Asserts that the
 * store's tensor count and shapes match the model exactly.
 * @pre `store` is quantized to the forwards' fixed-point format: a
 * bound layer reads it in place and copies it only to inject weight
 * bit errors (copy-on-corrupt).
 */
void bindSharedWeights(Layer &model, const std::vector<Tensor> &store);

/** Initialize a tensor with He-uniform fan-in scaling. */
void heInitialize(Tensor &tensor, std::uint32_t fan_in, Rng &rng);

} // namespace rana

#endif // RANA_TRAIN_LAYER_HH_
