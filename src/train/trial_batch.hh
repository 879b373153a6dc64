/**
 * @file
 * Lane-major kernels: the one forward pass of every layer, and the
 * training convolution's backward.
 *
 * Every forward (Layer::forward) runs over lane-major tensors: a
 * trailing *lane* dimension {..., L} with the lane index innermost,
 * so the per-output multiply-accumulate runs on L contiguous floats
 * at a time. The lanes are whatever the caller fuses: the lanes of a
 * scoreLanes block (train/lane_scorer.hh: a fault campaign's trials
 * over the same test batch, or served requests, one sample each;
 * gatherLanes packs both), or, at one lane, a training or evaluation
 * minibatch, whose trailing dimension may be omitted because one
 * lane has the plain layout. Each lane has its own injector pair in
 * the ForwardContext.
 *
 * The kernels run compile-time lane counts only: 16, 8, 4, 2 or 1,
 * asserted on entry. scoreLanes is the one place that pads a lane
 * list to them (kernelLanes); the training minibatch is split into
 * them. scoreLanes also cuts a block of campaign trials into sample
 * tiles (SampleTiles): forwards of 32 samples per lane that replay
 * the bit errors the first tile drew over all the samples, so a
 * tiled block is bit-identical to one forward of the whole batch.
 *
 * The conv forward is register-tiled: a tile of output channels x
 * output columns x L lanes of accumulators stays in vector registers
 * across the whole (n, ky, kx) tap reduction and is stored once. The
 * tile size follows the vector register file of the instruction set
 * it runs on (LaneIsa): one template, instantiated for AVX-512, AVX2
 * and the baseline target, the widest the CPU supports picked per
 * call.
 *
 * The conv layer picks its kernel shape from the lane count: at
 * L > 1 each lane has its own copy-on-corrupt weights, packed
 * lane-major; at L = 1 Conv2dLayer runs the minibatch as lanes
 * instead, in blocks of 16/8/4/2 samples sharing one weight tensor,
 * through the same convolveTrialLanes, and the input gradient
 * through convolveInputGradLanes. The weight and bias gradients
 * reduce over the minibatch, so convolveWeightGrad vectorizes over
 * output channels instead.
 *
 * Bit-exactness contract: for every lane, the kernels perform
 * exactly the per-element operations of a 1-lane forward in exactly
 * its order. Vectorization and register tiling only span
 * *independent* accumulators (different lanes, different output
 * positions, different output channels), never reorder the additions
 * inside one accumulator, and the kernels are compiled without FMA
 * contraction (the AVX2 and AVX-512 code could fuse;
 * -ffp-contract=off forbids it), so a batched campaign is
 * bit-identical to its 1-lane reference for any lane count, and
 * training is bit-identical to the reference conv loop nests. The
 * LaneForward, LaneBlocks and FaultCampaign suites assert the former
 * across lane counts; the TrainKernels suite asserts the latter
 * against the reference loops.
 *
 * The kernels write every element of their outputs, and the gather
 * and extract helpers return tensors they fill in full, so none of
 * them needs a zero-filled destination (Tensor::uninitialized).
 */

#ifndef RANA_TRAIN_TRIAL_BATCH_HH_
#define RANA_TRAIN_TRIAL_BATCH_HH_

#include <bit>
#include <cstdint>
#include <vector>

#include "train/fixed_point.hh"
#include "train/tensor.hh"

namespace rana {

/** The widest lane count with a compile-time lane kernel. */
constexpr std::uint32_t kMaxKernelLanes = 16;

/**
 * The lane count an `n`-lane forward is padded to so that it runs a
 * compile-time lane kernel: the smallest of 1/2/4/8/16 that is >= n.
 * A pad lane carries null injectors and is never extracted; since no
 * kernel mixes lanes, the other lanes stay bit-identical.
 * @pre n <= kMaxKernelLanes
 */
constexpr std::uint32_t
kernelLanes(std::uint32_t n)
{
    return std::bit_ceil(n);
}

/**
 * Gather `count` consecutive samples per lane from a {B, ...} batch
 * tensor into a lane-major tensor {count, ..., L}: lane l carries
 * samples [firsts[l], firsts[l] + count). A fault campaign's trial
 * lanes all read the whole batch (first 0, count B) and differ only
 * in their injected errors; a serving block's lanes read one sample
 * each (count 1), possibly of different requests' batches.
 * @pre firsts non-empty and every firsts[l] + count <= B.
 */
Tensor gatherLanes(const Tensor &batch,
                   const std::vector<std::uint32_t> &firsts,
                   std::uint32_t count);

/**
 * Extract one lane of a lane-major tensor back into scalar layout
 * (drops the trailing lane dimension).
 */
Tensor extractTrialLane(const Tensor &stacked, std::uint32_t lane);

/**
 * Quantize-dequantize every element in place: bit-identical to
 * FixedPointFormat::roundTrip for every non-NaN float (FixedPoint.
 * SpanMatchesRoundTrip sweeps the bit patterns), but with the format
 * assertion hoisted out of the loop and the rounding done inline
 * instead of through std::round. quantizeTensor delegates here.
 */
void quantizeTrialSpan(float *data, std::size_t count,
                       const FixedPointFormat &format);

/** In-place ReLU over a span: v = max(0, v). */
void reluTrialSpan(float *data, std::size_t count);

/**
 * In-place ReLU backward over a span: grad[i] = 0 where the forward
 * input in[i] <= 0, unchanged elsewhere (NaN inputs included).
 */
void reluBackwardTrialSpan(float *grad, const float *in,
                           std::size_t count);

/** Element-wise dst[i] += src[i] (the residual skip connection). */
void addTrialSpan(float *dst, const float *src, std::size_t count);

/**
 * Lane-major convolution: activations {B, N, H, W, L}, packed
 * weights {M, N, K, K, L}, bias {M, L}, output {B, M, R, C, L}.
 * Per lane, accumulates bias + sum over (n, ky, kx) of the valid
 * taps, in that order, on the register tile of the widest LaneIsa
 * the host runs. @pre lanes is 1, 2, 4, 8 or 16.
 */
void convolveTrialLanes(const float *in, const float *wt,
                        const float *bias, float *out,
                        std::uint32_t batch, std::uint32_t in_channels,
                        std::uint32_t h, std::uint32_t w,
                        std::uint32_t out_channels, std::uint32_t r,
                        std::uint32_t c, std::uint32_t kernel,
                        std::uint32_t stride, std::uint32_t pad,
                        std::uint32_t lanes);

/**
 * The instruction-set instantiations of the lane convolution's
 * register tile, each sized to its ISA's vector register file.
 */
enum class LaneIsa
{
    Baseline, ///< x86-64 SSE2, or the plain target elsewhere.
    Avx2,
    Avx512, ///< AVX-512F with AVX-512VL.
};

/**
 * The instantiations this host runs, widest first; Baseline always
 * runs. convolveTrialLanes uses the first.
 */
std::vector<LaneIsa> hostLaneIsas();

/** A short name of `isa` ("avx512", "avx2", "baseline"). */
const char *laneIsaName(LaneIsa isa);

/**
 * convolveTrialLanes on one instantiation, so tests and benchmarks
 * can run each ISA the host supports. Every instantiation is
 * bit-identical. @pre `isa` is in hostLaneIsas(); lanes is 1, 2, 4,
 * 8 or 16.
 */
void convolveTrialLanesOn(LaneIsa isa, const float *in, const float *wt,
                          const float *bias, float *out,
                          std::uint32_t batch, std::uint32_t in_channels,
                          std::uint32_t h, std::uint32_t w,
                          std::uint32_t out_channels, std::uint32_t r,
                          std::uint32_t c, std::uint32_t kernel,
                          std::uint32_t stride, std::uint32_t pad,
                          std::uint32_t lanes);

/**
 * Input gradient of a convolution over one lane block:
 * grad_output {M, R, C, L}, scalar-layout weights {M, N, K, K}
 * shared by every lane, grad_input {N, H, W, L} accumulated in
 * place (+=).
 *
 * The reference loop nest runs (b, m, y, x, n, ky, kx), so each
 * grad_input element receives its terms in (m, y, x) order. The
 * kernel keeps that order with the taps walked backwards: for a
 * fixed input row, descending ky visits ascending y, and descending
 * kx ascending x. Invalid taps are clipped out of the y/x bounds, as
 * in the forward kernels, so no padding term is ever added.
 * @pre lanes is 1, 2, 4, 8 or 16.
 */
void convolveInputGradLanes(const float *gout, const float *wt,
                            float *gin, std::uint32_t in_channels,
                            std::uint32_t h, std::uint32_t w,
                            std::uint32_t out_channels,
                            std::uint32_t r, std::uint32_t c,
                            std::uint32_t kernel, std::uint32_t stride,
                            std::uint32_t pad, std::uint32_t lanes);

/**
 * Weight and bias gradients of a convolution over an NCHW minibatch:
 * input {B, N, H, W}, grad_output {B, M, R, C}, accumulated in place
 * (+=) into weight_grad {M, N, K, K} and bias_grad {M}.
 *
 * Both reduce over the minibatch, so the kernel vectorizes over the
 * output channels instead: it accumulates into a transposed
 * {N*K*K, M} copy of weight_grad, walking (b, y, x) in the
 * reference's order, so every accumulator still receives its terms
 * in (b, y, x) order. Exactly the taps the reference skips are
 * skipped (no zero padding, hence no +0/-0 sign changes).
 */
void convolveWeightGrad(const float *in, const float *gout,
                        float *weight_grad, float *bias_grad,
                        std::uint32_t batch, std::uint32_t in_channels,
                        std::uint32_t h, std::uint32_t w,
                        std::uint32_t out_channels, std::uint32_t r,
                        std::uint32_t c, std::uint32_t kernel,
                        std::uint32_t stride, std::uint32_t pad);

/**
 * Lane-major dense layer: input {B, F, L}, packed weights {O, F, L},
 * bias {O, L}, output {B, O, L}. One sequential dot product per
 * (output, lane). @pre lanes is 1, 2, 4, 8 or 16.
 */
void denseTrialLanes(const float *in, const float *wt,
                     const float *bias, float *out, std::uint32_t batch,
                     std::uint32_t in_features,
                     std::uint32_t out_features, std::uint32_t lanes);

/**
 * Lane-major 2x2/stride-2 max pooling: input {B, C, H, W, L},
 * output {B, C, H/2, W/2, L}. Candidates in (dy, dx) order, each
 * kept by a strict greater-than over a -1e30 start.
 */
void maxPoolTrialLanes(const float *in, float *out, std::uint32_t batch,
                       std::uint32_t channels, std::uint32_t h,
                       std::uint32_t w, std::uint32_t lanes);

/**
 * Lane-major 2x2/stride-2 average pooling: input {B, C, H, W, L},
 * output {B, C, H/2, W/2, L}. Sums the window in (dy, dx) order,
 * then scales by 0.25.
 */
void avgPoolTrialLanes(const float *in, float *out, std::uint32_t batch,
                       std::uint32_t channels, std::uint32_t h,
                       std::uint32_t w, std::uint32_t lanes);

/**
 * Pack per-lane scalar-layout tensors into one lane-major buffer:
 * out[i * lanes + l] = lanes_ptrs[l][i]. Used for the per-lane
 * copy-on-corrupt weight copies.
 */
void packLanePointers(const std::vector<const float *> &lane_ptrs,
                      std::size_t count, float *out);

} // namespace rana

#endif // RANA_TRAIN_TRIAL_BATCH_HH_
