/**
 * @file
 * Lane-major kernels of the layer forward passes and of the training
 * convolution's backward.
 *
 * This translation unit is compiled at -O3 with -fno-trapping-math
 * and -ffp-contract=off (see the CMakeLists), and the hot kernels
 * carry target_clones("default","avx","avx2","avx512f"): the loader
 * picks the widest clone the CPU runs while the binary stays runnable
 * on baseline x86-64. -fno-trapping-math lets gcc vectorize the
 * quantizer's clamp (with trapping math it reports "control flow in
 * loop"); it changes no value, since nothing here reads the FP
 * exception flags. -ffp-contract=off is what keeps the wide clones
 * exact: the avx512f feature level includes FMA, and a fused
 * multiply-add rounds once where the 1-lane order rounds twice
 * (TrainKernels.NoFusedMultiplyAdd pins this).
 *
 * The lane count is a template parameter for 16/8/4/2/1 lanes, the
 * widths production callers run (campaign trial blocks and serving
 * request blocks are padded to them, training minibatches split into
 * them), so the innermost lane loop has a compile-time trip count
 * and turns into straight-line vector code; other lane counts run
 * the same template with FixedL = 0, which reads the count at run
 * time: slower, but bit-identical.
 *
 * Every kernel keeps the 1-lane per-accumulator operation order —
 * vectorization only spans independent lanes, output positions and
 * output channels — so the results match bit for bit across lane
 * counts and clones. Every output a kernel returns or fills is
 * written in full (TrainKernels.OutputsFullyWritten), so callers
 * allocate it with Tensor::uninitialized.
 */

#include "train/trial_batch.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace rana {

namespace {

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define RANA_TRIAL_CLONES                                             \
    __attribute__((target_clones("default", "avx", "avx2", "avx512f")))
#else
#define RANA_TRIAL_CLONES
#endif

/**
 * The outputs x in [lo, hi) of a `count`-wide output row whose tap at
 * offset `off` (= k - pad) lands inside an `extent`-wide input row:
 * 0 <= x*stride + off < extent. Empty when lo >= hi.
 */
struct TapRange
{
    std::int64_t lo = 0;
    std::int64_t hi = 0;
};

TapRange
validOutputs(std::int64_t off, std::uint32_t stride,
             std::uint32_t extent, std::uint32_t count)
{
    TapRange range;
    if (off < 0)
        range.lo = (-off + stride - 1) / stride;
    if (extent >= off + 1)
        range.hi = (extent - 1 - off) / stride + 1;
    range.hi = std::min<std::int64_t>(range.hi, count);
    return range;
}

/**
 * Convolution of one output channel `m` of one sample over a
 * lane-major tensor. FixedL != 0 fixes the lane count at compile
 * time; FixedL == 0 reads it from `lanes`. `acc` is a caller-provided
 * {c, L} scratch row.
 */
template <std::uint32_t FixedL>
RANA_TRIAL_CLONES void
convolveLanesOne(const float *__restrict in,
                 const float *__restrict wt,
                 const float *__restrict bias,
                 float *__restrict out, std::uint32_t b,
                 std::uint32_t m, std::uint32_t in_channels,
                 std::uint32_t h, std::uint32_t w,
                 std::uint32_t out_channels, std::uint32_t r,
                 std::uint32_t c, std::uint32_t kernel,
                 std::uint32_t stride, std::uint32_t pad,
                 std::uint32_t lanes, float *__restrict acc)
{
    const std::uint32_t L = FixedL != 0 ? FixedL : lanes;
    const std::size_t in_plane =
        static_cast<std::size_t>(h) * w * L;
    const std::size_t in_sample = in_plane * in_channels;
    const std::size_t in_row = static_cast<std::size_t>(w) * L;
    const std::size_t out_plane =
        static_cast<std::size_t>(r) * c * L;
    const std::size_t wt_kernel =
        static_cast<std::size_t>(kernel) * kernel * L;
    float *out_m = out + (b * out_channels + m) * out_plane;
    const float *wt_m = wt + m * in_channels * wt_kernel;
    const float *bias_m = bias + static_cast<std::size_t>(m) * L;
    for (std::uint32_t y = 0; y < r; ++y) {
        const std::int64_t base_y =
            static_cast<std::int64_t>(y) * stride - pad;
        for (std::uint32_t x = 0; x < c; ++x)
            for (std::uint32_t l = 0; l < L; ++l)
                acc[x * L + l] = bias_m[l];
        for (std::uint32_t n = 0; n < in_channels; ++n) {
            const float *in_n = in + b * in_sample + n * in_plane;
            const float *wt_n = wt_m + n * wt_kernel;
            for (std::uint32_t ky = 0; ky < kernel; ++ky) {
                const std::int64_t in_y = base_y + ky;
                if (in_y < 0 || in_y >= h)
                    continue;
                const float *row = in_n + in_y * in_row;
                const float *wt_row =
                    wt_n + static_cast<std::size_t>(ky) * kernel * L;
                for (std::uint32_t kx = 0; kx < kernel; ++kx) {
                    const std::int64_t off =
                        static_cast<std::int64_t>(kx) - pad;
                    const TapRange xs = validOutputs(off, stride, w, c);
                    if (xs.lo >= xs.hi)
                        continue;
                    const float *__restrict wv =
                        wt_row + static_cast<std::size_t>(kx) * L;
                    // The runtime lane count keeps one strided loop.
                    if (FixedL != 0 && stride == 1) {
                        const float *src = row + off * L;
                        for (std::int64_t x = xs.lo; x < xs.hi; ++x) {
                            float *__restrict a = acc + x * L;
                            const float *__restrict s = src + x * L;
                            for (std::uint32_t l = 0; l < L; ++l)
                                a[l] += s[l] * wv[l];
                        }
                    } else {
                        for (std::int64_t x = xs.lo; x < xs.hi; ++x) {
                            float *__restrict a = acc + x * L;
                            const float *__restrict s =
                                row + (x * stride + off) * L;
                            for (std::uint32_t l = 0; l < L; ++l)
                                a[l] += s[l] * wv[l];
                        }
                    }
                }
            }
        }
        float *out_row = out_m + static_cast<std::size_t>(y) * c * L;
        for (std::size_t i = 0; i < static_cast<std::size_t>(c) * L;
             ++i)
            out_row[i] = acc[i];
    }
}

/**
 * Convolution of the output-channel pair {m, m+1} of one sample,
 * compile-time lane count. `acc` is a caller-provided {2, c, L}
 * scratch block.
 *
 * Pairing output channels reuses each loaded input vector for two
 * multiply-adds and keeps two independent accumulator chains in
 * flight, hiding the add latency the single-channel loop exposes.
 * Each channel's accumulation sequence is exactly the single-channel
 * order — pairing only interleaves independent accumulators — so
 * the result stays bit-identical.
 */
template <std::uint32_t L>
RANA_TRIAL_CLONES void
convolveLanesPair(const float *__restrict in,
                  const float *__restrict wt,
                  const float *__restrict bias,
                  float *__restrict out, std::uint32_t b,
                  std::uint32_t m, std::uint32_t in_channels,
                  std::uint32_t h, std::uint32_t w,
                  std::uint32_t out_channels, std::uint32_t r,
                  std::uint32_t c, std::uint32_t kernel,
                  std::uint32_t stride, std::uint32_t pad,
                  float *__restrict acc)
{
    const std::size_t in_plane =
        static_cast<std::size_t>(h) * w * L;
    const std::size_t in_sample = in_plane * in_channels;
    const std::size_t in_row = static_cast<std::size_t>(w) * L;
    const std::size_t out_plane =
        static_cast<std::size_t>(r) * c * L;
    const std::size_t wt_kernel =
        static_cast<std::size_t>(kernel) * kernel * L;
    float *out_m0 = out + (b * out_channels + m) * out_plane;
    float *out_m1 = out_m0 + out_plane;
    const float *wt_m0 = wt + m * in_channels * wt_kernel;
    const float *wt_m1 = wt_m0 + in_channels * wt_kernel;
    const float *bias_m0 = bias + static_cast<std::size_t>(m) * L;
    const float *bias_m1 = bias_m0 + L;
    float *__restrict a0 = acc;
    float *__restrict a1 = acc + static_cast<std::size_t>(c) * L;
    for (std::uint32_t y = 0; y < r; ++y) {
        const std::int64_t base_y =
            static_cast<std::int64_t>(y) * stride - pad;
        for (std::uint32_t x = 0; x < c; ++x)
            for (std::uint32_t l = 0; l < L; ++l) {
                a0[x * L + l] = bias_m0[l];
                a1[x * L + l] = bias_m1[l];
            }
        for (std::uint32_t n = 0; n < in_channels; ++n) {
            const float *in_n = in + b * in_sample + n * in_plane;
            const float *wt_n0 = wt_m0 + n * wt_kernel;
            const float *wt_n1 = wt_m1 + n * wt_kernel;
            for (std::uint32_t ky = 0; ky < kernel; ++ky) {
                const std::int64_t in_y = base_y + ky;
                if (in_y < 0 || in_y >= h)
                    continue;
                const float *row = in_n + in_y * in_row;
                const float *wt_row0 =
                    wt_n0 + static_cast<std::size_t>(ky) * kernel * L;
                const float *wt_row1 =
                    wt_n1 + static_cast<std::size_t>(ky) * kernel * L;
                for (std::uint32_t kx = 0; kx < kernel; ++kx) {
                    const std::int64_t off =
                        static_cast<std::int64_t>(kx) - pad;
                    const TapRange xs = validOutputs(off, stride, w, c);
                    if (xs.lo >= xs.hi)
                        continue;
                    const float *__restrict wv0 =
                        wt_row0 + static_cast<std::size_t>(kx) * L;
                    const float *__restrict wv1 =
                        wt_row1 + static_cast<std::size_t>(kx) * L;
                    if (stride == 1) {
                        const float *src = row + off * L;
                        for (std::int64_t x = xs.lo; x < xs.hi; ++x) {
                            const float *__restrict s = src + x * L;
                            float *__restrict p0 = a0 + x * L;
                            float *__restrict p1 = a1 + x * L;
                            for (std::uint32_t l = 0; l < L; ++l) {
                                p0[l] += s[l] * wv0[l];
                                p1[l] += s[l] * wv1[l];
                            }
                        }
                    } else {
                        for (std::int64_t x = xs.lo; x < xs.hi; ++x) {
                            const float *__restrict s =
                                row + (x * stride + off) * L;
                            float *__restrict p0 = a0 + x * L;
                            float *__restrict p1 = a1 + x * L;
                            for (std::uint32_t l = 0; l < L; ++l) {
                                p0[l] += s[l] * wv0[l];
                                p1[l] += s[l] * wv1[l];
                            }
                        }
                    }
                }
            }
        }
        float *out_row0 =
            out_m0 + static_cast<std::size_t>(y) * c * L;
        float *out_row1 =
            out_m1 + static_cast<std::size_t>(y) * c * L;
        for (std::size_t i = 0; i < static_cast<std::size_t>(c) * L;
             ++i) {
            out_row0[i] = a0[i];
            out_row1[i] = a1[i];
        }
    }
}

/**
 * Convolution over one lane-major tensor. FixedL != 0 fixes the lane
 * count at compile time; FixedL == 0 reads it from `lanes`. `acc` is
 * a caller-provided {2, c, L} scratch block.
 *
 * Output channels are paired on narrow multi-input layers, where
 * the pairing measures 1.2-1.3x. Wide rows (c > 6), single-input
 * layers and the runtime lane count stay on the one-channel path:
 * there the second accumulator row costs more than the input reuse
 * earns (empirically tuned on the campaign's MiniVgg/MiniAlexNet
 * shapes).
 */
template <std::uint32_t FixedL>
void
convolveLanesImpl(const float *__restrict in,
                  const float *__restrict wt,
                  const float *__restrict bias,
                  float *__restrict out, std::uint32_t batch,
                  std::uint32_t in_channels, std::uint32_t h,
                  std::uint32_t w, std::uint32_t out_channels,
                  std::uint32_t r, std::uint32_t c,
                  std::uint32_t kernel, std::uint32_t stride,
                  std::uint32_t pad, std::uint32_t lanes,
                  float *__restrict acc)
{
    for (std::uint32_t b = 0; b < batch; ++b) {
        std::uint32_t m = 0;
        if (FixedL != 0 && in_channels >= 2 && c <= 6) {
            for (; m + 2 <= out_channels; m += 2)
                convolveLanesPair<FixedL>(in, wt, bias, out, b, m,
                                          in_channels, h, w,
                                          out_channels, r, c, kernel,
                                          stride, pad, acc);
        }
        for (; m < out_channels; ++m)
            convolveLanesOne<FixedL>(in, wt, bias, out, b, m,
                                     in_channels, h, w, out_channels, r,
                                     c, kernel, stride, pad, lanes, acc);
    }
}

/**
 * Dense layer over lane-major operands. FixedL != 0 fixes the lane
 * count at compile time and accumulates in a local array; FixedL ==
 * 0 reads it from `lanes` and accumulates in the {L} `scratch`.
 */
template <std::uint32_t FixedL>
RANA_TRIAL_CLONES void
denseLanesImpl(const float *__restrict in, const float *__restrict wt,
               const float *__restrict bias,
               float *__restrict out, std::uint32_t batch,
               std::uint32_t in_features, std::uint32_t out_features,
               std::uint32_t lanes, float *__restrict scratch)
{
    const std::uint32_t L = FixedL != 0 ? FixedL : lanes;
    float fixed_acc[FixedL != 0 ? FixedL : 1];
    float *__restrict acc = FixedL != 0 ? fixed_acc : scratch;
    for (std::uint32_t b = 0; b < batch; ++b) {
        const float *in_b =
            in + static_cast<std::size_t>(b) * in_features * L;
        float *out_b =
            out + static_cast<std::size_t>(b) * out_features * L;
        for (std::uint32_t o = 0; o < out_features; ++o) {
            const float *wt_o =
                wt + static_cast<std::size_t>(o) * in_features * L;
            const float *bias_o =
                bias + static_cast<std::size_t>(o) * L;
            for (std::uint32_t l = 0; l < L; ++l)
                acc[l] = bias_o[l];
            for (std::uint32_t i = 0; i < in_features; ++i) {
                const float *__restrict s =
                    in_b + static_cast<std::size_t>(i) * L;
                const float *__restrict v =
                    wt_o + static_cast<std::size_t>(i) * L;
                for (std::uint32_t l = 0; l < L; ++l)
                    acc[l] += s[l] * v[l];
            }
            float *d = out_b + static_cast<std::size_t>(o) * L;
            for (std::uint32_t l = 0; l < L; ++l)
                d[l] = acc[l];
        }
    }
}

/**
 * Input gradient over one lane block. FixedL != 0 fixes the lane
 * count at compile time; FixedL == 0 reads it from `lanes`.
 */
template <std::uint32_t FixedL>
RANA_TRIAL_CLONES void
inputGradLanesImpl(const float *__restrict gout,
                   const float *__restrict wt, float *__restrict gin,
                   std::uint32_t in_channels, std::uint32_t h,
                   std::uint32_t w, std::uint32_t out_channels,
                   std::uint32_t r, std::uint32_t c,
                   std::uint32_t kernel, std::uint32_t stride,
                   std::uint32_t pad, std::uint32_t lanes)
{
    const std::size_t L = FixedL != 0 ? FixedL : lanes;
    const std::size_t in_row = w * L;
    const std::size_t in_plane = h * in_row;
    const std::size_t out_row = c * L;
    const std::size_t out_plane = r * out_row;
    const std::size_t wt_kernel =
        static_cast<std::size_t>(kernel) * kernel;
    for (std::uint32_t n = 0; n < in_channels; ++n) {
        float *gin_n = gin + n * in_plane;
        for (std::uint32_t m = 0; m < out_channels; ++m) {
            const float *gout_m = gout + m * out_plane;
            const float *wt_mn =
                wt + (static_cast<std::size_t>(m) * in_channels + n) *
                         wt_kernel;
            // Descending taps keep each gin element's terms in
            // ascending (y, x) order.
            for (std::uint32_t ky = kernel; ky-- > 0;) {
                const std::int64_t off_y =
                    static_cast<std::int64_t>(ky) - pad;
                const TapRange ys = validOutputs(off_y, stride, h, r);
                for (std::uint32_t kx = kernel; kx-- > 0;) {
                    const std::int64_t off_x =
                        static_cast<std::int64_t>(kx) - pad;
                    const TapRange xs =
                        validOutputs(off_x, stride, w, c);
                    if (xs.lo >= xs.hi)
                        continue;
                    const float wv = wt_mn[ky * kernel + kx];
                    for (std::int64_t y = ys.lo; y < ys.hi; ++y) {
                        float *dst =
                            gin_n + (y * stride + off_y) * in_row;
                        const float *src = gout_m + y * out_row;
                        if (stride == 1) {
                            // Consecutive x are adjacent: one span.
                            float *__restrict d =
                                dst + (xs.lo + off_x) * L;
                            const float *__restrict g =
                                src + xs.lo * L;
                            const std::size_t span =
                                (xs.hi - xs.lo) * L;
                            for (std::size_t i = 0; i < span; ++i)
                                d[i] += g[i] * wv;
                        } else {
                            for (std::int64_t x = xs.lo; x < xs.hi;
                                 ++x) {
                                float *__restrict d =
                                    dst + (x * stride + off_x) * L;
                                const float *__restrict g =
                                    src + x * L;
                                for (std::size_t l = 0; l < L; ++l)
                                    d[l] += g[l] * wv;
                            }
                        }
                    }
                }
            }
        }
    }
}

/**
 * Weight and bias gradients into a transposed {N*K*K, M} weight
 * gradient, from a transposed {B, R, C, M} output gradient. Scratch:
 * `in_m` holds one sample's input with every value repeated M times
 * ({N, H, W, M}), `g_taps` one output gradient repeated K times
 * ({K, M}). With both, the taps of one kernel row are a single
 * contiguous span in all three operands, whatever the stride.
 */
RANA_TRIAL_CLONES void
weightGradImpl(const float *__restrict in, const float *__restrict gout,
               float *__restrict gwt, float *__restrict gbias,
               std::uint32_t batch, std::uint32_t in_channels,
               std::uint32_t h, std::uint32_t w,
               std::uint32_t out_channels, std::uint32_t r,
               std::uint32_t c, std::uint32_t kernel,
               std::uint32_t stride, std::uint32_t pad,
               float *__restrict in_m, float *__restrict g_taps)
{
    const std::size_t M = out_channels;
    const std::size_t in_plane = static_cast<std::size_t>(h) * w;
    const std::size_t in_sample = in_plane * in_channels;
    const std::size_t wt_kernel =
        static_cast<std::size_t>(kernel) * kernel;
    const std::int64_t K = kernel;
    for (std::uint32_t b = 0; b < batch; ++b) {
        const float *in_b = in + b * in_sample;
        for (std::size_t i = 0; i < in_sample; ++i)
            for (std::size_t m = 0; m < M; ++m)
                in_m[i * M + m] = in_b[i];
        for (std::uint32_t y = 0; y < r; ++y) {
            const std::int64_t base_y =
                static_cast<std::int64_t>(y) * stride - pad;
            const std::int64_t ky_lo = std::max<std::int64_t>(0, -base_y);
            const std::int64_t ky_hi = std::min(K, h - base_y);
            for (std::uint32_t x = 0; x < c; ++x) {
                const std::int64_t base_x =
                    static_cast<std::int64_t>(x) * stride - pad;
                const std::int64_t kx_lo =
                    std::max<std::int64_t>(0, -base_x);
                const std::int64_t kx_hi = std::min(K, w - base_x);
                const float *g =
                    gout + ((static_cast<std::size_t>(b) * r + y) * c +
                            x) *
                               M;
                for (std::size_t m = 0; m < M; ++m)
                    gbias[m] += g[m];
                if (kx_lo >= kx_hi)
                    continue;
                for (std::int64_t kx = 0; kx < K; ++kx)
                    for (std::size_t m = 0; m < M; ++m)
                        g_taps[kx * M + m] = g[m];
                const std::size_t span = (kx_hi - kx_lo) * M;
                for (std::uint32_t n = 0; n < in_channels; ++n) {
                    const float *in_n = in_m + n * in_plane * M;
                    float *gwt_n = gwt + n * wt_kernel * M;
                    for (std::int64_t ky = ky_lo; ky < ky_hi; ++ky) {
                        float *__restrict a =
                            gwt_n + (ky * K + kx_lo) * M;
                        const float *__restrict s =
                            in_n +
                            ((base_y + ky) * w + base_x + kx_lo) * M;
                        for (std::size_t i = 0; i < span; ++i)
                            a[i] += g_taps[i] * s[i];
                    }
                }
            }
        }
    }
}

} // namespace

Tensor
packTrialLanes(const Tensor &scalar, std::uint32_t lanes)
{
    RANA_ASSERT(lanes > 0, "lane count must be positive");
    std::vector<std::uint32_t> shape = scalar.shape();
    shape.push_back(lanes);
    Tensor out = Tensor::uninitialized(std::move(shape));
    const float *src = scalar.data();
    float *dst = out.data();
    const std::size_t count = scalar.size();
    for (std::size_t i = 0; i < count; ++i) {
        const float v = src[i];
        float *d = dst + i * lanes;
        for (std::uint32_t l = 0; l < lanes; ++l)
            d[l] = v;
    }
    return out;
}

Tensor
extractTrialLane(const Tensor &stacked, std::uint32_t lane)
{
    RANA_ASSERT(stacked.shape().size() >= 2,
                "lane-major tensors carry a trailing lane dimension");
    std::vector<std::uint32_t> shape = stacked.shape();
    const std::uint32_t lanes = shape.back();
    RANA_ASSERT(lane < lanes, "lane index out of range");
    shape.pop_back();
    Tensor out = Tensor::uninitialized(std::move(shape));
    const float *src = stacked.data();
    float *dst = out.data();
    const std::size_t count = out.size();
    for (std::size_t i = 0; i < count; ++i)
        dst[i] = src[i * lanes + lane];
    return out;
}

Tensor
packSampleLanes(const Tensor &batch,
                const std::vector<std::uint32_t> &indices)
{
    RANA_ASSERT(!indices.empty(), "sample pack needs at least one lane");
    RANA_ASSERT(!batch.shape().empty(), "batch tensor has no shape");
    const std::uint32_t batch_size = batch.shape().front();
    const std::size_t sample_size = batch.size() / batch_size;
    const auto lanes = static_cast<std::uint32_t>(indices.size());
    std::vector<std::uint32_t> shape = batch.shape();
    shape.front() = 1;
    shape.push_back(lanes);
    Tensor out = Tensor::uninitialized(std::move(shape));
    const float *src = batch.data();
    float *dst = out.data();
    for (std::uint32_t l = 0; l < lanes; ++l) {
        RANA_ASSERT(indices[l] < batch_size,
                    "sample index out of range");
        const float *sample = src + indices[l] * sample_size;
        for (std::size_t i = 0; i < sample_size; ++i)
            dst[i * lanes + l] = sample[i];
    }
    return out;
}

RANA_TRIAL_CLONES void
quantizeTrialSpan(float *data, std::size_t count,
                  const FixedPointFormat &format)
{
    RANA_ASSERT(format.fracBits <= 15, "at most 15 fractional bits");
    const double scale = format.scale();
    // The scale is a power of two, so multiplying by its reciprocal
    // is exact and equals dividing by it.
    const double inv_scale = 1.0 / scale;
    for (std::size_t i = 0; i < count; ++i) {
        // copysign(floor(|d| + 0.5), d) equals std::round(d), and
        // skipping the int16 hop is exact because the clamped value
        // is already integral.
        const double d = static_cast<double>(data[i]) * scale;
        const double rounded =
            std::copysign(std::floor(std::fabs(d) + 0.5), d);
        // Adding +0.0 turns a -0.0 result into +0.0, as the int16
        // hop of roundTrip does (an int16 has no negative zero).
        const double clamped =
            std::max(-32768.0, std::min(rounded, 32767.0)) + 0.0;
        data[i] = static_cast<float>(clamped * inv_scale);
    }
}

RANA_TRIAL_CLONES void
reluTrialSpan(float *data, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i)
        data[i] = std::max(0.0f, data[i]);
}

RANA_TRIAL_CLONES void
reluBackwardTrialSpan(float *__restrict grad, const float *__restrict in,
                      std::size_t count)
{
    // A select, not a branch: NaN inputs pass the gradient, as the
    // comparison is false.
    for (std::size_t i = 0; i < count; ++i)
        grad[i] = in[i] <= 0.0f ? 0.0f : grad[i];
}

RANA_TRIAL_CLONES void
addTrialSpan(float *__restrict dst, const float *__restrict src,
             std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i)
        dst[i] += src[i];
}

void
convolveTrialLanes(const float *in, const float *wt, const float *bias,
                   float *out, std::uint32_t batch,
                   std::uint32_t in_channels, std::uint32_t h,
                   std::uint32_t w, std::uint32_t out_channels,
                   std::uint32_t r, std::uint32_t c,
                   std::uint32_t kernel, std::uint32_t stride,
                   std::uint32_t pad, std::uint32_t lanes)
{
    // Two accumulator rows: the compile-time lane counts pair output
    // channels; the runtime lane count uses only the first row.
    std::vector<float> acc(static_cast<std::size_t>(2) * c * lanes);
    auto run = [&](auto impl) {
        impl(in, wt, bias, out, batch, in_channels, h, w, out_channels,
             r, c, kernel, stride, pad, lanes, acc.data());
    };
    switch (lanes) {
      case 16:
        return run(convolveLanesImpl<16>);
      case 8:
        return run(convolveLanesImpl<8>);
      case 4:
        return run(convolveLanesImpl<4>);
      case 2:
        return run(convolveLanesImpl<2>);
      case 1:
        return run(convolveLanesImpl<1>);
      default:
        return run(convolveLanesImpl<0>);
    }
}

void
convolveInputGradLanes(const float *gout, const float *wt, float *gin,
                       std::uint32_t in_channels, std::uint32_t h,
                       std::uint32_t w, std::uint32_t out_channels,
                       std::uint32_t r, std::uint32_t c,
                       std::uint32_t kernel, std::uint32_t stride,
                       std::uint32_t pad, std::uint32_t lanes)
{
    auto run = [&](auto impl) {
        impl(gout, wt, gin, in_channels, h, w, out_channels, r, c,
             kernel, stride, pad, lanes);
    };
    switch (lanes) {
      case 16:
        return run(inputGradLanesImpl<16>);
      case 8:
        return run(inputGradLanesImpl<8>);
      case 4:
        return run(inputGradLanesImpl<4>);
      case 2:
        return run(inputGradLanesImpl<2>);
      case 1:
        return run(inputGradLanesImpl<1>);
      default:
        return run(inputGradLanesImpl<0>);
    }
}

void
convolveWeightGrad(const float *in, const float *gout,
                   float *weight_grad, float *bias_grad,
                   std::uint32_t batch, std::uint32_t in_channels,
                   std::uint32_t h, std::uint32_t w,
                   std::uint32_t out_channels, std::uint32_t r,
                   std::uint32_t c, std::uint32_t kernel,
                   std::uint32_t stride, std::uint32_t pad)
{
    // Output channels innermost on both sides: gout {B, M, R*C} ->
    // {B, R*C, M} and weight_grad {M, N*K*K} -> {N*K*K, M}, then
    // back. Transposing moves values without touching them.
    const std::size_t M = out_channels;
    const std::size_t out_plane = static_cast<std::size_t>(r) * c;
    const std::size_t taps =
        static_cast<std::size_t>(in_channels) * kernel * kernel;
    std::vector<float> gout_t(batch * out_plane * M);
    for (std::size_t b = 0; b < batch; ++b)
        for (std::size_t m = 0; m < M; ++m)
            for (std::size_t i = 0; i < out_plane; ++i)
                gout_t[(b * out_plane + i) * M + m] =
                    gout[(b * M + m) * out_plane + i];
    std::vector<float> gwt_t(taps * M);
    for (std::size_t m = 0; m < M; ++m)
        for (std::size_t t = 0; t < taps; ++t)
            gwt_t[t * M + m] = weight_grad[m * taps + t];
    std::vector<float> in_m(static_cast<std::size_t>(in_channels) * h *
                            w * M);
    std::vector<float> g_taps(static_cast<std::size_t>(kernel) * M);
    weightGradImpl(in, gout_t.data(), gwt_t.data(), bias_grad, batch,
                   in_channels, h, w, out_channels, r, c, kernel,
                   stride, pad, in_m.data(), g_taps.data());
    for (std::size_t m = 0; m < M; ++m)
        for (std::size_t t = 0; t < taps; ++t)
            weight_grad[m * taps + t] = gwt_t[t * M + m];
}

void
denseTrialLanes(const float *in, const float *wt, const float *bias,
                float *out, std::uint32_t batch,
                std::uint32_t in_features, std::uint32_t out_features,
                std::uint32_t lanes)
{
    std::vector<float> scratch(lanes);
    auto run = [&](auto impl) {
        impl(in, wt, bias, out, batch, in_features, out_features, lanes,
             scratch.data());
    };
    switch (lanes) {
      case 16:
        return run(denseLanesImpl<16>);
      case 8:
        return run(denseLanesImpl<8>);
      case 4:
        return run(denseLanesImpl<4>);
      case 2:
        return run(denseLanesImpl<2>);
      case 1:
        return run(denseLanesImpl<1>);
      default:
        return run(denseLanesImpl<0>);
    }
}

RANA_TRIAL_CLONES void
maxPoolTrialLanes(const float *__restrict in, float *__restrict out,
                  std::uint32_t batch,
                  std::uint32_t channels, std::uint32_t h,
                  std::uint32_t w, std::uint32_t lanes)
{
    const std::uint32_t r = h / 2;
    const std::uint32_t c = w / 2;
    const std::size_t in_row = static_cast<std::size_t>(w) * lanes;
    const std::size_t out_row = static_cast<std::size_t>(c) * lanes;
    for (std::uint32_t b = 0; b < batch; ++b) {
        for (std::uint32_t ch = 0; ch < channels; ++ch) {
            const float *in_plane =
                in + (static_cast<std::size_t>(b) * channels + ch) *
                         h * in_row;
            float *out_plane =
                out + (static_cast<std::size_t>(b) * channels + ch) *
                          r * out_row;
            for (std::uint32_t y = 0; y < r; ++y) {
                for (std::uint32_t x = 0; x < c; ++x) {
                    float *d = out_plane + y * out_row +
                               static_cast<std::size_t>(x) * lanes;
                    for (std::uint32_t l = 0; l < lanes; ++l)
                        d[l] = -1e30f;
                    // Candidates in (dy, dx) order; per lane the
                    // strict > keeps the first maximum.
                    for (std::uint32_t dy = 0; dy < 2; ++dy) {
                        for (std::uint32_t dx = 0; dx < 2; ++dx) {
                            const float *s =
                                in_plane +
                                (2 * y + dy) * in_row +
                                static_cast<std::size_t>(2 * x + dx) *
                                    lanes;
                            for (std::uint32_t l = 0; l < lanes;
                                 ++l) {
                                if (s[l] > d[l])
                                    d[l] = s[l];
                            }
                        }
                    }
                }
            }
        }
    }
}

RANA_TRIAL_CLONES void
avgPoolTrialLanes(const float *__restrict in, float *__restrict out,
                  std::uint32_t batch,
                  std::uint32_t channels, std::uint32_t h,
                  std::uint32_t w, std::uint32_t lanes)
{
    const std::uint32_t r = h / 2;
    const std::uint32_t c = w / 2;
    const std::size_t in_row = static_cast<std::size_t>(w) * lanes;
    const std::size_t out_row = static_cast<std::size_t>(c) * lanes;
    for (std::uint32_t b = 0; b < batch; ++b) {
        for (std::uint32_t ch = 0; ch < channels; ++ch) {
            const float *in_plane =
                in + (static_cast<std::size_t>(b) * channels + ch) *
                         h * in_row;
            float *out_plane =
                out + (static_cast<std::size_t>(b) * channels + ch) *
                          r * out_row;
            for (std::uint32_t y = 0; y < r; ++y) {
                for (std::uint32_t x = 0; x < c; ++x) {
                    float *d = out_plane + y * out_row +
                               static_cast<std::size_t>(x) * lanes;
                    for (std::uint32_t l = 0; l < lanes; ++l)
                        d[l] = 0.0f;
                    // Summation order (dy, dx).
                    for (std::uint32_t dy = 0; dy < 2; ++dy) {
                        for (std::uint32_t dx = 0; dx < 2; ++dx) {
                            const float *s =
                                in_plane +
                                (2 * y + dy) * in_row +
                                static_cast<std::size_t>(2 * x + dx) *
                                    lanes;
                            for (std::uint32_t l = 0; l < lanes; ++l)
                                d[l] += s[l];
                        }
                    }
                    for (std::uint32_t l = 0; l < lanes; ++l)
                        d[l] *= 0.25f;
                }
            }
        }
    }
}

void
packLanePointers(const std::vector<const float *> &lane_ptrs,
                 std::size_t count, float *out)
{
    const auto lanes = static_cast<std::uint32_t>(lane_ptrs.size());
    for (std::size_t i = 0; i < count; ++i) {
        float *d = out + i * lanes;
        for (std::uint32_t l = 0; l < lanes; ++l)
            d[l] = lane_ptrs[l][i];
    }
}

} // namespace rana
