/**
 * @file
 * Lane-major kernels of the layer forward passes and of the training
 * convolution's backward.
 *
 * This translation unit is compiled at -O3 with -fno-trapping-math
 * and -ffp-contract=off (see the CMakeLists). -fno-trapping-math lets
 * gcc vectorize the quantizer's clamp (with trapping math it reports
 * "control flow in loop"); it changes no value, since nothing here
 * reads the FP exception flags. -ffp-contract=off is what keeps the
 * wide code exact: AVX2 and AVX-512 include FMA, and a fused
 * multiply-add rounds once where the 1-lane order rounds twice
 * (TrainKernels.NoFusedMultiplyAdd pins this for the code the host
 * runs; CI greps the whole object).
 *
 * The conv forward is one register-tile template (convolveTile):
 * MT output channels x XT output columns x L lanes of accumulators,
 * held as GCC vector-extension values, live in registers across the
 * whole (n, ky, kx) reduction, get their bias, every valid tap as a
 * multiply then an add, and one store. The interior columns run as
 * XT-column tiles (and one XT/2-column tile where that many are
 * left), the edge columns and the last leftover as 1-column tiles
 * with their own kx span. The tile's only per-ISA parameter is the
 * register budget (RegisterBudget: floats per vector register and
 * register count); tileShape sizes the tile from it so that the
 * accumulators fill at most half the register file. The template is
 * instantiated in three target functions — AVX-512 (with VL), AVX2
 * and baseline — and convolveTrialLanes picks the widest one the CPU
 * supports. Each accumulator still sees exactly the 1-lane sequence
 * of operations; the tile only decides which independent
 * accumulators are in flight together.
 *
 * The other hot kernels carry target_clones("default", "avx", "avx2",
 * "avx512f"): the loader picks the widest clone the CPU runs while
 * the binary stays runnable on baseline x86-64. Their lane count is
 * a template parameter for 16/8/4/2/1 lanes, the widths production
 * callers run (campaign trial blocks and serving request blocks are
 * padded to them, training minibatches split into them), so the
 * innermost lane loop has a compile-time trip count and turns into
 * straight-line vector code; other lane counts run with FixedL = 0,
 * which reads the count at run time: slower, but bit-identical.
 *
 * Every kernel keeps the 1-lane per-accumulator operation order —
 * vectorization only spans independent lanes, output positions and
 * output channels — so the results match bit for bit across lane
 * counts, clones and ISA instantiations. Every output a kernel
 * returns or fills is written in full
 * (TrainKernels.OutputsFullyWritten), so callers allocate it with
 * Tensor::uninitialized.
 */

#include "train/trial_batch.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/logging.hh"

namespace rana {

namespace {

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define RANA_X86_GCC 1
#define RANA_TRIAL_CLONES                                             \
    __attribute__((target_clones("default", "avx", "avx2", "avx512f")))
#else
#define RANA_X86_GCC 0
#define RANA_TRIAL_CLONES
#endif

/** A half-open index range [lo, hi); empty when lo >= hi. */
struct TapRange
{
    std::int64_t lo = 0;
    std::int64_t hi = 0;
};

/**
 * The outputs x in [lo, hi) of a `count`-wide output row whose tap at
 * offset `off` (= k - pad) lands inside an `extent`-wide input row:
 * 0 <= x*stride + off < extent.
 */
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

/** Operands and geometry of one convolveTrialLanes call. */
struct ConvCall
{
    const float *in;
    const float *wt;
    const float *bias;
    float *out;
    std::uint32_t batch;
    std::uint32_t inChannels;
    std::uint32_t h;
    std::uint32_t w;
    std::uint32_t outChannels;
    std::uint32_t r;
    std::uint32_t c;
    std::uint32_t kernel;
    std::uint32_t stride;
    std::uint32_t pad;
    std::uint32_t lanes;
};

/**
 * A vector of W floats (a GCC vector extension type); W = 1 is a
 * plain float. The tile functions below are always inlined into a
 * per-ISA entry point, so the vectors compile to that entry point's
 * registers.
 */
template <std::uint32_t W>
struct FloatVec
{
    typedef float type __attribute__((vector_size(W * sizeof(float))));
};

template <>
struct FloatVec<1>
{
    using type = float;
};

#define RANA_TILE_INLINE inline __attribute__((always_inline))
/** Full unrolling of the tile loops, so the tile arrays become registers. */
#define RANA_UNROLL _Pragma("GCC unroll 16")

/** Unaligned vector load and store (memcpy compiles to one move). */
template <typename Vec>
RANA_TILE_INLINE void
loadVec(Vec &v, const float *src)
{
    std::memcpy(&v, src, sizeof(Vec));
}

template <typename Vec>
RANA_TILE_INLINE void
storeVec(float *dst, const Vec &v)
{
    std::memcpy(dst, &v, sizeof(Vec));
}

/**
 * The vector register file a conv tile is sized for: the floats one
 * register holds and the number of registers.
 */
struct RegisterBudget
{
    std::uint32_t vectorFloats;
    std::uint32_t registers;
};

/** AVX-512 with VL: 32 registers at every width up to 16 floats. */
constexpr RegisterBudget kAvx512Budget{16, 32};
/** AVX2: 16 registers of 8 floats. */
constexpr RegisterBudget kAvx2Budget{8, 16};
/** Baseline x86-64 (SSE2), and any other target: 16 x 4 floats. */
constexpr RegisterBudget kBaselineBudget{4, 16};

/**
 * A register tile: `channels` output channels x `columns` output
 * columns x L lanes, each lane group held as L / width vectors of
 * `width` floats.
 */
struct TileShape
{
    std::uint32_t width;
    std::uint32_t channels;
    std::uint32_t columns;
};

/**
 * The tile an L-lane convolution runs on `budget`: up to 4 output
 * channels by up to 4 columns, with the accumulators taking at most
 * half the registers. The other half holds a tap's input vectors,
 * one weight vector and the product, so nothing spills. Each loaded
 * weight vector serves every column of the tile, each input vector
 * every channel, and the accumulators are at least 4 independent
 * chains, which hides the latency of the adds.
 */
constexpr TileShape
tileShape(RegisterBudget budget, std::uint32_t lanes)
{
    const std::uint32_t width = std::min(lanes, budget.vectorFloats);
    const std::uint32_t vectors = lanes / width;
    const std::uint32_t accumulators = budget.registers / 2;
    const std::uint32_t channels =
        std::clamp(accumulators / vectors, 1u, 4u);
    const std::uint32_t columns =
        std::clamp(accumulators / (channels * vectors), 1u, 4u);
    return {width, channels, columns};
}

/**
 * One register tile of one sample: output channels [m0, m0 + MT) x
 * columns [x0, x0 + XT) of output row y, over the taps ky in [ky_lo,
 * ky_hi) and kx in [kx_lo, kx_hi), which must be valid for every
 * column of the tile. Each accumulator gets its bias, then every
 * valid tap in (n, ky, kx) order, as a multiply then an add; it stays
 * in a register until the one store at the end.
 */
template <std::uint32_t L, std::uint32_t W, std::uint32_t MT,
          std::uint32_t XT>
RANA_TILE_INLINE void
convolveTile(const ConvCall &g, const float *__restrict in_b,
             float *__restrict out_b, std::uint32_t m0, std::uint32_t y,
             std::uint32_t x0, std::int64_t ky_lo, std::int64_t ky_hi,
             std::int64_t kx_lo, std::int64_t kx_hi)
{
    using Vec = typename FloatVec<W>::type;
    constexpr std::uint32_t V = L / W;
    const std::size_t taps = static_cast<std::size_t>(g.kernel) * g.kernel;
    const std::size_t wt_channel = g.inChannels * taps * L;
    const std::size_t in_plane = static_cast<std::size_t>(g.h) * g.w * L;
    const std::int64_t in_row = static_cast<std::int64_t>(g.w) * L;
    const std::int64_t base_y =
        static_cast<std::int64_t>(y) * g.stride - g.pad;
    // Each column's input offset at kx = 0; negative on a left edge,
    // where the valid kx start past it.
    std::int64_t col[XT];
    RANA_UNROLL
    for (std::uint32_t j = 0; j < XT; ++j)
        col[j] = (static_cast<std::int64_t>(x0 + j) * g.stride - g.pad) *
                 L;

    Vec acc[MT][XT][V];
    RANA_UNROLL
    for (std::uint32_t i = 0; i < MT; ++i)
        RANA_UNROLL
        for (std::uint32_t v = 0; v < V; ++v) {
            Vec b;
            loadVec(b, g.bias + (m0 + i) * L + v * W);
            RANA_UNROLL
            for (std::uint32_t j = 0; j < XT; ++j)
                acc[i][j][v] = b;
        }
    for (std::uint32_t n = 0; n < g.inChannels; ++n) {
        const float *in_n = in_b + n * in_plane;
        const float *wt_n =
            g.wt + (static_cast<std::size_t>(m0) * g.inChannels + n) *
                       taps * L;
        for (std::int64_t ky = ky_lo; ky < ky_hi; ++ky) {
            const float *row = in_n + (base_y + ky) * in_row;
            const float *wt_row = wt_n + ky * g.kernel * L;
            for (std::int64_t kx = kx_lo; kx < kx_hi; ++kx) {
                // The tap's input vectors stay in registers; each
                // weight vector is loaded once and used for every
                // column.
                const float *src = row + kx * L;
                Vec in_v[XT][V];
                RANA_UNROLL
                for (std::uint32_t j = 0; j < XT; ++j)
                    RANA_UNROLL
                    for (std::uint32_t v = 0; v < V; ++v)
                        loadVec(in_v[j][v], src + col[j] + v * W);
                RANA_UNROLL
                for (std::uint32_t i = 0; i < MT; ++i)
                    RANA_UNROLL
                    for (std::uint32_t v = 0; v < V; ++v) {
                        Vec wv;
                        loadVec(wv,
                                wt_row + i * wt_channel + kx * L + v * W);
                        RANA_UNROLL
                        for (std::uint32_t j = 0; j < XT; ++j)
                            acc[i][j][v] += in_v[j][v] * wv;
                    }
            }
        }
    }
    RANA_UNROLL
    for (std::uint32_t i = 0; i < MT; ++i)
        RANA_UNROLL
        for (std::uint32_t j = 0; j < XT; ++j)
            RANA_UNROLL
            for (std::uint32_t v = 0; v < V; ++v)
                storeVec(out_b +
                             ((static_cast<std::size_t>(m0 + i) * g.r +
                               y) * g.c +
                              x0 + j) * L +
                             v * W,
                         acc[i][j][v]);
}

/**
 * The interior output columns [lo, hi) of a row: those where every kx
 * lands inside the input row (x * stride >= pad and x * stride - pad
 * + K <= w). The columns before and after are edge columns.
 */
TapRange
interiorColumns(const ConvCall &g)
{
    const std::int64_t K = g.kernel;
    const std::int64_t S = g.stride;
    const std::int64_t P = g.pad;
    const std::int64_t C = g.c;
    const std::int64_t lo = std::min((P + S - 1) / S, C);
    return {lo, std::clamp(g.w + P >= K ? (g.w + P - K) / S + 1 : 0, lo, C)};
}

/**
 * The taps k in [lo, hi) of output `i` that land inside an
 * `extent`-wide input axis: 0 <= i*stride + k - pad < extent.
 */
TapRange
validTaps(const ConvCall &g, std::uint32_t i, std::uint32_t extent)
{
    const std::int64_t base = static_cast<std::int64_t>(i) * g.stride -
                              g.pad;
    return {std::max<std::int64_t>(0, -base),
            std::min<std::int64_t>(g.kernel, extent - base)};
}

/**
 * Output channels [m0, m0 + MT) of one sample, row by row: the valid
 * ky span once per row, the interior columns as XT-column tiles (and
 * one XT/2-column tile where that many are left), the edge columns
 * and the last interior leftover as 1-column tiles with their own kx
 * span.
 */
template <std::uint32_t L, std::uint32_t W, std::uint32_t MT,
          std::uint32_t XT>
RANA_TILE_INLINE void
convolveChannels(const ConvCall &g, const TapRange &interior,
                 const float *__restrict in_b, float *__restrict out_b,
                 std::uint32_t m0)
{
    for (std::uint32_t y = 0; y < g.r; ++y) {
        const TapRange ky = validTaps(g, y, g.h);
        auto column = [&](std::uint32_t x) __attribute__((always_inline)) {
            const TapRange kx = validTaps(g, x, g.w);
            convolveTile<L, W, MT, 1>(g, in_b, out_b, m0, y, x, ky.lo,
                                      ky.hi, kx.lo, kx.hi);
        };
        std::uint32_t x = 0;
        for (; x < interior.lo; ++x)
            column(x);
        for (; x + XT <= interior.hi; x += XT)
            convolveTile<L, W, MT, XT>(g, in_b, out_b, m0, y, x, ky.lo,
                                       ky.hi, 0, g.kernel);
        if constexpr (XT >= 4) {
            if (x + XT / 2 <= interior.hi) {
                convolveTile<L, W, MT, XT / 2>(g, in_b, out_b, m0, y, x,
                                               ky.lo, ky.hi, 0, g.kernel);
                x += XT / 2;
            }
        }
        for (; x < g.c; ++x)
            column(x);
    }
}

/** The whole convolution at L lanes, tiled for `Budget`. */
template <RegisterBudget Budget, std::uint32_t L>
RANA_TILE_INLINE void
convolveTiled(const ConvCall &g)
{
    constexpr TileShape tile = tileShape(Budget, L);
    const TapRange interior = interiorColumns(g);
    const std::size_t in_sample =
        static_cast<std::size_t>(g.inChannels) * g.h * g.w * L;
    const std::size_t out_sample =
        static_cast<std::size_t>(g.outChannels) * g.r * g.c * L;
    for (std::uint32_t b = 0; b < g.batch; ++b) {
        const float *in_b = g.in + b * in_sample;
        float *out_b = g.out + b * out_sample;
        std::uint32_t m = 0;
        for (; m + tile.channels <= g.outChannels; m += tile.channels)
            convolveChannels<L, tile.width, tile.channels, tile.columns>(
                g, interior, in_b, out_b, m);
        for (; m < g.outChannels; ++m)
            convolveChannels<L, tile.width, 1, tile.columns>(
                g, interior, in_b, out_b, m);
    }
}

/** The compile-time lane counts on one register budget. */
template <RegisterBudget Budget>
RANA_TILE_INLINE void
convolveFixedLanes(const ConvCall &g)
{
    switch (g.lanes) {
      case 16:
        return convolveTiled<Budget, 16>(g);
      case 8:
        return convolveTiled<Budget, 8>(g);
      case 4:
        return convolveTiled<Budget, 4>(g);
      case 2:
        return convolveTiled<Budget, 2>(g);
      default:
        return convolveTiled<Budget, 1>(g);
    }
}

#if RANA_X86_GCC
// AVX512VL lets the 8- and 4-lane tiles use all 32 registers too.
__attribute__((target("avx512f,avx512vl"))) void
convolveAvx512(const ConvCall &g)
{
    convolveFixedLanes<kAvx512Budget>(g);
}

__attribute__((target("avx2"))) void
convolveAvx2(const ConvCall &g)
{
    convolveFixedLanes<kAvx2Budget>(g);
}
#endif

void
convolveBaseline(const ConvCall &g)
{
    convolveFixedLanes<kBaselineBudget>(g);
}

/**
 * Any other lane count: the plain loop nest, one output element (all
 * lanes) at a time, accumulating in the output in the same order.
 */
RANA_TRIAL_CLONES void
convolveRuntimeLanes(const ConvCall &g)
{
    const std::size_t L = g.lanes;
    const std::size_t K = g.kernel;
    for (std::size_t b = 0; b < g.batch; ++b)
        for (std::size_t m = 0; m < g.outChannels; ++m)
            for (std::uint32_t y = 0; y < g.r; ++y) {
                const TapRange ky = validTaps(g, y, g.h);
                const std::int64_t base_y =
                    static_cast<std::int64_t>(y) * g.stride - g.pad;
                for (std::uint32_t x = 0; x < g.c; ++x) {
                    const TapRange kx = validTaps(g, x, g.w);
                    const std::int64_t base_x =
                        static_cast<std::int64_t>(x) * g.stride - g.pad;
                    float *__restrict o =
                        g.out +
                        (((b * g.outChannels + m) * g.r + y) * g.c + x) * L;
                    for (std::size_t l = 0; l < L; ++l)
                        o[l] = g.bias[m * L + l];
                    for (std::size_t n = 0; n < g.inChannels; ++n)
                        for (std::int64_t i = ky.lo; i < ky.hi; ++i)
                            for (std::int64_t j = kx.lo; j < kx.hi; ++j) {
                                const float *__restrict s =
                                    g.in + (((b * g.inChannels + n) * g.h +
                                             base_y + i) * g.w +
                                            base_x + j) * L;
                                const float *__restrict v =
                                    g.wt + (((m * g.inChannels + n) * K +
                                             i) * K + j) * L;
                                for (std::size_t l = 0; l < L; ++l)
                                    o[l] += s[l] * v[l];
                            }
                }
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

std::vector<LaneIsa>
hostLaneIsas()
{
    std::vector<LaneIsa> isas;
#if RANA_X86_GCC
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512vl"))
        isas.push_back(LaneIsa::Avx512);
    if (__builtin_cpu_supports("avx2"))
        isas.push_back(LaneIsa::Avx2);
#endif
    isas.push_back(LaneIsa::Baseline);
    return isas;
}

const char *
laneIsaName(LaneIsa isa)
{
    switch (isa) {
      case LaneIsa::Avx512:
        return "avx512";
      case LaneIsa::Avx2:
        return "avx2";
      case LaneIsa::Baseline:
        break;
    }
    return "baseline";
}

void
convolveTrialLanesOn(LaneIsa isa, const float *in, const float *wt,
                     const float *bias, float *out, std::uint32_t batch,
                     std::uint32_t in_channels, std::uint32_t h,
                     std::uint32_t w, std::uint32_t out_channels,
                     std::uint32_t r, std::uint32_t c,
                     std::uint32_t kernel, std::uint32_t stride,
                     std::uint32_t pad, std::uint32_t lanes)
{
    const ConvCall call{in, wt, bias, out, batch, in_channels, h, w,
                        out_channels, r, c, kernel, stride, pad, lanes};
    if (lanes > kMaxKernelLanes || kernelLanes(lanes) != lanes)
        return convolveRuntimeLanes(call);
    switch (isa) {
#if RANA_X86_GCC
      case LaneIsa::Avx512:
        return convolveAvx512(call);
      case LaneIsa::Avx2:
        return convolveAvx2(call);
#endif
      default:
        return convolveBaseline(call);
    }
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
    static const LaneIsa widest = hostLaneIsas().front();
    convolveTrialLanesOn(widest, in, wt, bias, out, batch, in_channels,
                         h, w, out_channels, r, c, kernel, stride, pad,
                         lanes);
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
