/**
 * @file
 * Bit-level retention-error injection (Section IV-B, Figure 9).
 *
 * The training mask models eDRAM retention failures: each bit of
 * each stored 16-bit word independently fails at rate r; a failed
 * bit reads back a random value (0 or 1 with equal probability), so
 * half of the injected failures are benign. The injector corrupts a
 * tensor by quantizing it to the hardware's fixed-point format,
 * flipping bits of the stored words, and dequantizing back.
 *
 * For small rates the injector skips between affected words with a
 * geometric jump instead of testing every bit, keeping injection
 * cheap at the 1e-5 operating point.
 *
 * Injection is one path in two steps: drawFailures draws the
 * failures of a run of words, and applyWordFailures applies those
 * that fall in a window of it. The draws depend only on counts: the
 * RNG is consumed as a function of the word count and the rate,
 * never of the stored values or where they sit. So applying a run's
 * failures window by window, at any stride, equals applying them to
 * the whole run at once. Every lane draws each operand's failures
 * once over its whole run and applies them by window: a training or
 * evaluation forward as one window over its run, and a scored lane
 * block (train/lane_scorer.hh) sample by sample, from draws made
 * before any forward (DrawnFailures in train/layer.hh).
 */

#ifndef RANA_TRAIN_ERROR_INJECTION_HH_
#define RANA_TRAIN_ERROR_INJECTION_HH_

#include <cstdint>
#include <span>
#include <vector>

#include "train/fixed_point.hh"
#include "train/tensor.hh"
#include "util/random.hh"

namespace rana {

/**
 * One word's drawn retention failure: the bits that failed and the
 * values they read back (bits outside `mask` are 0).
 */
struct WordFailure
{
    /** Logical word index within the drawn run. */
    std::uint32_t index = 0;
    /** Failed bits. */
    std::uint16_t mask = 0;
    /** What the failed bits read back. */
    std::uint16_t bits = 0;
};

/** Injects bit-level retention errors into 16-bit words. */
class BitErrorInjector
{
  public:
    /**
     * @param failure_rate per-bit retention failure rate r in [0, 1]
     * @param seed         RNG seed (injection is deterministic per
     *                     seed for reproducible experiments)
     */
    BitErrorInjector(double failure_rate, std::uint64_t seed);

    /** Per-bit failure rate. */
    double failureRate() const { return rate_; }

    /**
     * Corrupt a tensor in place: draw the failures of its words and
     * apply them (drawFailures, then applyWordFailures over the whole
     * tensor at stride 1). A failed word is quantized to `format`,
     * has its failed bits replaced and is dequantized back; an
     * unfailed word is left as it is.
     * @pre the tensor is quantized to `format`, as a forward's
     * operands are
     * @return the number of words that had at least one failed bit.
     */
    std::uint64_t corruptTensor(Tensor &tensor,
                                const FixedPointFormat &format);

    /**
     * Draw the failures of `count` logical words without touching
     * any data, in increasing word order. Only words with a failed
     * bit are listed. The RNG consumption depends only on `count` and
     * the rate.
     * @pre count < 2^32
     */
    std::vector<WordFailure> drawFailures(std::size_t count);

    /** Reseed the injector. */
    void reseed(std::uint64_t seed);

  private:
    double rate_;
    double wordRate_;
    Rng rng_;
};

/**
 * Apply those of `failures` (drawFailures order) whose index falls in
 * [first, first + count) to the `count` words stored `stride` floats
 * apart from `data`: word first + i sits at data[i * stride]. The
 * words must already be quantized to `format`, as a forward's
 * operands are, so an unfailed word needs no rewrite; then applying
 * a run's failures window by window equals applying them to the
 * whole run at once.
 * @return the number of words that had at least one failed bit.
 */
std::uint64_t applyWordFailures(std::span<const WordFailure> failures,
                                std::size_t first, std::size_t count,
                                float *data, std::size_t stride,
                                const FixedPointFormat &format);

} // namespace rana

#endif // RANA_TRAIN_ERROR_INJECTION_HH_
