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
 * The draws depend only on counts: both paths consume the RNG as a
 * function of the word count and the rate, never of the stored
 * values or where they sit. So a run of words can be drawn once
 * (drawFailures) and its failures applied to any window of it later
 * (applyWordFailures), with the same result as corrupting the whole
 * run in place. A lane block forwarded in sample tiles relies on it:
 * the first tile draws each lane's failures over all of the lane's
 * samples, and every tile applies those in its sample window (see
 * SampleTiles in train/layer.hh).
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

    /** Corrupt one 16-bit word. */
    std::int16_t corruptWord(std::int16_t word);

    /**
     * Corrupt a tensor in place: quantize to `format`, inject bit
     * errors into the stored words, dequantize back.
     * @return the number of words that had at least one failed bit.
     */
    std::uint64_t corruptTensor(Tensor &tensor,
                                const FixedPointFormat &format);

    /**
     * Corrupt `count` logical words stored `stride` floats apart,
     * starting at `data`. The RNG consumption depends only on
     * `count` and the rate, never on the stride, so corrupting one
     * lane of a lane-major trial batch (stride = lane count) draws
     * exactly the same error pattern as corrupting the contiguous
     * scalar tensor — the batched campaign path stays bit-identical
     * to the per-trial reference. corruptTensor is the stride-1
     * special case.
     * @return the number of words that had at least one failed bit.
     */
    std::uint64_t corruptStrided(float *data, std::size_t count,
                                 std::size_t stride,
                                 const FixedPointFormat &format);

    /**
     * Draw the failures of `count` logical words without touching
     * any data: the RNG consumption and failures of corruptStrided
     * over `count` words, in increasing word order. Only words with
     * a failed bit are listed.
     * @pre count < 2^32
     */
    std::vector<WordFailure> drawFailures(std::size_t count);

    /** Reseed the injector. */
    void reseed(std::uint64_t seed);

  private:
    /**
     * The one draw loop: call `fail(i, mask, bits)` for the words of
     * a `count`-word run in increasing order — on the sparse path
     * only for failed words, on the dense path for every word (mask
     * 0: none of its bits failed).
     */
    template <typename Fail>
    void draw(std::size_t count, Fail &&fail);

    double rate_;
    double wordRate_;
    Rng rng_;
};

/**
 * Apply those of `failures` (drawFailures order) whose index falls in
 * [first, first + count) to the `count` words stored `stride` floats
 * apart from `data`: word first + i sits at data[i * stride]. The
 * words must already be quantized to `format`, as a forward's
 * operands are; then applying a run's failures window by window
 * equals corruptStrided over the whole run with the injector that
 * drew them.
 * @return the number of words that had at least one failed bit.
 */
std::uint64_t applyWordFailures(std::span<const WordFailure> failures,
                                std::size_t first, std::size_t count,
                                float *data, std::size_t stride,
                                const FixedPointFormat &format);

} // namespace rana

#endif // RANA_TRAIN_ERROR_INJECTION_HH_
