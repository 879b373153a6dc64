/**
 * @file
 * Implementation of the bit-error injector.
 */

#include "train/error_injection.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace rana {

namespace {

constexpr int wordBits = 16;

/** `word` with the failed bits of `mask` reading back `bits`. */
std::int16_t
failedWord(std::int16_t word, std::uint16_t mask, std::uint16_t bits)
{
    return static_cast<std::int16_t>(
        (static_cast<std::uint16_t>(word) & ~mask) | bits);
}

} // namespace

BitErrorInjector::BitErrorInjector(double failure_rate,
                                   std::uint64_t seed)
    : rate_(failure_rate), rng_(seed)
{
    RANA_ASSERT(failure_rate >= 0.0 && failure_rate <= 1.0,
                "failure rate must be a probability");
    // Probability that a 16-bit word has at least one failed bit.
    wordRate_ = 1.0 - std::pow(1.0 - rate_, wordBits);
}

void
BitErrorInjector::reseed(std::uint64_t seed)
{
    rng_.seed(seed);
}

std::int16_t
BitErrorInjector::corruptWord(std::int16_t word)
{
    auto bits = static_cast<std::uint16_t>(word);
    // A failed bit reads a uniformly random value, i.e. it flips
    // with probability 1/2.
    for (int b = 0; b < wordBits; ++b) {
        if (rng_.bernoulli(rate_)) {
            const std::uint16_t random_bit = rng_.next() & 1u;
            bits = static_cast<std::uint16_t>(
                (bits & ~(1u << b)) | (random_bit << b));
        }
    }
    return static_cast<std::int16_t>(bits);
}

std::uint64_t
BitErrorInjector::corruptTensor(Tensor &tensor,
                                const FixedPointFormat &format)
{
    return corruptStrided(tensor.data(), tensor.size(), 1, format);
}

template <typename Fail>
void
BitErrorInjector::draw(std::size_t count, Fail &&fail)
{
    if (rate_ <= 0.0)
        return;

    if (wordRate_ < 0.05) {
        // Sparse path: geometric jumps between affected words.
        const double log_keep = std::log1p(-wordRate_);
        std::size_t index = 0;
        for (;;) {
            const double u = 1.0 - rng_.uniform(); // (0, 1]
            const double jump = std::floor(std::log(u) / log_keep);
            if (jump >= static_cast<double>(count - index))
                break;
            index += static_cast<std::size_t>(jump);
            // Conditioned on >= 1 failure; approximate by failing
            // one uniformly chosen bit (multi-bit failures in one
            // word are negligible at sparse rates).
            const int bit =
                static_cast<int>(rng_.uniformInt(std::uint64_t{16}));
            const std::uint16_t random_bit = rng_.next() & 1u;
            fail(index, static_cast<std::uint16_t>(1u << bit),
                 static_cast<std::uint16_t>(random_bit << bit));
            ++index;
            if (index >= count)
                break;
        }
    } else {
        // Dense path: exact per-bit Bernoulli on every word.
        for (std::size_t i = 0; i < count; ++i) {
            std::uint16_t mask = 0;
            std::uint16_t bits = 0;
            for (int b = 0; b < wordBits; ++b) {
                if (rng_.bernoulli(rate_)) {
                    const std::uint16_t random_bit = rng_.next() & 1u;
                    mask = static_cast<std::uint16_t>(mask | (1u << b));
                    bits = static_cast<std::uint16_t>(bits |
                                                      (random_bit << b));
                }
            }
            fail(i, mask, bits);
        }
    }
}

std::uint64_t
BitErrorInjector::corruptStrided(float *data, std::size_t count,
                                 std::size_t stride,
                                 const FixedPointFormat &format)
{
    RANA_ASSERT(stride > 0, "stride must be positive");
    // A word counts as corrupted when any bit failed, even if the
    // random replacement happened to match the original value. The
    // dense path rewrites every word, quantized.
    std::uint64_t corrupted = 0;
    draw(count, [&](std::size_t i, std::uint16_t mask,
                    std::uint16_t bits) {
        float &slot = data[i * stride];
        slot = format.dequantize(
            failedWord(format.quantize(slot), mask, bits));
        corrupted += mask != 0 ? 1 : 0;
    });
    return corrupted;
}

std::vector<WordFailure>
BitErrorInjector::drawFailures(std::size_t count)
{
    RANA_ASSERT(count <= UINT32_MAX, "a drawn run indexes 32-bit words");
    std::vector<WordFailure> failures;
    draw(count, [&](std::size_t i, std::uint16_t mask,
                    std::uint16_t bits) {
        if (mask != 0)
            failures.push_back(
                {static_cast<std::uint32_t>(i), mask, bits});
    });
    return failures;
}

std::uint64_t
applyWordFailures(std::span<const WordFailure> failures,
                  std::size_t first, std::size_t count, float *data,
                  std::size_t stride, const FixedPointFormat &format)
{
    RANA_ASSERT(stride > 0, "stride must be positive");
    auto it = std::lower_bound(
        failures.begin(), failures.end(), first,
        [](const WordFailure &f, std::size_t i) { return f.index < i; });
    std::uint64_t corrupted = 0;
    for (; it != failures.end() && it->index < first + count; ++it) {
        // A quantized word round-trips exactly, so an unfailed word
        // needs no rewrite.
        float &slot = data[(it->index - first) * stride];
        slot = format.dequantize(
            failedWord(format.quantize(slot), it->mask, it->bits));
        ++corrupted;
    }
    return corrupted;
}

} // namespace rana
