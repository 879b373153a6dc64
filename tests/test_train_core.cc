/**
 * @file
 * Unit tests for the training substrate: tensors, fixed point,
 * error injection, loss and the synthetic dataset.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "train/dataset.hh"
#include "train/error_injection.hh"
#include "train/fixed_point.hh"
#include "train/loss.hh"
#include "train/tensor.hh"
#include "train/trial_batch.hh"

namespace rana {
namespace {

TEST(TensorTest, ShapeAndAccess)
{
    Tensor t({2, 3, 4, 5});
    EXPECT_EQ(t.size(), 2u * 3 * 4 * 5);
    EXPECT_EQ(t.dim(2), 4u);
    t.at4(1, 2, 3, 4) = 7.0f;
    EXPECT_FLOAT_EQ(t.at4(1, 2, 3, 4), 7.0f);
    EXPECT_FLOAT_EQ(t[t.size() - 1], 7.0f);
}

TEST(TensorTest, FillAndReshape)
{
    Tensor t({2, 6});
    t.fill(3.0f);
    const Tensor r = t.reshaped({3, 4});
    EXPECT_EQ(r.dim(0), 3u);
    EXPECT_FLOAT_EQ(r.at2(2, 3), 3.0f);
    EXPECT_EQ(t.describeShape(), "{2,6}");
}

/**
 * Allocate `count` NaN floats and free them again: the allocator
 * usually hands that block to the next allocation of the same size,
 * so a tensor that should be zero-filled but is not shows NaN.
 */
void
poisonNextAllocation(std::size_t count)
{
    std::vector<float> poison(count,
                              std::numeric_limits<float>::quiet_NaN());
    // Keep the fill: the block must really hold NaN when freed.
    asm volatile("" : : "r"(poison.data()) : "memory");
}

TEST(TensorTest, ShapeConstructorZeroFills)
{
    // Kernel outputs come from Tensor::uninitialized; a tensor built
    // from a shape stays all zeros, which accumulating callers need.
    const std::vector<std::uint32_t> shape = {3, 5, 7};
    poisonNextAllocation(3 * 5 * 7);
    const Tensor t(shape);
    ASSERT_EQ(t.size(), 3u * 5 * 7);
    const float zero = 0.0f;
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(std::memcmp(t.data() + i, &zero, sizeof(zero)), 0) << i;
    const Tensor u = Tensor::uninitialized(shape);
    EXPECT_EQ(u.shape(), shape);
    EXPECT_EQ(u.size(), t.size());
}

TEST(TensorTest, ReshapedRvalueKeepsData)
{
    Tensor t({2, 6});
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i] = static_cast<float>(i) + 0.5f;
    const float *storage = t.data();
    // An lvalue is copied and left as it was.
    const Tensor copy = t.reshaped({4, 3});
    EXPECT_EQ(t.shape(), (std::vector<std::uint32_t>{2, 6}));
    EXPECT_NE(copy.data(), storage);
    // An rvalue hands over its storage.
    const Tensor moved = std::move(t).reshaped({3, 4});
    EXPECT_EQ(moved.data(), storage);
    EXPECT_EQ(moved.shape(), (std::vector<std::uint32_t>{3, 4}));
    EXPECT_EQ(copy.shape(), (std::vector<std::uint32_t>{4, 3}));
    for (std::size_t i = 0; i < moved.size(); ++i) {
        EXPECT_EQ(moved[i], static_cast<float>(i) + 0.5f);
        EXPECT_EQ(copy[i], static_cast<float>(i) + 0.5f);
    }
}

TEST(FixedPoint, RoundTripRepresentable)
{
    const FixedPointFormat format{12};
    EXPECT_FLOAT_EQ(format.roundTrip(1.0f), 1.0f);
    EXPECT_FLOAT_EQ(format.roundTrip(-2.5f), -2.5f);
    EXPECT_FLOAT_EQ(format.dequantize(format.quantize(0.0f)), 0.0f);
}

TEST(FixedPoint, QuantizationStep)
{
    const FixedPointFormat format{12};
    EXPECT_DOUBLE_EQ(format.scale(), 4096.0);
    const float step = 1.0f / 4096.0f;
    EXPECT_NEAR(format.roundTrip(step * 0.6f), step, 1e-9);
}

TEST(FixedPoint, Saturation)
{
    const FixedPointFormat format{12};
    EXPECT_NEAR(format.roundTrip(100.0f), format.maxValue(), 1e-3);
    EXPECT_NEAR(format.roundTrip(-100.0f), format.minValue(), 1e-3);
}

TEST(FixedPoint, TensorQuantization)
{
    const FixedPointFormat format{12};
    Tensor t({4});
    t[0] = 0.123456f;
    t[1] = -1.5f;
    t[2] = 99.0f;
    t[3] = 0.0f;
    quantizeTensor(t, format);
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_FLOAT_EQ(t[i], format.roundTrip(t[i]));
    EXPECT_NEAR(t[2], format.maxValue(), 1e-3);
}

/** The float with bit pattern `bits`. */
float
fromBits(std::uint32_t bits)
{
    float value = 0.0f;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

TEST(FixedPoint, SpanMatchesRoundTrip)
{
    // quantizeTensor delegates to the vectorized quantizeTrialSpan;
    // it must give roundTrip's exact bits, zero signs included. NaN is
    // left out: roundTrip casts the NaN to int16, which is undefined
    // behaviour, so there is no reference result to match.
    std::vector<float> values;
    for (std::uint64_t bits = 0; bits <= 0xffffffffULL; bits += 4099) {
        const float v = fromBits(static_cast<std::uint32_t>(bits));
        if (!std::isnan(v))
            values.push_back(v);
    }
    const float inf = std::numeric_limits<float>::infinity();
    const float denorm = std::numeric_limits<float>::denorm_min();
    const float tiny = std::numeric_limits<float>::min();
    for (float v : {0.0f, inf, denorm, tiny, tiny / 2.0f,
                    std::numeric_limits<float>::max()}) {
        values.push_back(v);
        values.push_back(-v);
    }
    for (std::uint32_t frac_bits : {0u, 8u, 12u, 15u}) {
        const FixedPointFormat format{frac_bits};
        std::vector<float> cases = values;
        const double step = 1.0 / format.scale();
        for (double k : {0.0, 1.0, 2.0, 3.0, 1000.0, 32766.0, 32767.0,
                         32768.0, 32769.0}) {
            // Half-steps (ties round away from zero), their float
            // neighbours, and the saturation boundaries.
            for (double sign : {1.0, -1.0}) {
                const auto half =
                    static_cast<float>(sign * (k + 0.5) * step);
                const auto whole = static_cast<float>(sign * k * step);
                for (float v : {half, whole}) {
                    cases.push_back(v);
                    cases.push_back(std::nextafter(v, inf));
                    cases.push_back(std::nextafter(v, -inf));
                }
            }
        }
        std::vector<float> span = cases;
        quantizeTrialSpan(span.data(), span.size(), format);
        Tensor tensor({static_cast<std::uint32_t>(cases.size())});
        std::memcpy(tensor.data(), cases.data(),
                    cases.size() * sizeof(float));
        quantizeTensor(tensor, format);
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < cases.size(); ++i) {
            const float want = format.roundTrip(cases[i]);
            if (std::memcmp(&span[i], &want, sizeof(want)) != 0 ||
                std::memcmp(&tensor[i], &want, sizeof(want)) != 0) {
                if (++mismatches <= 5) {
                    ADD_FAILURE() << "fracBits " << frac_bits
                                  << ": input " << cases[i]
                                  << " span " << span[i] << " tensor "
                                  << tensor[i] << " roundTrip "
                                  << want;
                }
            }
        }
        EXPECT_EQ(mismatches, 0u) << "fracBits " << frac_bits;
    }
}

TEST(ErrorInjection, ZeroRateIsIdentity)
{
    BitErrorInjector injector(0.0, 1);
    Tensor t({100});
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i] = 0.5f;
    EXPECT_EQ(injector.corruptTensor(t, FixedPointFormat{12}), 0u);
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_FLOAT_EQ(t[i], 0.5f);
}

TEST(ErrorInjection, DeterministicPerSeed)
{
    const FixedPointFormat format{12};
    Tensor a({1000});
    Tensor b({1000});
    for (std::size_t i = 0; i < a.size(); ++i)
        a[i] = b[i] = 0.25f;
    BitErrorInjector inj_a(1e-3, 42);
    BitErrorInjector inj_b(1e-3, 42);
    inj_a.corruptTensor(a, format);
    inj_b.corruptTensor(b, format);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_FLOAT_EQ(a[i], b[i]);
}

/** Statistical check of the corruption rate across sparse/dense. */
class InjectionRate : public ::testing::TestWithParam<double>
{
};

TEST_P(InjectionRate, MatchesExpectation)
{
    const double rate = GetParam();
    const FixedPointFormat format{12};
    const std::size_t words = 200000;
    Tensor t({static_cast<std::uint32_t>(words)});
    t.fill(0.5f);
    BitErrorInjector injector(rate, 123);
    const std::uint64_t corrupted = injector.corruptTensor(t, format);
    const double word_rate = 1.0 - std::pow(1.0 - rate, 16);
    const double expected = word_rate * static_cast<double>(words);
    // Five-sigma statistical bound.
    const double sigma = std::sqrt(expected);
    EXPECT_NEAR(static_cast<double>(corrupted), expected,
                5.0 * sigma + 3.0);
}

INSTANTIATE_TEST_SUITE_P(Rates, InjectionRate,
                         ::testing::Values(1e-5, 1e-4, 1e-3, 1e-2,
                                           1e-1));

TEST(ErrorInjection, CorruptedValuesStayRepresentable)
{
    const FixedPointFormat format{12};
    Tensor t({10000});
    t.fill(1.0f);
    BitErrorInjector injector(1e-2, 7);
    injector.corruptTensor(t, format);
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_GE(t[i], format.minValue() - 1e-9);
        EXPECT_LE(t[i], format.maxValue() + 1e-9);
    }
}

TEST(ErrorInjection, HalfOfFailedBitsAreBenign)
{
    // At r = 1 every bit of every word fails and reads back a random
    // value: each drawn failure covers the whole word, and about half
    // of the failed bits read back what an all-zero word held.
    BitErrorInjector injector(1.0, 5);
    const std::size_t words = 2000;
    const std::vector<WordFailure> failures = injector.drawFailures(words);
    ASSERT_EQ(failures.size(), words);
    int set_bits = 0;
    for (const WordFailure &failure : failures) {
        EXPECT_EQ(failure.mask, 0xFFFFu);
        set_bits += __builtin_popcount(failure.bits);
    }
    // Expect ~8 of 16 bits set per word.
    EXPECT_NEAR(static_cast<double>(set_bits) / words, 8.0, 0.3);
}

TEST(ErrorInjection, WindowedApplyMatchesWholeRun)
{
    // One lane of a lane-major buffer, its run applied over uneven
    // windows, equals corruptTensor on a contiguous copy drawn from
    // the same seed. One window is empty, and two windows start at a
    // failed word, so the window bounds are checked on both sides.
    const FixedPointFormat format{12};
    const std::size_t words = 20000;
    const std::size_t lanes = 3;
    const std::size_t lane = 1;
    Tensor run({static_cast<std::uint32_t>(words)});
    for (std::size_t i = 0; i < words; ++i)
        run[i] =
            static_cast<float>(static_cast<int>(i * 37 % 401) - 200) / 64;
    quantizeTensor(run, format);
    for (const double rate : {1e-4, 1e-2}) {
        Tensor whole = run;
        BitErrorInjector whole_injector(rate, 21);
        const std::uint64_t whole_count =
            whole_injector.corruptTensor(whole, format);

        BitErrorInjector injector(rate, 21);
        const std::vector<WordFailure> failures =
            injector.drawFailures(words);
        ASSERT_GE(failures.size(), 3u) << "rate " << rate;
        const std::size_t mid = failures[failures.size() / 2].index;
        const std::size_t last = failures.back().index;
        const std::size_t cuts[] = {0, 1, 777, mid, mid, mid + 1, last, words};
        ASSERT_TRUE(std::is_sorted(std::begin(cuts), std::end(cuts)))
            << "rate " << rate;

        std::vector<float> strided(words * lanes, 0.5f);
        for (std::size_t i = 0; i < words; ++i)
            strided[i * lanes + lane] = run[i];
        std::uint64_t windowed_count = 0;
        for (std::size_t w = 0; w + 1 < std::size(cuts); ++w)
            windowed_count += applyWordFailures(
                failures, cuts[w], cuts[w + 1] - cuts[w],
                strided.data() + cuts[w] * lanes + lane, lanes, format);
        EXPECT_EQ(windowed_count, whole_count) << "rate " << rate;
        for (std::size_t i = 0; i < words; ++i) {
            ASSERT_EQ(std::memcmp(&strided[i * lanes + lane], &whole[i],
                                  sizeof(float)),
                      0)
                << "rate " << rate << " word " << i;
            for (std::size_t other = 0; other < lanes; ++other) {
                if (other == lane)
                    continue;
                ASSERT_EQ(strided[i * lanes + other], 0.5f)
                    << "rate " << rate << " word " << i;
            }
        }
    }
}

TEST(Loss, SoftmaxCrossEntropyHandComputed)
{
    Tensor logits({1, 2});
    logits.at2(0, 0) = 0.0f;
    logits.at2(0, 1) = 0.0f;
    const LossResult result = softmaxCrossEntropy(logits, {1});
    EXPECT_NEAR(result.loss, std::log(2.0), 1e-6);
    EXPECT_NEAR(result.gradLogits.at2(0, 0), 0.5, 1e-6);
    EXPECT_NEAR(result.gradLogits.at2(0, 1), -0.5, 1e-6);
}

TEST(Loss, GradientSumsToZero)
{
    Tensor logits({3, 5});
    Rng rng(3);
    for (std::size_t i = 0; i < logits.size(); ++i)
        logits[i] = static_cast<float>(rng.normal());
    const LossResult result =
        softmaxCrossEntropy(logits, {0, 2, 4});
    for (std::uint32_t b = 0; b < 3; ++b) {
        double sum = 0.0;
        for (std::uint32_t c = 0; c < 5; ++c)
            sum += result.gradLogits.at2(b, c);
        EXPECT_NEAR(sum, 0.0, 1e-6);
    }
}

TEST(Loss, CorrectCounting)
{
    Tensor logits({2, 3});
    logits.at2(0, 2) = 5.0f;
    logits.at2(1, 0) = 5.0f;
    const LossResult result = softmaxCrossEntropy(logits, {2, 1});
    EXPECT_EQ(result.correct, 1u);
    const auto preds = argmaxRows(logits);
    EXPECT_EQ(preds[0], 2u);
    EXPECT_EQ(preds[1], 0u);
}

TEST(Dataset, ShapesAndLabels)
{
    DatasetConfig config;
    config.trainSamples = 64;
    config.testSamples = 32;
    SyntheticDataset dataset(config);
    const Batch batch = dataset.trainBatch(0, 16);
    EXPECT_EQ(batch.images.dim(0), 16u);
    EXPECT_EQ(batch.images.dim(1), config.channels);
    EXPECT_EQ(batch.images.dim(2), config.imageSize);
    EXPECT_EQ(batch.labels.size(), 16u);
    for (std::uint32_t label : batch.labels)
        EXPECT_LT(label, config.numClasses);
    const Batch test = dataset.testBatch();
    EXPECT_EQ(test.images.dim(0), 32u);
}

TEST(Dataset, ClassesAreBalanced)
{
    DatasetConfig config;
    config.trainSamples = 160;
    config.testSamples = 80;
    config.numClasses = 8;
    SyntheticDataset dataset(config);
    std::vector<int> histogram(config.numClasses, 0);
    const Batch batch = dataset.trainBatch(0, 160);
    for (std::uint32_t label : batch.labels)
        ++histogram[label];
    for (int count : histogram)
        EXPECT_EQ(count, 20);
}

TEST(Dataset, DeterministicPerSeed)
{
    DatasetConfig config;
    config.trainSamples = 32;
    config.testSamples = 16;
    SyntheticDataset a(config);
    SyntheticDataset b(config);
    const Batch ba = a.trainBatch(0, 8);
    const Batch bb = b.trainBatch(0, 8);
    for (std::size_t i = 0; i < ba.images.size(); ++i)
        EXPECT_FLOAT_EQ(ba.images[i], bb.images[i]);
}

TEST(Dataset, ShuffleChangesOrder)
{
    DatasetConfig config;
    config.trainSamples = 256;
    config.testSamples = 16;
    SyntheticDataset dataset(config);
    const Batch before = dataset.trainBatch(0, 32);
    Rng rng(77);
    dataset.shuffleTrain(rng);
    const Batch after = dataset.trainBatch(0, 32);
    bool differs = false;
    for (std::size_t i = 0; i < before.labels.size(); ++i)
        differs |= before.labels[i] != after.labels[i];
    EXPECT_TRUE(differs);
}

} // namespace
} // namespace rana
