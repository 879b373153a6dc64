/**
 * @file
 * Unit and property tests for the eDRAM retention-time distribution
 * (Figure 8).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "edram/retention_distribution.hh"
#include "util/units.hh"

namespace rana {
namespace {

TEST(Retention, PaperAnchors)
{
    const auto dist = RetentionDistribution::typical65nm();
    // Weakest cell: 45us at 3e-6.
    EXPECT_NEAR(dist.worstCaseRetention(), 45e-6, 1e-9);
    EXPECT_NEAR(dist.failureRateAt(45e-6), 3e-6, 1e-9);
    // 16x interval: 734us at 1e-5.
    EXPECT_NEAR(dist.failureRateAt(734e-6), 1e-5, 1e-8);
    EXPECT_NEAR(dist.retentionTimeFor(1e-5), 734e-6, 1e-7);
}

TEST(Retention, ZeroFailureRateIsWorstCase)
{
    const auto dist = RetentionDistribution::typical65nm();
    EXPECT_NEAR(dist.retentionTimeFor(0.0), 45e-6, 1e-9);
}

TEST(Retention, MonotoneFailureRate)
{
    const auto dist = RetentionDistribution::typical65nm();
    double previous = 0.0;
    for (double t = 30e-6; t < 0.1; t *= 1.3) {
        const double rate = dist.failureRateAt(t);
        EXPECT_GE(rate, previous);
        previous = rate;
    }
}

TEST(Retention, ClampsOutsideAnchors)
{
    const auto dist = RetentionDistribution::typical65nm();
    EXPECT_DOUBLE_EQ(dist.failureRateAt(1e-9),
                     dist.points().front().failureRate);
    EXPECT_DOUBLE_EQ(dist.failureRateAt(10.0),
                     dist.points().back().failureRate);
    EXPECT_DOUBLE_EQ(dist.retentionTimeFor(1.0),
                     dist.points().back().retentionSeconds);
}

/** Round-trip property over a ladder of failure rates. */
class RetentionRoundTrip : public ::testing::TestWithParam<double>
{
};

TEST_P(RetentionRoundTrip, InverseConsistency)
{
    const auto dist = RetentionDistribution::typical65nm();
    const double rate = GetParam();
    const double time = dist.retentionTimeFor(rate);
    EXPECT_NEAR(dist.failureRateAt(time), rate, rate * 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Ladder, RetentionRoundTrip,
                         ::testing::Values(3e-6, 5e-6, 1e-5, 5e-5,
                                           1e-4, 1e-3, 1e-2, 1e-1));

TEST(Retention, LongerToleranceForHigherRates)
{
    const auto dist = RetentionDistribution::typical65nm();
    EXPECT_GT(dist.retentionTimeFor(1e-4),
              dist.retentionTimeFor(1e-5));
    EXPECT_GT(dist.retentionTimeFor(1e-5), 45e-6);
}

TEST(RetentionDeathTest, CustomAnchorsValidated)
{
    EXPECT_NO_THROW(RetentionDistribution(
        {{1e-5, 1e-6}, {1e-3, 1e-2}}));
    EXPECT_DEATH(RetentionDistribution({{1e-5, 1e-6}}), "two anchors");
    EXPECT_DEATH(RetentionDistribution(
                     {{1e-3, 1e-6}, {1e-5, 1e-2}}),
                 "increasing");
}

TEST(Retention, InterpolationIsLogLog)
{
    // Between two anchors a decade apart in both axes the midpoint
    // in log-time must land at the midpoint in log-rate.
    const RetentionDistribution dist({{1e-4, 1e-6}, {1e-2, 1e-4}});
    const double mid_time = 1e-3;
    EXPECT_NEAR(dist.failureRateAt(mid_time), 1e-5, 1e-8);
}

} // namespace
} // namespace rana
