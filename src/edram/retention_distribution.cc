/**
 * @file
 * Implementation of the retention-time distribution.
 */

#include "edram/retention_distribution.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/units.hh"

namespace rana {

namespace {

/** Linear interpolation of y over x in log-log space. */
double
loglogInterp(double x, double x0, double y0, double x1, double y1)
{
    const double lx = std::log(x);
    const double lx0 = std::log(x0);
    const double lx1 = std::log(x1);
    const double ly0 = std::log(y0);
    const double ly1 = std::log(y1);
    const double t = (lx - lx0) / (lx1 - lx0);
    return std::exp(ly0 + t * (ly1 - ly0));
}

} // namespace

RetentionDistribution
RetentionDistribution::typical65nm()
{
    // The first two anchors are quoted in the paper (45us @ 3e-6,
    // 734us @ 1e-5); the remainder extend the curve toward the bulk
    // of the cells with the steepening log-log shape of the measured
    // distribution in Kong et al.
    return RetentionDistribution({
        {45.0 * microSecond, 3e-6},
        {734.0 * microSecond, 1e-5},
        {2.0 * milliSecond, 1e-4},
        {4.5 * milliSecond, 1e-3},
        {9.0 * milliSecond, 1e-2},
        {18.0 * milliSecond, 1e-1},
        {45.0 * milliSecond, 0.9},
    });
}

RetentionDistribution::RetentionDistribution(
    std::vector<RetentionPoint> points)
    : points_(std::move(points))
{
    RANA_ASSERT(points_.size() >= 2,
                "retention distribution needs at least two anchors");
    for (std::size_t i = 0; i < points_.size(); ++i) {
        RANA_ASSERT(points_[i].retentionSeconds > 0.0 &&
                    points_[i].failureRate > 0.0,
                    "retention anchors must be positive");
        if (i > 0) {
            RANA_ASSERT(points_[i].retentionSeconds >
                        points_[i - 1].retentionSeconds,
                        "retention times must be strictly increasing");
            RANA_ASSERT(points_[i].failureRate >
                        points_[i - 1].failureRate,
                        "failure rates must be strictly increasing");
        }
    }
}

double
RetentionDistribution::failureRateAt(double interval_seconds) const
{
    if (interval_seconds <= points_.front().retentionSeconds)
        return points_.front().failureRate;
    if (interval_seconds >= points_.back().retentionSeconds)
        return points_.back().failureRate;
    for (std::size_t i = 1; i < points_.size(); ++i) {
        if (interval_seconds <= points_[i].retentionSeconds) {
            return loglogInterp(interval_seconds,
                                points_[i - 1].retentionSeconds,
                                points_[i - 1].failureRate,
                                points_[i].retentionSeconds,
                                points_[i].failureRate);
        }
    }
    panic("unreachable in failureRateAt");
}

double
RetentionDistribution::retentionTimeFor(
    double tolerable_failure_rate) const
{
    if (tolerable_failure_rate <= points_.front().failureRate)
        return points_.front().retentionSeconds;
    if (tolerable_failure_rate >= points_.back().failureRate)
        return points_.back().retentionSeconds;
    for (std::size_t i = 1; i < points_.size(); ++i) {
        if (tolerable_failure_rate <= points_[i].failureRate) {
            return loglogInterp(tolerable_failure_rate,
                                points_[i - 1].failureRate,
                                points_[i - 1].retentionSeconds,
                                points_[i].failureRate,
                                points_[i].retentionSeconds);
        }
    }
    panic("unreachable in retentionTimeFor");
}

double
RetentionDistribution::worstCaseRetention() const
{
    return points_.front().retentionSeconds;
}

} // namespace rana
