/**
 * @file
 * eDRAM retention-time distribution model (the paper's Figure 8,
 * after Kong et al., ITC 2008).
 *
 * The distribution maps a retention time t to the cumulative
 * fraction of cells whose retention time is at most t (the
 * "retention failure rate" when the refresh interval is t). The
 * paper quotes two anchor points for a 32KB buffer:
 *
 *   - the weakest cell appears at 45us with failure rate 3e-6
 *     (the conventional refresh interval), and
 *   - a 16x longer interval of 734us has failure rate 1e-5.
 *
 * Between and beyond the anchors the model interpolates linearly in
 * log-log space, with a tail steepening toward the bulk of the
 * distribution as in the measured data. Both directions of the
 * mapping are exposed: failure rate at a given interval (used when
 * grading a trained model), and the tolerable retention time for a
 * tolerable failure rate (used to program the refresh interval).
 */

#ifndef RANA_EDRAM_RETENTION_DISTRIBUTION_HH_
#define RANA_EDRAM_RETENTION_DISTRIBUTION_HH_

#include <cstddef>
#include <vector>

namespace rana {

/** One (retention time, cumulative failure rate) anchor point. */
struct RetentionPoint
{
    /** Retention time in seconds. */
    double retentionSeconds;
    /** Fraction of cells with retention time <= retentionSeconds. */
    double failureRate;
};

/**
 * Piecewise log-log cumulative retention-time distribution.
 */
class RetentionDistribution
{
  public:
    /** Build the paper's Figure-8 distribution. */
    static RetentionDistribution typical65nm();

    /**
     * Build from explicit anchors.
     *
     * @param points anchors sorted by retention time, with strictly
     *               increasing times and failure rates.
     */
    explicit RetentionDistribution(std::vector<RetentionPoint> points);

    /**
     * Cumulative failure rate at the given refresh interval
     * (fraction of cells that would fail if refreshed every
     * `interval_seconds`). Clamped to the anchor range.
     */
    double failureRateAt(double interval_seconds) const;

    /**
     * Tolerable retention time (refresh interval) for the given
     * tolerable failure rate; the inverse of failureRateAt().
     * A tolerable rate of 0 returns the conventional worst-case
     * interval (the weakest-cell anchor).
     */
    double retentionTimeFor(double tolerable_failure_rate) const;

    /**
     * Conventional refresh interval: the weakest cell's retention
     * time (45us in the paper).
     */
    double worstCaseRetention() const;

    /** The anchor points. */
    const std::vector<RetentionPoint> &points() const { return points_; }

  private:
    std::vector<RetentionPoint> points_;
};

} // namespace rana

#endif // RANA_EDRAM_RETENTION_DISTRIBUTION_HH_
