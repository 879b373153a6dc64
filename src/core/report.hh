/**
 * @file
 * Headline-statistic computation over a grid of design results.
 *
 * The paper's Section V-B1 quotes a set of summary percentages
 * (off-chip access saved, refresh operations removed, total system
 * energy saved, ...). ResultGrid computes them from a designs x
 * networks result grid: the Figure 15 and Figure 19 harnesses print
 * them from it, and tests/test_report.cc pins each one to the band
 * the paper establishes. The markdown helpers below render the
 * robustness layer's reliability and guard-policy reports.
 */

#ifndef RANA_CORE_REPORT_HH_
#define RANA_CORE_REPORT_HH_

#include <string>
#include <vector>

#include "core/experiments.hh"

namespace rana {

/** A designs x networks grid of evaluation results. */
class ResultGrid
{
  public:
    /**
     * Evaluate every design on every network.
     */
    ResultGrid(const std::vector<DesignPoint> &designs,
               const std::vector<NetworkModel> &networks);

    std::size_t numDesigns() const { return results_.size(); }
    std::size_t numNetworks() const
    {
        return results_.empty() ? 0 : results_.front().size();
    }

    /** Result of design d on network n. */
    const DesignResult &at(std::size_t design,
                           std::size_t network) const;

    /** Total energy of design d on network n, normalized to design
     *  `baseline` on the same network. */
    double normalizedEnergy(std::size_t design, std::size_t network,
                            std::size_t baseline = 0) const;

    /** Geometric mean of normalizedEnergy across networks. */
    double normalizedEnergyGmean(std::size_t design,
                                 std::size_t baseline = 0) const;

    /**
     * Mean fractional saving of a per-network metric of design
     * `candidate` vs design `baseline` (networks where the baseline
     * metric is zero are skipped).
     */
    enum class Metric {
        TotalEnergy,
        RefreshEnergy,
        RefreshOps,
        OffChipWords,
        BufferEnergy,
    };
    double meanSaving(std::size_t candidate, std::size_t baseline,
                      Metric metric) const;

    /** Sum of a metric over all networks for one design. */
    double metricSum(std::size_t design, Metric metric) const;

  private:
    static double metricOf(const DesignResult &result, Metric metric);

    std::vector<std::vector<DesignResult>> results_;
};

/**
 * One scenario row of the reliability report: a simulated execution
 * (nominal, stressed, or guarded) with its corruption and fallback
 * counters, plus the campaign's accuracy summary when one ran
 * (negative relative accuracies mean "not measured").
 */
struct ReliabilityScenarioRow
{
    std::string name;
    /** Simulated execution time in seconds. */
    double executionSeconds = 0.0;
    /** Corrupted-word events (stale reads) the controller counted. */
    std::uint64_t violations = 0;
    /** Whether the ReliabilityGuard was attached. */
    bool guarded = false;
    /** Guard trips (0 when unguarded). */
    std::uint64_t guardTrips = 0;
    /** Banks whose refresh the guard re-enabled. */
    std::uint64_t banksReenabled = 0;
    /** Refresh operations issued by the watchdog fallback. */
    std::uint64_t fallbackRefreshOps = 0;
    /** Mean relative accuracy of the fault campaign (< 0 = n/a). */
    double meanRelativeAccuracy = -1.0;
    /** Worst relative accuracy of the fault campaign (< 0 = n/a). */
    double worstRelativeAccuracy = -1.0;
};

/**
 * Markdown table of reliability scenarios (the robustness layer's
 * report): one row per scenario with violation, guard-trip and
 * fallback counters and the campaign accuracy summary.
 */
std::string markdownReliabilityTable(
    const std::vector<ReliabilityScenarioRow> &rows);

/**
 * One guard-policy row of the policy-comparison report: the guard
 * and controller counters a policy accumulated over the comparison
 * grid, plus the pooled relative-accuracy band of its campaign
 * trials.
 */
struct GuardPolicyRow
{
    /** Policy name ("permanent", "hysteresis", "binned"). */
    std::string policy;
    /** Overage trips covered by the watchdog fallback. */
    std::uint64_t trips = 0;
    /** Banks whose refresh flag the guard re-enabled. */
    std::uint64_t banksReenabled = 0;
    /** Guard-armed flags the policy cleared again. */
    std::uint64_t redisarms = 0;
    /** Trips answered with a divider-bin escalation. */
    std::uint64_t escalations = 0;
    /** Refresh operations issued by the watchdog fallback. */
    std::uint64_t fallbackRefreshOps = 0;
    /** Refresh operations issued while groups stayed guard-armed. */
    std::uint64_t armedRefreshOps = 0;
    /** Corrupted-word events (stale reads) the controller counted. */
    std::uint64_t violations = 0;
    /** Pooled relative-accuracy band over the policy's trials. */
    double p5RelativeAccuracy = 0.0;
    double p50RelativeAccuracy = 0.0;
    double p95RelativeAccuracy = 0.0;
};

/**
 * Markdown table of the guard-policy comparison: one row per policy
 * with trip, re-disarm, escalation and refresh-energy counters and
 * the corruption band rendered as "p50 [p5, p95]".
 */
std::string
markdownGuardPolicyTable(const std::vector<GuardPolicyRow> &rows);

/**
 * Markdown pipe table of a labelled value grid: `corner` heads the
 * label column, one row per `row_labels` entry, one column per
 * `col_labels` entry. `cells` is row-major and must match the label
 * counts exactly.
 */
std::string
markdownValueGrid(const std::string &corner,
                  const std::vector<std::string> &row_labels,
                  const std::vector<std::string> &col_labels,
                  const std::vector<std::vector<std::string>> &cells);

} // namespace rana

#endif // RANA_CORE_REPORT_HH_
