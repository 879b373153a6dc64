/**
 * @file
 * Campaign sweep engine: the Figure-16-style frontier.
 *
 * The paper picks one operating point per design (a tolerable
 * failure rate and the retention time it buys); EDEN-style
 * characterization instead maps the whole accuracy surface over a
 * failure-rate x refresh-interval grid. The sweep runs the fault
 * campaign over one grid of policy x rate x interval cells. The
 * policy axis is either one row (the campaign as configured, guarded
 * or not: the plain sweep) or one guarded row per guard policy (the
 * guard-policy comparison). The grid reuses the expensive products:
 *
 *   - the trace is simulated once per (policy, refresh interval)
 *     pair (the schedule, the observed lifetimes and the guard's
 *     fallback pulses depend on those, not on the rate);
 *   - the stand-in model is pretrained once and retrained once per
 *     failure rate (retention-aware training targets the rate, not
 *     the interval or the policy);
 *   - each grid cell then runs only the cheap trial fan-out against
 *     the shared pre-quantized weight store.
 *
 * Every per-cell report carries the p5/p50/p95/worst accuracy band,
 * so the sweep output is directly comparable to the paper's bounded
 * accuracy-loss claim instead of a single mean. The report renders
 * either the percentile grid of its first policy row or one guard-
 * policy row per policy with counters summed over the grid.
 */

#ifndef RANA_ROBUST_CAMPAIGN_SWEEP_HH_
#define RANA_ROBUST_CAMPAIGN_SWEEP_HH_

#include <cstddef>
#include <string>
#include <vector>

#include "core/report.hh"
#include "robust/fault_campaign.hh"

namespace rana {

/** Configuration of one campaign sweep. */
struct CampaignSweepConfig
{
    /** Failure rates of the grid rows (retraining targets). */
    std::vector<double> failureRates;
    /** Refresh intervals of the grid columns, in seconds. */
    std::vector<double> refreshIntervals;
    /** Per-cell campaign configuration (trials, seed, jobs, ...). */
    FaultCampaignConfig campaign;
    /**
     * The policy axis of the grid. Empty = one row running
     * `campaign` as configured, guarded or not. Otherwise one row
     * per entry, each forcing campaign.guard on with that policy.
     */
    std::vector<GuardPolicySpec> guardPolicies;
};

/**
 * The stock guard policies in comparison order — permanent,
 * hysteresis, binned — each carrying the hysteresisK/bins knobs of
 * `knobs`.
 */
std::vector<GuardPolicySpec> stockGuardPolicies(const GuardPolicySpec &knobs);

/** One grid cell: a full campaign at (policy, rate, interval). */
struct SweepCell
{
    double failureRate = 0.0;
    double refreshIntervalSeconds = 0.0;
    FaultCampaignReport report;
    /**
     * Guard policy of the cell's row ("" for an unguarded row).
     * Last and defaulted, so {rate, interval, report} still
     * initializes a cell without -Wmissing-field-initializers.
     */
    std::string policyName = {};
};

/** Report of one campaign sweep. */
struct CampaignSweepReport
{
    std::string designName;
    std::string networkName;
    std::string modelName;
    /** Error-free fixed-point baseline accuracy. */
    double baselineAccuracy = 0.0;
    /** Policy names of the grid rows, in configuration order. */
    std::vector<std::string> policyNames;
    /** Grid row values (failure rates), in configuration order. */
    std::vector<double> failureRates;
    /** Grid column values (refresh intervals), in config order. */
    std::vector<double> refreshIntervals;
    /** Cells in policy-major, rate-major, interval-minor order. */
    std::vector<SweepCell> cells;

    /** The cell at (rate index, interval index) of policy row 0. */
    const SweepCell &at(std::size_t rate, std::size_t interval) const;

    /** The cell at (policy index, rate index, interval index). */
    const SweepCell &at(std::size_t policy, std::size_t rate,
                        std::size_t interval) const;

    /**
     * The policy's counters summed over its grid plus the pooled
     * relative-accuracy band of all its trials.
     */
    GuardPolicyRow policyRow(std::size_t policy) const;

    /**
     * Markdown grid of relative accuracy per cell of policy row 0,
     * rendered as "p50 [p5, p95]" with fixed precision —
     * byte-identical per seed for any lane count.
     */
    std::string percentileTable() const;

    /**
     * Markdown guard-policy table: one row per policy, counters
     * summed over the grid — byte-identical per seed for any lane
     * count.
     */
    std::string comparisonTable() const;
};

/**
 * Sweep the fault campaign of `config.campaign` for `design` on
 * `network` over the policy x failureRates x refreshIntervals grid.
 * Fails with ErrorCode::InvalidArgument on a degenerate grid (an
 * empty rate or interval axis, a non-positive interval, a rate
 * outside [0, 1), or zero trials) and with the scheduler's error
 * when the design cannot run the network at some interval.
 */
Result<CampaignSweepReport>
runCampaignSweep(const DesignPoint &design, const NetworkModel &network,
                 const CampaignSweepConfig &config);

/**
 * Every expensive phase product of a sweep materialized up front:
 * the per-(policy, interval) simulated exposures, the pretrained
 * stand-in model and one retrained weight store per failure rate.
 * Grid cells then run independently — in any order, on any thread,
 * or in a forked worker process (robust/sweep_shard), which inherits
 * the whole plan copy-on-write — and each cell is deterministic in
 * isolation, so a sharded run merges to the byte-identical
 * single-process report.
 */
class PreparedSweep
{
  public:
    /** Prepare the grid of `config`. Validation mirrors
     *  runCampaignSweep. */
    static Result<PreparedSweep>
    prepareSweep(const DesignPoint &design,
                 const NetworkModel &network,
                 const CampaignSweepConfig &config);

    /** Grid cells in linear order: policy-major, then rate, then
     *  interval. */
    std::size_t cellCount() const;

    /**
     * Run one grid cell. Deterministic per cell for any lane count;
     * `jobs_override` > 0 forces that many trial lanes (forked
     * workers pass 1 — they must not touch the inherited thread
     * pool, whose worker threads do not exist after fork).
     */
    Result<FaultCampaignReport>
    runCell(std::size_t cell, unsigned jobs_override = 0) const;

    /**
     * The coordinates of grid cell `cell` (policy name, rate and
     * interval), with an empty report.
     */
    SweepCell cellAt(std::size_t cell) const;

    /**
     * Assemble the sweep report from per-cell results in linear
     * cell order. @pre one result per cell.
     */
    CampaignSweepReport
    assembleSweep(std::vector<FaultCampaignReport> cells) const;

  private:
    PreparedSweep() = default;

    DesignPoint design_;
    std::string networkName_;
    std::string modelName_;
    double baselineAccuracy_ = 0.0;
    std::vector<double> failureRates_;
    std::vector<double> refreshIntervals_;
    /** Policy names of the grid rows. */
    std::vector<std::string> policyNames_;
    /** Per-row campaign configs. */
    std::vector<FaultCampaignConfig> campaigns_;
    /** Simulated exposures, [policy][interval]. */
    std::vector<std::vector<CampaignExposures>> exposures_;
    /** One retrained shared weight store per failure rate. */
    std::vector<CampaignModel> models_;
};

} // namespace rana

#endif // RANA_ROBUST_CAMPAIGN_SWEEP_HH_
