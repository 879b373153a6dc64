/**
 * @file
 * Implementation of the campaign sweep engine.
 */

#include "robust/campaign_sweep.hh"

#include <iomanip>
#include <optional>
#include <sstream>
#include <utility>

#include "core/report.hh"
#include "obs/chrome_trace.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace rana {

namespace {

/** Grid validation of a sweep configuration. */
std::optional<Error>
validateSweepGrid(const CampaignSweepConfig &config)
{
    if (config.failureRates.empty()) {
        return makeError(ErrorCode::InvalidArgument,
                         "campaign sweep needs at least one failure "
                         "rate");
    }
    if (config.refreshIntervals.empty()) {
        return makeError(ErrorCode::InvalidArgument,
                         "campaign sweep needs at least one refresh "
                         "interval");
    }
    for (double rate : config.failureRates) {
        if (rate < 0.0 || rate >= 1.0) {
            return makeError(ErrorCode::InvalidArgument,
                             "sweep failure rate outside [0, 1): ",
                             rate);
        }
    }
    for (double interval : config.refreshIntervals) {
        if (interval <= 0.0) {
            return makeError(ErrorCode::InvalidArgument,
                             "sweep refresh interval must be "
                             "positive: ",
                             interval);
        }
    }
    if (config.campaign.trials == 0) {
        return makeError(ErrorCode::InvalidArgument,
                         "fault campaign needs at least one trial");
    }
    return std::nullopt;
}

} // namespace

std::vector<GuardPolicySpec>
stockGuardPolicies(const GuardPolicySpec &knobs)
{
    std::vector<GuardPolicySpec> policies(3, knobs);
    policies[0].kind = GuardPolicyKind::Permanent;
    policies[1].kind = GuardPolicyKind::Hysteresis;
    policies[2].kind = GuardPolicyKind::Binned;
    return policies;
}

const SweepCell &
CampaignSweepReport::at(std::size_t rate, std::size_t interval) const
{
    RANA_ASSERT(rate < failureRates.size(),
                "sweep rate index out of range: ", rate);
    RANA_ASSERT(interval < refreshIntervals.size(),
                "sweep interval index out of range: ", interval);
    return cells[rate * refreshIntervals.size() + interval];
}

const SweepCell &
CampaignSweepReport::at(std::size_t policy, std::size_t rate,
                        std::size_t interval) const
{
    RANA_ASSERT(policy < policyNames.size(),
                "sweep policy index out of range: ", policy);
    RANA_ASSERT(rate < failureRates.size(),
                "sweep rate index out of range: ", rate);
    RANA_ASSERT(interval < refreshIntervals.size(),
                "sweep interval index out of range: ", interval);
    return cells[(policy * failureRates.size() + rate) *
                     refreshIntervals.size() +
                 interval];
}

GuardPolicyRow
CampaignSweepReport::policyRow(std::size_t policy) const
{
    GuardPolicyRow row;
    row.policy = policyNames[policy];
    std::vector<double> relatives;
    for (std::size_t r = 0; r < failureRates.size(); ++r) {
        for (std::size_t i = 0; i < refreshIntervals.size(); ++i) {
            const FaultCampaignReport &report = at(policy, r, i).report;
            for (const TrialResult &trial : report.trials)
                relatives.push_back(trial.relativeAccuracy);
        }
    }
    // The controller counters depend on the interval, not on the
    // retraining rate, so sum them over one rate row only (the rate
    // axis replicates the same simulated exposures).
    for (std::size_t i = 0; i < refreshIntervals.size(); ++i) {
        const FaultCampaignReport &report = at(policy, 0, i).report;
        row.trips += report.guardStats.trips;
        row.banksReenabled += report.guardStats.banksReenabled;
        row.redisarms += report.guardStats.redisarms;
        row.escalations += report.guardStats.escalations;
        row.fallbackRefreshOps += report.guardStats.fallbackRefreshOps;
        row.armedRefreshOps += report.guardStats.armedRefreshOps;
        row.violations += report.retentionViolations;
    }
    row.p5RelativeAccuracy = percentile(relatives, 5.0);
    row.p50RelativeAccuracy = percentile(relatives, 50.0);
    row.p95RelativeAccuracy = percentile(relatives, 95.0);
    return row;
}

std::string
CampaignSweepReport::comparisonTable() const
{
    std::vector<GuardPolicyRow> rows;
    rows.reserve(policyNames.size());
    for (std::size_t p = 0; p < policyNames.size(); ++p)
        rows.push_back(policyRow(p));
    return markdownGuardPolicyTable(rows);
}

std::string
CampaignSweepReport::percentileTable() const
{
    std::vector<std::string> cols;
    for (double interval : refreshIntervals) {
        std::ostringstream oss;
        oss << std::scientific << std::setprecision(2) << interval
            << " s";
        cols.push_back(oss.str());
    }
    std::vector<std::string> rows;
    std::vector<std::vector<std::string>> cells;
    for (std::size_t r = 0; r < failureRates.size(); ++r) {
        std::ostringstream label;
        label << std::scientific << std::setprecision(1)
              << failureRates[r];
        rows.push_back(label.str());
        std::vector<std::string> row;
        for (std::size_t i = 0; i < refreshIntervals.size(); ++i) {
            const FaultCampaignReport &report = at(r, i).report;
            std::ostringstream oss;
            oss << std::fixed << std::setprecision(3)
                << report.p50RelativeAccuracy << " ["
                << report.p5RelativeAccuracy << ", "
                << report.p95RelativeAccuracy << "]";
            row.push_back(oss.str());
        }
        cells.push_back(std::move(row));
    }
    return markdownValueGrid("Failure rate", rows, cols, cells);
}

Result<PreparedSweep>
PreparedSweep::prepareSweep(const DesignPoint &design,
                            const NetworkModel &network,
                            const CampaignSweepConfig &config)
{
    if (std::optional<Error> invalid = validateSweepGrid(config))
        return *invalid;

    PreparedSweep plan;
    plan.design_ = design;
    plan.failureRates_ = config.failureRates;
    plan.refreshIntervals_ = config.refreshIntervals;
    // The policy axis: one row running the campaign as configured,
    // or one guarded row per listed policy.
    if (config.guardPolicies.empty())
        plan.campaigns_ = {config.campaign};
    for (const GuardPolicySpec &spec : config.guardPolicies) {
        FaultCampaignConfig campaign = config.campaign;
        campaign.guard = true;
        campaign.guardPolicy = spec;
        plan.campaigns_.push_back(std::move(campaign));
    }

    // The simulated exposures depend on the policy and the interval
    // (the policy steers the controller's fallback pulses), so the
    // trace runs once per (policy, interval) pair and is reused
    // across the rate axis.
    for (const FaultCampaignConfig &campaign : plan.campaigns_) {
        std::vector<CampaignExposures> per_interval;
        per_interval.reserve(config.refreshIntervals.size());
        for (double interval : config.refreshIntervals) {
            DesignPoint point = design;
            point.options.refreshIntervalSeconds = interval;
            Result<CampaignExposures> simulated =
                simulateExposures(point, network, campaign);
            if (!simulated.ok())
                return simulated.error();
            per_interval.push_back(std::move(simulated).value());
        }
        plan.exposures_.push_back(std::move(per_interval));
    }

    // The stand-in model is pretrained once; each rate retrains from
    // the pretrained snapshot and exports one shared store used by
    // every cell (and every policy) at that rate.
    RetentionAwareTrainer trainer(config.campaign.model,
                                  config.campaign.dataset,
                                  config.campaign.trainer);
    trainer.pretrain();
    plan.models_.reserve(config.failureRates.size());
    for (double rate : config.failureRates) {
        plan.models_.push_back(
            prepareCampaignModel(trainer, config.campaign, rate));
    }
    return plan;
}

std::size_t
PreparedSweep::cellCount() const
{
    return exposures_.size() * failureRates_.size() *
           refreshIntervals_.size();
}

PreparedCell
PreparedSweep::preparedCell(std::size_t cell) const
{
    RANA_ASSERT(cell < cellCount(),
                "sweep cell index out of range: ", cell);
    const std::size_t intervals = refreshIntervals_.size();
    const std::size_t rates = failureRates_.size();
    const std::size_t i = cell % intervals;
    const std::size_t r = (cell / intervals) % rates;
    const std::size_t p = cell / (intervals * rates);

    PreparedCell prepared;
    prepared.design = design_;
    prepared.design.options.refreshIntervalSeconds = refreshIntervals_[i];
    prepared.design.failureRate = failureRates_[r];
    prepared.exposures = &exposures_[p][i];
    prepared.model = &models_[r];
    prepared.config = &campaigns_[p];
    return prepared;
}

Result<FaultCampaignReport>
PreparedSweep::runCell(std::size_t cell, unsigned jobs_override) const
{
    const PreparedCell prepared = preparedCell(cell);
    FaultCampaignConfig campaign = *prepared.config;
    if (jobs_override > 0)
        campaign.jobs = jobs_override;
    return runPreparedCampaign(prepared.design, *prepared.exposures,
                               *prepared.model, campaign);
}

Result<std::vector<FaultCampaignReport>>
PreparedSweep::runCells() const
{
    std::vector<PreparedCell> cells;
    cells.reserve(cellCount());
    for (std::size_t cell = 0; cell < cellCount(); ++cell)
        cells.push_back(preparedCell(cell));
    return runPreparedCells(cells);
}

CampaignSweepReport
PreparedSweep::assembleSweep(
    std::vector<FaultCampaignReport> cells) const
{
    RANA_ASSERT(cells.size() == cellCount(),
                "sweep assembly needs one result per cell, got ",
                cells.size());
    CampaignSweepReport report;
    report.designName = design_.name;
    // Every model shares the pretrained baseline; every exposure of
    // a row carries the row's policy name.
    report.networkName = exposures_.front().front().networkName;
    report.modelName = models_.front().modelName;
    report.baselineAccuracy = models_.front().baselineAccuracy;
    for (const std::vector<CampaignExposures> &row : exposures_)
        report.policyNames.push_back(row.front().guardPolicyName);
    report.failureRates = failureRates_;
    report.refreshIntervals = refreshIntervals_;
    report.cells.reserve(cells.size());
    for (std::size_t cell = 0; cell < cells.size(); ++cell) {
        const DesignPoint point = preparedCell(cell).design;
        const std::size_t p =
            cell / (failureRates_.size() * refreshIntervals_.size());
        report.cells.push_back({point.failureRate,
                                point.options.refreshIntervalSeconds,
                                std::move(cells[cell]),
                                report.policyNames[p]});
    }
    return report;
}

Result<CampaignSweepReport>
runCampaignSweep(const DesignPoint &design, const NetworkModel &network,
                 const CampaignSweepConfig &config)
{
    // A policy axis keeps its own span series, so the per-phase
    // timing histograms of a plain sweep and a policy comparison
    // stay apart.
    ScopedSpan sweep_span("sweep", config.guardPolicies.empty()
                                       ? "campaign_sweep"
                                       : "guard_policy_comparison");
    Result<PreparedSweep> prepared =
        PreparedSweep::prepareSweep(design, network, config);
    if (!prepared.ok())
        return prepared.error();
    const PreparedSweep &plan = prepared.value();

    Result<std::vector<FaultCampaignReport>> cells = plan.runCells();
    if (!cells.ok())
        return cells.error();
    return plan.assembleSweep(std::move(cells).value());
}

Result<FaultCampaignReport>
runFaultCampaign(const DesignPoint &design, const NetworkModel &network,
                 const FaultCampaignConfig &config)
{
    CampaignSweepConfig grid;
    grid.failureRates = {design.failureRate};
    grid.refreshIntervals = {design.options.refreshIntervalSeconds};
    grid.campaign = config;
    Result<CampaignSweepReport> swept =
        runCampaignSweep(design, network, grid);
    if (!swept.ok())
        return swept.error();
    CampaignSweepReport report = std::move(swept).value();
    return std::move(report.cells.front().report);
}

} // namespace rana
