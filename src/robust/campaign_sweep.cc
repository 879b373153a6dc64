/**
 * @file
 * Implementation of the campaign sweep engine.
 */

#include "robust/campaign_sweep.hh"

#include <iomanip>
#include <optional>
#include <sstream>

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
    plan.networkName_ = network.name();
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
        plan.policyNames_.push_back(
            per_interval.front().guardPolicyName);
        plan.exposures_.push_back(std::move(per_interval));
    }

    // The stand-in model is pretrained once; each rate retrains from
    // the pretrained snapshot and exports one shared store used by
    // every cell (and every policy) at that rate.
    RetentionAwareTrainer trainer(config.campaign.model,
                                  config.campaign.dataset,
                                  config.campaign.trainer);
    plan.baselineAccuracy_ = trainer.pretrain();
    plan.modelName_ = miniModelName(config.campaign.model);
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
    return policyNames_.size() * failureRates_.size() *
           refreshIntervals_.size();
}

SweepCell
PreparedSweep::cellAt(std::size_t cell) const
{
    RANA_ASSERT(cell < cellCount(),
                "sweep cell index out of range: ", cell);
    const std::size_t intervals = refreshIntervals_.size();
    const std::size_t rates = failureRates_.size();
    SweepCell entry;
    entry.failureRate = failureRates_[(cell / intervals) % rates];
    entry.refreshIntervalSeconds = refreshIntervals_[cell % intervals];
    entry.policyName = policyNames_[cell / (intervals * rates)];
    return entry;
}

Result<FaultCampaignReport>
PreparedSweep::runCell(std::size_t cell, unsigned jobs_override) const
{
    RANA_ASSERT(cell < cellCount(),
                "sweep cell index out of range: ", cell);
    const std::size_t intervals = refreshIntervals_.size();
    const std::size_t rates = failureRates_.size();
    const std::size_t i = cell % intervals;
    const std::size_t r = (cell / intervals) % rates;
    const std::size_t p = cell / (intervals * rates);

    FaultCampaignConfig campaign = campaigns_[p];
    if (jobs_override > 0)
        campaign.jobs = jobs_override;
    DesignPoint point = design_;
    point.options.refreshIntervalSeconds = refreshIntervals_[i];
    point.failureRate = failureRates_[r];
    return runPreparedCampaign(point, exposures_[p][i], models_[r],
                               campaign);
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
    report.networkName = networkName_;
    report.modelName = modelName_;
    report.baselineAccuracy = baselineAccuracy_;
    report.policyNames = policyNames_;
    report.failureRates = failureRates_;
    report.refreshIntervals = refreshIntervals_;
    report.cells.reserve(cells.size());
    for (std::size_t cell = 0; cell < cells.size(); ++cell) {
        SweepCell entry = cellAt(cell);
        entry.report = std::move(cells[cell]);
        report.cells.push_back(std::move(entry));
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

    std::vector<FaultCampaignReport> cells;
    cells.reserve(plan.cellCount());
    for (std::size_t cell = 0; cell < plan.cellCount(); ++cell) {
        const SweepCell coordinates = plan.cellAt(cell);
        // A labelled timeline slice per grid cell; the span-
        // duration histograms stay per phase (simulate / retrain /
        // trials), not per cell.
        std::ostringstream cell_label;
        cell_label << "cell ";
        if (!config.guardPolicies.empty())
            cell_label << "policy=" << coordinates.policyName << " ";
        cell_label << "rate=" << std::scientific
                   << std::setprecision(1) << coordinates.failureRate
                   << " interval=" << coordinates.refreshIntervalSeconds
                   << "s";
        TraceRecorder &recorder = TraceRecorder::global();
        recorder.beginSpan("sweep", cell_label.str());
        Result<FaultCampaignReport> cell_report = plan.runCell(cell);
        recorder.endSpan("sweep", cell_label.str());
        if (!cell_report.ok())
            return cell_report.error();
        cells.push_back(std::move(cell_report).value());
    }
    return plan.assembleSweep(std::move(cells));
}

} // namespace rana
