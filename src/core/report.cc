/**
 * @file
 * Implementation of the result grid and headline statistics.
 */

#include "core/report.hh"

#include <sstream>

#include "util/logging.hh"
#include "util/stats.hh"

namespace rana {

ResultGrid::ResultGrid(const std::vector<DesignPoint> &designs,
                       const std::vector<NetworkModel> &networks)
{
    RANA_ASSERT(!designs.empty() && !networks.empty(),
                "result grid needs designs and networks");
    for (const DesignPoint &design : designs)
        results_.push_back(runDesignSuite(design, networks));
}

const DesignResult &
ResultGrid::at(std::size_t design, std::size_t network) const
{
    RANA_ASSERT(design < results_.size() &&
                network < results_[design].size(),
                "result grid index out of range");
    return results_[design][network];
}

double
ResultGrid::normalizedEnergy(std::size_t design, std::size_t network,
                             std::size_t baseline) const
{
    const double base = at(baseline, network).energy.total();
    RANA_ASSERT(base > 0.0, "baseline energy must be positive");
    return at(design, network).energy.total() / base;
}

double
ResultGrid::normalizedEnergyGmean(std::size_t design,
                                  std::size_t baseline) const
{
    std::vector<double> norms;
    for (std::size_t n = 0; n < numNetworks(); ++n)
        norms.push_back(normalizedEnergy(design, n, baseline));
    return geomean(norms);
}

double
ResultGrid::metricOf(const DesignResult &result, Metric metric)
{
    switch (metric) {
      case Metric::TotalEnergy:
        return result.energy.total();
      case Metric::RefreshEnergy:
        return result.energy.refresh;
      case Metric::RefreshOps:
        return static_cast<double>(result.counts.refreshOps);
      case Metric::OffChipWords:
        return static_cast<double>(result.counts.ddrAccesses);
      case Metric::BufferEnergy:
        return result.energy.bufferAccess;
    }
    panic("unreachable metric");
}

double
ResultGrid::meanSaving(std::size_t candidate, std::size_t baseline,
                       Metric metric) const
{
    std::vector<double> savings;
    for (std::size_t n = 0; n < numNetworks(); ++n) {
        const double base = metricOf(at(baseline, n), metric);
        if (base <= 0.0)
            continue;
        savings.push_back(1.0 - metricOf(at(candidate, n), metric) /
                                    base);
    }
    RANA_ASSERT(!savings.empty(), "no network had a nonzero baseline");
    return mean(savings);
}

double
ResultGrid::metricSum(std::size_t design, Metric metric) const
{
    double total = 0.0;
    for (std::size_t n = 0; n < numNetworks(); ++n)
        total += metricOf(at(design, n), metric);
    return total;
}

std::string
markdownReliabilityTable(const std::vector<ReliabilityScenarioRow> &rows)
{
    std::ostringstream oss;
    oss << "| Scenario | Time (s) | Corrupted-word events | Guard |"
           " Trips | Banks re-enabled | Fallback refresh ops |"
           " Rel. accuracy (mean/worst) |\n"
           "|---|---|---|---|---|---|---|---|\n";
    for (const ReliabilityScenarioRow &row : rows) {
        oss << "| " << row.name << " | ";
        oss.setf(std::ios::scientific);
        oss.precision(3);
        oss << row.executionSeconds;
        oss.unsetf(std::ios::scientific);
        oss << " | " << row.violations << " | "
            << (row.guarded ? "on" : "off") << " | " << row.guardTrips
            << " | " << row.banksReenabled << " | "
            << row.fallbackRefreshOps << " | ";
        if (row.meanRelativeAccuracy < 0.0) {
            oss << "n/a |\n";
        } else {
            oss.setf(std::ios::fixed);
            oss.precision(3);
            oss << row.meanRelativeAccuracy << " / "
                << row.worstRelativeAccuracy << " |\n";
            oss.unsetf(std::ios::fixed);
        }
    }
    return oss.str();
}

std::string
markdownGuardPolicyTable(const std::vector<GuardPolicyRow> &rows)
{
    std::ostringstream oss;
    oss << "| Policy | Trips | Banks re-enabled | Re-disarms |"
           " Escalations | Fallback refresh ops |"
           " Armed refresh ops | Corrupted-word events |"
           " Rel. accuracy p50 [p5, p95] |\n"
           "|---|---|---|---|---|---|---|---|---|\n";
    for (const GuardPolicyRow &row : rows) {
        oss << "| " << row.policy << " | " << row.trips << " | "
            << row.banksReenabled << " | " << row.redisarms << " | "
            << row.escalations << " | " << row.fallbackRefreshOps
            << " | " << row.armedRefreshOps << " | "
            << row.violations << " | ";
        oss.setf(std::ios::fixed);
        oss.precision(3);
        oss << row.p50RelativeAccuracy << " ["
            << row.p5RelativeAccuracy << ", "
            << row.p95RelativeAccuracy << "] |\n";
        oss.unsetf(std::ios::fixed);
    }
    return oss.str();
}

std::string
markdownValueGrid(const std::string &corner,
                  const std::vector<std::string> &row_labels,
                  const std::vector<std::string> &col_labels,
                  const std::vector<std::vector<std::string>> &cells)
{
    RANA_ASSERT(cells.size() == row_labels.size(),
                "value grid row count mismatch: ", cells.size(),
                " vs ", row_labels.size());
    std::ostringstream oss;
    oss << "| " << corner << " |";
    for (const std::string &label : col_labels)
        oss << " " << label << " |";
    oss << "\n|---|";
    for (std::size_t i = 0; i < col_labels.size(); ++i)
        oss << "---|";
    oss << "\n";
    for (std::size_t r = 0; r < row_labels.size(); ++r) {
        RANA_ASSERT(cells[r].size() == col_labels.size(),
                    "value grid column count mismatch in row ", r);
        oss << "| " << row_labels[r] << " |";
        for (const std::string &cell : cells[r])
            oss << " " << cell << " |";
        oss << "\n";
    }
    return oss.str();
}

} // namespace rana
