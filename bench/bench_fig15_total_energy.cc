/**
 * @file
 * Reproduces Figure 15: total system energy of the six Table-IV
 * designs on the four benchmarks, normalized to S+ID, plus the
 * GMEAN column and the headline statistics of Section V-B1
 * (off-chip access saved, refresh operations removed, total system
 * energy saved by RANA*(E-5) vs. the baselines).
 */

#include "harness.hh"

#include "core/report.hh"
#include "util/ascii_chart.hh"

namespace {

/** Figure 15 - total system energy comparison */
void
runFig15TotalEnergy(rana::bench::BenchContext &ctx)
{
    (void)ctx;
    using namespace rana;
    using namespace rana::bench;

    const auto designs = tableIvDesigns(retention());
    const auto &nets = networks();
    const ResultGrid grid(designs, nets);
    using Metric = ResultGrid::Metric;

    TextTable table;
    {
        std::vector<std::string> header = {"Design"};
        for (const auto &net : nets)
            header.push_back(net.name());
        header.push_back("GMEAN");
        table.header(header);
    }
    for (std::size_t d = 0; d < grid.numDesigns(); ++d) {
        std::vector<std::string> row = {designs[d].name};
        for (std::size_t n = 0; n < grid.numNetworks(); ++n)
            row.push_back(ratio(grid.normalizedEnergy(d, n)));
        row.push_back(ratio(grid.normalizedEnergyGmean(d)));
        table.row(row);
    }
    table.print(std::cout);

    // Component breakdown per design (summed over networks).
    std::cout << "\nEnergy breakdown summed over the four networks:\n";
    TextTable parts;
    parts.header({"Design", "Computing", "Buffer", "Refresh",
                  "Off-chip", "Total"});
    std::vector<EnergyBreakdown> sums(grid.numDesigns());
    for (std::size_t d = 0; d < grid.numDesigns(); ++d) {
        for (std::size_t n = 0; n < grid.numNetworks(); ++n)
            sums[d] += grid.at(d, n).energy;
        parts.row({designs[d].name, formatEnergy(sums[d].computing),
                   formatEnergy(sums[d].bufferAccess),
                   formatEnergy(sums[d].refresh),
                   formatEnergy(sums[d].offChipAccess),
                   formatEnergy(sums[d].total())});
    }
    parts.print(std::cout);

    // Figure-style stacked bars, normalized per network to S+ID.
    for (std::size_t n = 0; n < grid.numNetworks(); ++n) {
        BarChart chart("\n" + nets[n].name() +
                       " (normalized to S+ID)");
        chart.segments({"computing", "buffer", "refresh",
                        "off-chip"});
        const double base = grid.at(0, n).energy.total();
        for (std::size_t d = 0; d < grid.numDesigns(); ++d) {
            const EnergyBreakdown &e = grid.at(d, n).energy;
            chart.bar(designs[d].name,
                      {e.computing / base, e.bufferAccess / base,
                       e.refresh / base, e.offChipAccess / base});
        }
        chart.print(std::cout);
    }

    // Headline statistics (Section V-B1).
    std::cout << "\nHeadline comparison (average over networks):\n"
              << "  eD+ID vs S+ID off-chip access saved:      "
              << formatPercent(grid.meanSaving(1, 0, Metric::OffChipWords))
              << "  (paper: 40.3%)\n"
              << "  eD+OD vs eD+ID refresh energy saved:      "
              << formatPercent(
                     1.0 - grid.metricSum(2, Metric::RefreshEnergy) /
                               grid.metricSum(1, Metric::RefreshEnergy))
              << "  (paper: 43.7%)\n"
              << "  RANA(0) vs eD+OD total energy (VGG):      "
              << formatPercent(1.0 - grid.normalizedEnergy(3, 1, 2))
              << "  (paper: 19.4%)\n"
              << "  RANA(E-5) vs RANA(0) refresh ops removed: "
              << formatPercent(grid.meanSaving(4, 3, Metric::RefreshOps))
              << "  (paper: 98.5%)\n"
              << "  RANA*(E-5) vs eD+ID refresh ops removed:  "
              << formatPercent(grid.meanSaving(5, 1, Metric::RefreshOps))
              << "  (paper: 99.7%)\n"
              << "  RANA*(E-5) vs S+ID off-chip access saved: "
              << formatPercent(grid.meanSaving(5, 0, Metric::OffChipWords))
              << "  (paper: 41.7%)\n"
              << "  RANA*(E-5) vs S+ID system energy saved:   "
              << formatPercent(grid.meanSaving(5, 0, Metric::TotalEnergy))
              << "  (paper: 66.2%)\n"
              << "  RANA*(E-5) refresh share of total energy: "
              << formatPercent(sums[5].refresh / sums[5].total())
              << "  (paper: 0.4%)\n";
}

} // namespace

RANA_BENCH("fig15_total_energy",
           "Figure 15 - total system energy comparison",
           runFig15TotalEnergy);
