/**
 * @file
 * Reproduces Figure 19: scalability analysis on DaDianNao. One node
 * (4096 PEs, 64x64, 606MHz, 36MB eDRAM, fixed <64,64,1,1> tiling)
 * is strengthened with RANA (0) / RANA (E-5) / RANA*(E-5); energies
 * are normalized per network to the original DaDianNao.
 */

#include "harness.hh"

#include "core/report.hh"

namespace {

/** Figure 19 - scalability analysis on DaDianNao */
void
runFig19Dadiannao(rana::bench::BenchContext &ctx)
{
    (void)ctx;
    using namespace rana;
    using namespace rana::bench;

    const auto designs = daDianNaoDesigns(retention());
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

    std::cout << "\nBreakdown summed over networks:\n";
    TextTable parts;
    parts.header({"Design", "Computing", "Buffer", "Refresh",
                  "Off-chip"});
    std::vector<EnergyBreakdown> sums(grid.numDesigns());
    for (std::size_t d = 0; d < grid.numDesigns(); ++d) {
        for (std::size_t n = 0; n < grid.numNetworks(); ++n)
            sums[d] += grid.at(d, n).energy;
        parts.row({designs[d].name, formatEnergy(sums[d].computing),
                   formatEnergy(sums[d].bufferAccess),
                   formatEnergy(sums[d].refresh),
                   formatEnergy(sums[d].offChipAccess)});
    }
    parts.print(std::cout);

    std::cout
        << "\nHeadline comparison:\n"
        << "  Buffer-access share of original DaDianNao energy: "
        << formatPercent(sums[0].bufferAccess / sums[0].total())
        << "  (paper: 23.5%)\n"
        << "  RANA (0) buffer access saved vs DaDianNao:        "
        << formatPercent(1.0 - grid.metricSum(1, Metric::BufferEnergy) /
                                   grid.metricSum(0, Metric::BufferEnergy))
        << "  (paper: 97.2%)\n"
        << "  RANA (E-5) refresh energy saved vs RANA (0):      "
        << formatPercent(1.0 - grid.metricSum(2, Metric::RefreshEnergy) /
                                   grid.metricSum(1, Metric::RefreshEnergy))
        << "  (paper: 94.9%)\n"
        << "  RANA*(E-5) refresh ops removed vs DaDianNao:      "
        << formatPercent(1.0 - grid.metricSum(3, Metric::RefreshOps) /
                                   grid.metricSum(0, Metric::RefreshOps))
        << "  (paper: 99.9%)\n"
        << "  RANA*(E-5) system energy saved vs DaDianNao:      "
        << formatPercent(1.0 - sums[3].total() / sums[0].total())
        << "  (paper: 69.4%)\n"
        << "  Off-chip access change:                           "
        << formatPercent(sums[3].offChipAccess /
                             sums[0].offChipAccess -
                         1.0)
        << "  (paper: none)\n";
}

} // namespace

RANA_BENCH("fig19_dadiannao",
           "Figure 19 - scalability analysis on DaDianNao",
           runFig19Dadiannao);
