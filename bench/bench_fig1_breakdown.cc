/**
 * @file
 * Reproduces Figure 1: energy consumption breakdown of ResNet on the
 * eDRAM-buffered evaluation platform (eD+ID design), grouped by
 * ResNet stage. Refresh energy is the new cost that motivates RANA.
 */

#include "harness.hh"

#include <map>

namespace {

/** Figure 1 - ResNet energy breakdown on eD+ID */
void
runFig1Breakdown(rana::bench::BenchContext &ctx)
{
    (void)ctx;
    using namespace rana;
    using namespace rana::bench;


    const DesignPoint design =
        makeDesignPoint(DesignKind::EdramId, retention());
    const NetworkModel net = makeResNet50();
    const DesignResult result = runDesignChecked(design, net).valueOrDie();

    // Group layers by ResNet stage (conv1, res2, res3, res4, res5).
    const std::vector<std::string> groups = {"conv1", "res2", "res3",
                                             "res4", "res5"};
    std::map<std::string, EnergyBreakdown> grouped;
    for (const auto &layer : result.schedule.layers) {
        for (const std::string &group : groups) {
            if (layer.layerName.rfind(group, 0) == 0) {
                grouped[group] += layer.energy;
                break;
            }
        }
    }

    const double total = result.energy.total();
    TextTable table;
    table.header({"Stage", "Computing", "Buffer Access", "Refresh",
                  "Off-chip Access", "Share of total"});
    for (const std::string &group : groups) {
        const EnergyBreakdown &e = grouped[group];
        table.row({group, formatEnergy(e.computing),
                   formatEnergy(e.bufferAccess),
                   formatEnergy(e.refresh),
                   formatEnergy(e.offChipAccess),
                   formatPercent(e.total() / total)});
    }
    table.rule();
    table.row({"total", formatEnergy(result.energy.computing),
               formatEnergy(result.energy.bufferAccess),
               formatEnergy(result.energy.refresh),
               formatEnergy(result.energy.offChipAccess), "100.0%"});
    table.print(std::cout);

    std::cout << "\nRefresh share of total system energy: "
              << formatPercent(result.energy.refresh / total)
              << " (the paper's Figure 1 shows refresh as a large "
                 "part of eD+ID's energy).\n";
}

} // namespace

RANA_BENCH("fig1_breakdown",
           "Figure 1 - ResNet energy breakdown on eD+ID",
           runFig1Breakdown);
