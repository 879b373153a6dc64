/**
 * @file
 * Reproduces Figure 17: layerwise system energy of VGG under eD+OD
 * vs RANA(0), each layer normalized to eD+OD. On the shallow layers
 * whose OD buffer storage exceeds the 1.45MB capacity, RANA selects
 * WD and removes the partial-sum spill traffic.
 */

#include "harness.hh"

#include "sched/layer_scheduler.hh"

namespace {

/** Figure 17 - layerwise VGG energy: eD+OD vs RANA (0) */
void
runFig17VggLayerwise(rana::bench::BenchContext &ctx)
{
    (void)ctx;
    using namespace rana;
    using namespace rana::bench;


    const NetworkModel net = makeVgg16();
    const DesignPoint od_design =
        makeDesignPoint(DesignKind::EdramOd, retention());
    const DesignPoint rana_design =
        makeDesignPoint(DesignKind::Rana0, retention());
    const NetworkSchedule od =
        scheduleNetwork(od_design.config, net, od_design.options).valueOrDie();
    const NetworkSchedule rana =
        scheduleNetwork(rana_design.config, net, rana_design.options)
            .valueOrDie();

    TextTable table;
    table.header({"Layer", "eD+OD", "RANA (0)", "RANA pattern",
                  "Normalized", "Off-chip saved"});
    for (std::size_t i = 0; i < net.size(); ++i) {
        const double od_energy = od.layers[i].energy.total();
        const double rana_energy = rana.layers[i].energy.total();
        const double od_ddr =
            static_cast<double>(od.layers[i].counts.ddrAccesses);
        const double rana_ddr =
            static_cast<double>(rana.layers[i].counts.ddrAccesses);
        table.row({net.layer(i).name, formatEnergy(od_energy),
                   formatEnergy(rana_energy),
                   dataflowName(rana.layers[i].dataflow()),
                   ratio(rana_energy / od_energy),
                   od_ddr > 0.0
                       ? formatPercent(1.0 - rana_ddr / od_ddr)
                       : "-"});
    }
    table.print(std::cout);

    const double total_saving =
        1.0 - rana.totalEnergy().total() / od.totalEnergy().total();
    std::cout << "\nWhole-network energy saving of RANA (0) over "
                 "eD+OD: "
              << formatPercent(total_saving)
              << " (paper: 19.4%; per-layer savings of 47.8-67.0% on "
                 "the WD layers, off-chip savings of 79.5-91.6%).\n";
}

} // namespace

RANA_BENCH("fig17_vgg_layerwise",
           "Figure 17 - layerwise VGG energy: eD+OD vs RANA (0)",
           runFig17VggLayerwise);
