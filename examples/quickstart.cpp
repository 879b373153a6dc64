/**
 * @file
 * Quickstart: run the full RANA pipeline for ResNet-50 on the
 * eDRAM test accelerator and print the energy report.
 *
 * Demonstrates the three-stage workflow of Figure 6: a certified
 * tolerable failure rate (1e-5, the paper's no-accuracy-loss point)
 * is mapped to a tolerable retention time, the network is scheduled
 * with the hybrid computation pattern, and the compiled schedule is
 * executed on the trace simulator with the refresh-optimized eDRAM
 * controller.
 */

#include <iostream>

#include "rana.hh"

int
main()
{
    using namespace rana;

    const NetworkModel network = makeResNet50();

    PipelineInputs inputs;
    inputs.tolerableFailureRate = 1e-5;
    inputs.policy = RefreshPolicy::PerBank;

    const PipelineResult result = runRanaPipeline(network, inputs);

    std::cout << "RANA quickstart: " << network.name() << " on "
              << result.design.config.describe() << "\n\n";
    std::cout << "Tolerable failure rate:   "
              << result.design.failureRate << "\n";
    std::cout << "Tolerable retention time: "
              << formatTime(result.tolerableRetentionSeconds) << "\n";
    std::cout << "Layers scheduled OD/WD:   "
              << result.schedule.dataflowCount(DataflowKind::OD)
              << "/"
              << result.schedule.dataflowCount(DataflowKind::WD)
              << "\n";
    std::cout << "Execution time:           "
              << formatTime(result.schedule.totalSeconds()) << "\n\n";

    TextTable table("Per-layer schedule (first 12 layers)");
    table.header({"layer", "pattern", "tiling", "lifetime(in/out/w)",
                  "refresh flags", "energy"});
    std::size_t shown = 0;
    for (const auto &layer : result.schedule.layers) {
        if (shown++ >= 12)
            break;
        const auto &lt = layer.analysis.lifetimes();
        std::string flags;
        for (bool flag : layer.refreshFlags)
            flags += flag ? '1' : '0';
        table.row({layer.layerName,
                   dataflowName(layer.dataflow()),
                   layer.tiling().describe(),
                   formatTime(lt[0]) + "/" + formatTime(lt[1]) + "/" +
                       formatTime(lt[2]),
                   flags, formatEnergy(layer.energy.total())});
    }
    table.print(std::cout);

    std::cout << "\nScheduled (analytic) energy: "
              << result.scheduledEnergy.describe() << "\n";
    if (result.executedPhase) {
        std::cout << "Executed (trace) energy:     "
                  << result.executed.energy.describe() << "\n";
        std::cout << "Retention violations:        "
                  << result.executed.violations << "\n";
    }
    return 0;
}
