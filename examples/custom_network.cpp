/**
 * @file
 * Using the public API on a custom CNN: define the CONV layers of a
 * user network, run the RANA compilation phase, and inspect the
 * per-layer decisions (pattern, tiling, buffer allocation, lifetimes
 * and refresh flags) plus the execution-phase verification.
 */

#include <iostream>

#include "rana.hh"

int
main()
{
    using namespace rana;

    // A small detection-style backbone for 320x320 RGB input.
    NetworkModel network("custom-backbone");
    network.addLayer(makeConv("stem", 3, 320, 32, 3, 2, 1));
    network.addLayer(makeConv("stage1_a", 32, 160, 64, 3, 2, 1));
    network.addLayer(makeConv("stage1_b", 64, 80, 64, 3, 1, 1));
    network.addLayer(makeConv("stage2_a", 64, 80, 128, 3, 2, 1));
    network.addLayer(makeConv("stage2_b", 128, 40, 128, 3, 1, 1));
    network.addLayer(makeConv("stage3_a", 128, 40, 256, 3, 2, 1));
    network.addLayer(makeConv("stage3_b", 256, 20, 256, 3, 1, 1));
    network.addLayer(makeConv("head", 256, 20, 255, 1, 1, 0));

    PipelineInputs inputs;
    inputs.tolerableFailureRate = 1e-5; // certified by Stage 1
    inputs.policy = RefreshPolicy::PerBank;

    const PipelineResult result = runRanaPipeline(network, inputs);

    std::cout << "RANA compilation for " << network.name() << " on "
              << result.design.config.describe() << "\n"
              << "Tolerable retention time: "
              << formatTime(result.tolerableRetentionSeconds)
              << "\n\n";

    TextTable table("Layerwise configuration");
    table.header({"Layer", "Pattern", "Tiling", "Banks (i/o/w/free)",
                  "LT in", "LT out", "LT w", "Flags", "Energy"});
    for (const auto &layer : result.schedule.layers) {
        const BankAllocation alloc = analysisBankAllocation(
            result.design.config, layer.analysis);
        const auto lt = layer.analysis.lifetimes();
        std::string flags;
        for (bool flag : layer.refreshFlags)
            flags += flag ? '1' : '0';
        table.row(
            {layer.layerName, dataflowName(layer.dataflow()),
             layer.tiling().describe(),
             std::to_string(alloc.banksOf(DataType::Input)) + "/" +
                 std::to_string(alloc.banksOf(DataType::Output)) +
                 "/" +
                 std::to_string(alloc.banksOf(DataType::Weight)) +
                 "/" + std::to_string(alloc.unusedBanks),
             formatTime(lt[0]), formatTime(lt[1]), formatTime(lt[2]),
             flags, formatEnergy(layer.energy.total())});
    }
    table.print(std::cout);

    std::cout << "\nScheduled energy: "
              << result.scheduledEnergy.describe() << "\n";
    if (result.executedPhase) {
        std::cout << "Execution phase:  "
                  << result.executed.energy.describe()
                  << "\nRetention violations observed: "
                  << result.executed.violations << "\n";
    }
    return 0;
}
