/**
 * @file
 * Design-space explorer: compare the six Table-IV design points on a
 * chosen benchmark network and print the normalized energy
 * breakdown, pattern mix and refresh statistics.
 *
 * Usage: design_explorer [AlexNet|VGG|GoogLeNet|ResNet]
 */

#include <iostream>
#include <string>

#include "rana.hh"

int
main(int argc, char **argv)
{
    using namespace rana;

    const std::string network_name = argc > 1 ? argv[1] : "ResNet";
    const NetworkModel network =
        makeBenchmarkChecked(network_name).valueOrDie();
    const RetentionDistribution retention =
        RetentionDistribution::typical65nm();

    std::cout << "Design comparison on " << network.name() << " ("
              << network.size() << " CONV layers, "
              << formatDouble(
                     static_cast<double>(network.totalMacs()) / 1e9, 2)
              << "G MACs)\n\n";

    double baseline = 0.0;
    TextTable table;
    table.header({"Design", "Total", "Norm.", "Computing", "Buffer",
                  "Refresh", "Off-chip", "OD/WD/ID layers",
                  "Runtime"});
    for (const DesignPoint &design : tableIvDesigns(retention)) {
        const DesignResult result =
            runDesignChecked(design, network).valueOrDie();
        if (baseline == 0.0)
            baseline = result.energy.total();
        const auto &schedule = result.schedule;
        const std::string mix =
            std::to_string(
                schedule.dataflowCount(DataflowKind::OD)) +
            "/" +
            std::to_string(
                schedule.dataflowCount(DataflowKind::WD)) +
            "/" +
            std::to_string(
                schedule.dataflowCount(DataflowKind::ID));
        table.row({design.name, formatEnergy(result.energy.total()),
                   formatDouble(result.energy.total() / baseline, 3),
                   formatEnergy(result.energy.computing),
                   formatEnergy(result.energy.bufferAccess),
                   formatEnergy(result.energy.refresh),
                   formatEnergy(result.energy.offChipAccess), mix,
                   formatTime(result.seconds)});
    }
    table.print(std::cout);

    std::cout << "\nDesigns share the same area, frequency and MAC "
                 "count; only the buffer technology, computation "
                 "pattern, refresh interval and controller differ "
                 "(the paper's Table IV).\n";
    return 0;
}
