/**
 * @file
 * Dataflow-search extension: what the systolic half of the dataflow
 * axis buys on top of the paper's ID/OD/WD patterns.
 *
 * Compiles every benchmark network on the RANA* (per-bank) design
 * twice — once over the legacy three-pattern axis, once over the
 * full six-dataflow product space — and reports the search-space
 * growth, the per-dataflow win counts of the widened schedules and
 * the refresh/total energy deltas. The CI gate (check_bench.py)
 * holds the headline result: at least one network where a systolic
 * dataflow wins layers and strictly improves simulated refresh
 * energy over the best legacy schedule.
 */

#include "harness.hh"

#include "sched/layer_scheduler.hh"
#include "sched/tiling_search.hh"
#include "util/json_writer.hh"

namespace {

using namespace rana;
using namespace rana::bench;

/** Summed energy of a compiled schedule. */
EnergyBreakdown
networkEnergy(const NetworkSchedule &schedule)
{
    EnergyBreakdown energy;
    for (const LayerSchedule &layer : schedule.layers)
        energy += layer.energy;
    return energy;
}

/** Candidate count of one axis over a whole network. */
std::uint64_t
searchSpaceSize(const AcceleratorConfig &config,
                const NetworkModel &network,
                const SchedulerOptions &options)
{
    std::uint64_t candidates = 0;
    for (std::size_t i = 0; i < network.size(); ++i)
        candidates += dataflowChoices(config, network.layer(i),
                                      options)
                          .size();
    return candidates;
}

/** Extension - systolic dataflows vs the legacy pattern axis */
void
runDataflowSearch(BenchContext &ctx)
{
    banner("dataflow search - widened OS/IS/WS axis vs ID/OD/WD "
           "on RANA*");

    const DesignPoint design =
        makeDesignPoint(DesignKind::RanaStarE5, retention());
    SchedulerOptions legacy_options = design.options;
    legacy_options.dataflows = legacyDataflows();
    SchedulerOptions widened_options = design.options;
    const auto all = allDataflows();
    widened_options.dataflows.assign(all.begin(), all.end());

    TextTable table;
    table.header({"Network", "Candidates (3 -> 6 dataflows)",
                  "Widened mix", "Refresh energy delta",
                  "Total energy delta"});

    std::array<std::uint64_t, numDataflowKinds> wins{};
    double best_refresh_delta = 0.0;
    std::string best_network;
    std::uint64_t systolic_win_layers = 0;

    JsonWriter &json = *ctx.json;
    json.field("design", design.name);
    json.beginArray("networks");
    for (const NetworkModel &network : networks()) {
        const std::uint64_t legacy_space = searchSpaceSize(
            design.config, network, legacy_options);
        const std::uint64_t widened_space = searchSpaceSize(
            design.config, network, widened_options);
        const NetworkSchedule legacy_best = scheduleNetwork(
            design.config, network, legacy_options).valueOrDie();
        const NetworkSchedule widened_best = scheduleNetwork(
            design.config, network, widened_options).valueOrDie();
        const EnergyBreakdown legacy_energy =
            networkEnergy(legacy_best);
        const EnergyBreakdown widened_energy =
            networkEnergy(widened_best);
        const double refresh_delta =
            legacy_energy.refresh - widened_energy.refresh;
        const double total_delta =
            legacy_energy.total() - widened_energy.total();

        std::ostringstream mix;
        std::uint64_t systolic_layers = 0;
        for (DataflowKind dataflow : allDataflows()) {
            const std::size_t count =
                widened_best.dataflowCount(dataflow);
            if (count == 0)
                continue;
            mix << dataflowName(dataflow) << ":" << count << " ";
            wins[static_cast<std::size_t>(dataflow)] += count;
            if (dataflowSpec(dataflow).systolic)
                systolic_layers += count;
        }
        systolic_win_layers += systolic_layers;
        if (systolic_layers > 0 &&
            refresh_delta > best_refresh_delta) {
            best_refresh_delta = refresh_delta;
            best_network = network.name();
        }

        table.row({network.name(),
                   std::to_string(legacy_space) + " -> " +
                       std::to_string(widened_space),
                   mix.str(), formatEnergy(refresh_delta),
                   formatEnergy(total_delta)});

        json.beginObject();
        json.field("network", network.name());
        json.field("legacy_candidates", legacy_space);
        json.field("widened_candidates", widened_space);
        json.field("systolic_win_layers", systolic_layers);
        json.field("legacy_refresh_energy_j",
                   legacy_energy.refresh);
        json.field("widened_refresh_energy_j",
                   widened_energy.refresh);
        json.field("refresh_energy_delta_j", refresh_delta);
        json.field("legacy_total_energy_j", legacy_energy.total());
        json.field("widened_total_energy_j",
                   widened_energy.total());
        json.field("total_energy_delta_j", total_delta);
        json.endObject();

        ctx.perf(network.name() + "_refresh_delta", refresh_delta,
                 "J");
    }
    json.endArray();

    json.beginObject("dataflow_wins");
    for (DataflowKind dataflow : allDataflows())
        json.field(dataflowName(dataflow),
                   wins[static_cast<std::size_t>(dataflow)]);
    json.endObject();
    json.field("systolic_win_layers", systolic_win_layers);
    json.field("best_refresh_energy_delta_j", best_refresh_delta);
    json.field("best_refresh_energy_network", best_network);

    table.print(std::cout);
    std::cout << "\nPer-dataflow layer wins across the suite:";
    for (DataflowKind dataflow : allDataflows()) {
        const std::uint64_t count =
            wins[static_cast<std::size_t>(dataflow)];
        if (count > 0)
            std::cout << " " << dataflowName(dataflow) << ":"
                      << count;
    }
    std::cout << "\nBest refresh-energy improvement with a systolic "
                 "win: "
              << formatEnergy(best_refresh_delta) << " ("
              << (best_network.empty() ? "none" : best_network)
              << ")\n\nReordering the memory-control loops moves "
                 "refresh exposure between data types without "
                 "touching the core computing part; on the per-bank "
                 "RANA* design the sys-is/sys-ws/sys-os orders pin "
                 "smaller working sets for shorter lifetimes, so "
                 "the widened search trades a little stall time for "
                 "less refresh.\n";

    ctx.perf("systolic_win_layers",
             static_cast<double>(systolic_win_layers), "layers");
    ctx.perf("best_refresh_delta", best_refresh_delta, "J");

    if (systolic_win_layers == 0)
        fatal("widened dataflow search never chose a systolic "
              "dataflow");
    if (best_refresh_delta <= 0.0)
        fatal("no network improved refresh energy with a systolic "
              "win");
}

} // namespace

RANA_BENCH("dataflow_search",
           "Extension - systolic dataflow axis vs ID/OD/WD on RANA*",
           runDataflowSearch);
