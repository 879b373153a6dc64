/**
 * @file
 * Extension experiment: inter-layer output reuse on top of the
 * RANA*(E-5) schedules — how much of the remaining off-chip traffic
 * the big eDRAM buffer can absorb by keeping chained layers'
 * activations on chip, and what the carried retention costs.
 */

#include "harness.hh"

#include "sched/interlayer_reuse.hh"
#include "sched/layer_scheduler.hh"

namespace {

/** Extension - inter-layer output reuse on RANA*(E-5) */
void
runInterlayerReuse(rana::bench::BenchContext &ctx)
{
    (void)ctx;
    using namespace rana;
    using namespace rana::bench;


    std::vector<NetworkModel> nets = networks();
    nets.push_back(makeResNet18());
    nets.push_back(makeResNet34());

    TextTable table;
    table.header({"Network", "Fusions", "Saved off-chip words",
                  "Added refresh ops", "Energy before",
                  "Energy after", "Saving"});
    for (const NetworkModel &net : nets) {
        const DesignPoint design =
            makeDesignPoint(DesignKind::RanaStarE5, retention());
        const NetworkSchedule schedule = scheduleNetwork(
            design.config, net, design.options).valueOrDie();
        const InterLayerReuseResult result =
            applyInterLayerReuse(design.config, net, schedule);
        std::uint64_t added_refresh = 0;
        for (const FusedPair &pair : result.fusions)
            added_refresh += pair.addedRefreshOps;
        char words[32];
        std::snprintf(words, sizeof(words), "%.0f",
                      result.totalSavedDramWords());
        table.row({net.name(),
                   std::to_string(result.fusions.size()), words,
                   std::to_string(added_refresh),
                   formatEnergy(result.originalEnergy.total()),
                   formatEnergy(result.adjustedEnergy.total()),
                   formatPercent(result.savingFraction())});
    }
    table.print(std::cout);

    // Per-fusion detail on VGG (its stages chain directly).
    std::cout << "\nVGG fusion detail:\n";
    const DesignPoint design =
        makeDesignPoint(DesignKind::RanaStarE5, retention());
    const NetworkModel vgg = makeVgg16();
    const NetworkSchedule schedule =
        scheduleNetwork(design.config, vgg, design.options).valueOrDie();
    const InterLayerReuseResult result =
        applyInterLayerReuse(design.config, vgg, schedule);
    TextTable detail;
    detail.header({"Producer", "Consumer", "Saved words",
                   "Carried lifetime", "Added refresh",
                   "Net saving"});
    for (const FusedPair &pair : result.fusions) {
        char words[32];
        std::snprintf(words, sizeof(words), "%.0f",
                      pair.savedDramWords);
        detail.row({vgg.layer(pair.producer).name,
                    vgg.layer(pair.consumer).name, words,
                    formatTime(pair.carriedLifetimeSeconds),
                    std::to_string(pair.addedRefreshOps),
                    formatEnergy(pair.savedEnergy)});
    }
    detail.print(std::cout);

    std::cout << "\nThe paper always drains outputs off-chip "
                 "(Section II-B); with RANA's buffer the chained "
                 "pairs that fit can skip the round trip, at the "
                 "cost of carrying their retention across the layer "
                 "boundary.\n";
}

} // namespace

RANA_BENCH("interlayer_reuse",
           "Extension - inter-layer output reuse on RANA*(E-5)",
           runInterlayerReuse);
