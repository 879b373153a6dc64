/**
 * @file
 * Reproduces Figure 7: per-layer data lifetime of ResNet under the
 * unoptimized ID pattern, against the 45us typical retention time
 * and the 734us tolerable retention time. Every layer's input
 * lifetime exceeds 45us, so refresh cannot be avoided without the
 * RANA techniques.
 */

#include "harness.hh"

#include <algorithm>

#include "sched/layer_scheduler.hh"
#include "util/ascii_chart.hh"

namespace {

/** Figure 7 - ResNet data lifetime before optimization (ID) */
void
runFig7Lifetime(rana::bench::BenchContext &ctx)
{
    (void)ctx;
    using namespace rana;
    using namespace rana::bench;


    const DesignPoint design =
        makeDesignPoint(DesignKind::EdramId, retention());
    const NetworkModel net = makeResNet50();
    const NetworkSchedule schedule =
        scheduleNetwork(design.config, net, design.options).valueOrDie();

    const double rt_typical = 45e-6;
    const double rt_tolerable = retention().retentionTimeFor(1e-5);

    TextTable table;
    table.header({"Layer", "LT inputs", "LT weights", "LT outputs",
                  ">45us?", ">734us?"});
    std::size_t above_typical = 0;
    std::size_t above_tolerable = 0;
    for (const auto &layer : schedule.layers) {
        const auto lt = layer.analysis.lifetimes();
        const double max_lt = std::max({lt[0], lt[1], lt[2]});
        above_typical += max_lt >= rt_typical;
        above_tolerable += max_lt >= rt_tolerable;
        table.row({layer.layerName, formatTime(lt[0]),
                   formatTime(lt[2]), formatTime(lt[1]),
                   max_lt >= rt_typical ? "yes" : "no",
                   max_lt >= rt_tolerable ? "yes" : "no"});
    }
    table.print(std::cout);

    // Figure-style log-scale scatter of each layer's longest data
    // lifetime against the two retention-time lines.
    LogScatter scatter(
        "\nLongest data lifetime per layer (log time axis)", 10e-6,
        20e-3);
    scatter.referenceLine("RT=45us", rt_typical);
    scatter.referenceLine("RT=734us", rt_tolerable);
    for (const auto &layer : schedule.layers) {
        const auto lt = layer.analysis.lifetimes();
        scatter.point(layer.layerName,
                      std::max({lt[0], lt[1], lt[2]}), 'o');
    }
    scatter.print(std::cout);

    std::cout << "\nLayers with lifetime >= 45us (typical RT): "
              << above_typical << "/" << schedule.layers.size()
              << "\nLayers with lifetime >= "
              << formatTime(rt_tolerable)
              << " (tolerable RT): " << above_tolerable << "/"
              << schedule.layers.size()
              << "\nPaper: all layers exceed 45us under ID; only a "
                 "few fall below 734us before the OD/WD "
                 "optimizations.\n";
}

} // namespace

RANA_BENCH("fig7_lifetime",
           "Figure 7 - ResNet data lifetime before optimization (ID)",
           runFig7Lifetime);
