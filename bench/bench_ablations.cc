/**
 * @file
 * Ablation studies on the design choices DESIGN.md calls out:
 *
 *  A. Refresh controller: conventional (always-on) vs gated-global
 *     vs per-bank flags vs per-bank retention binning.
 *  B. Computation pattern: pure ID / OD / WD vs the hybrid.
 *  C. Core timing model: the paper's aggregate-efficiency model vs
 *     the detailed array-mapped model.
 *  D. WD input-residency promotion on DaDianNao (on vs off).
 *  E. Performance extension: bandwidth-bound slowdown and refresh
 *     interference of each Table-IV design (quantifying the paper's
 *     "performance loss is negligible" claim).
 */

#include "harness.hh"

#include "dram/ddr3_model.hh"
#include "edram/retention_binning.hh"
#include "sched/layer_scheduler.hh"
#include "sim/performance_model.hh"

namespace {

using namespace rana;
using namespace rana::bench;

void
controllerAblation()
{
    std::cout << "\n[A] Refresh controller ablation (ResNet, hybrid "
                 "pattern)\n";
    const NetworkModel net = makeResNet50();
    TextTable table;
    table.header({"Interval", "Controller", "Refresh energy",
                  "Total energy"});
    for (double interval : {45e-6, 734e-6}) {
        for (RefreshPolicy policy : {RefreshPolicy::ConventionalAll,
                                     RefreshPolicy::GatedGlobal,
                                     RefreshPolicy::PerBank}) {
            DesignPoint design = makeDesignPoint(
                DesignKind::RanaStarE5, retention());
            design.options.policy = policy;
            design.options.refreshIntervalSeconds = interval;
            const DesignResult result =
                runDesignChecked(design, net).valueOrDie();
            table.row({formatTime(interval),
                       refreshPolicyName(policy),
                       formatEnergy(result.energy.refresh),
                       formatEnergy(result.energy.total())});
        }

        // Binned per-bank extension: per-bank guarantee cost.
        DesignPoint design =
            makeDesignPoint(DesignKind::RanaStarE5, retention());
        design.options.refreshIntervalSeconds = interval;
        const DesignResult base = runDesignChecked(design, net).valueOrDie();
        RetentionBinningParams params;
        params.tolerableFailureRate =
            retention().failureRateAt(interval);
        const RetentionBinning binning(design.config.buffer,
                                       retention(), params);
        std::uint64_t binned_ops = 0;
        for (const auto &layer : base.schedule.layers) {
            const LayerRefreshDemand demand = refreshDemand(
                design.config, layer.analysis);
            binned_ops += binning.refreshOpsForLayer(
                demand, layer.refreshFlags);
        }
        const double binned_energy =
            static_cast<double>(binned_ops) *
            energyTable65nm(MemoryTechnology::Edram).refreshOp;
        table.row({formatTime(interval), "per-bank binned (4 bins)",
                   formatEnergy(binned_energy),
                   formatEnergy(base.energy.total() -
                                base.energy.refresh + binned_energy)});
        table.rule();
    }
    table.print(std::cout);
}

void
patternAblation()
{
    std::cout << "\n[B] Computation pattern ablation (total energy, "
                 "normalized to hybrid)\n";
    TextTable table;
    table.header({"Network", "ID only", "OD only", "WD only",
                  "Hybrid OD+WD"});
    for (const NetworkModel &net : networks()) {
        std::vector<std::string> row = {net.name()};
        DesignPoint design =
            makeDesignPoint(DesignKind::RanaStarE5, retention());
        const double hybrid =
            runDesignChecked(design, net).valueOrDie().energy.total();
        for (DataflowKind dataflow : legacyDataflows()) {
            design.options.dataflows = {dataflow};
            row.push_back(
                ratio(runDesignChecked(design, net)
                          .valueOrDie()
                          .energy.total() /
                      hybrid));
        }
        row.push_back("1.000");
        table.row(row);
    }
    table.print(std::cout);
}

void
timingModelAblation()
{
    std::cout << "\n[C] Core timing model ablation (ResNet, "
                 "RANA*(E-5))\n";
    const NetworkModel net = makeResNet50();
    TextTable table;
    table.header({"Timing model", "Runtime", "Utilization",
                  "Total energy"});
    for (TimingModel timing : {TimingModel::AggregateEfficiency,
                               TimingModel::ArrayMapped}) {
        DesignPoint design =
            makeDesignPoint(DesignKind::RanaStarE5, retention());
        design.config.timing = timing;
        const DesignResult result = runDesignChecked(design, net).valueOrDie();
        const double utilization =
            static_cast<double>(net.totalMacs()) /
            (result.seconds *
             design.config.peakMacsPerSecond());
        table.row({timing == TimingModel::AggregateEfficiency
                       ? "aggregate eta=0.875 (paper)"
                       : "array-mapped (detailed)",
                   formatTime(result.seconds),
                   formatDouble(utilization, 3),
                   formatEnergy(result.energy.total())});
    }
    table.print(std::cout);
}

void
promotionAblation()
{
    std::cout << "\n[D] WD input-residency promotion (DaDianNao "
                 "baseline, ResNet)\n";
    const NetworkModel net = makeResNet50();
    const auto designs = daDianNaoDesigns(retention());
    TextTable table;
    table.header({"Promotion", "Off-chip energy", "Off-chip words",
                  "Total energy"});
    {
        const DesignResult result =
            runDesignChecked(designs[0], net).valueOrDie();
        table.row({"on (spare capacity pins inputs)",
                   formatEnergy(result.energy.offChipAccess),
                   std::to_string(result.counts.ddrAccesses),
                   formatEnergy(result.energy.total())});
    }
    {
        // Rebuild the baseline schedule without exploring promotion
        // by re-evaluating the same tiling choices unpromoted.
        DesignPoint design = designs[0];
        const NetworkSchedule schedule = scheduleNetwork(
            design.config, net, design.options).valueOrDie();
        OperationCounts counts;
        for (std::size_t i = 0; i < net.size(); ++i) {
            const LayerAnalysis unpromoted = analyzeLayer(
                design.config, net.layer(i),
                dataflowSpec(schedule.layers[i].dataflow()),
                schedule.layers[i].tiling(), false);
            counts += layerOperationCounts(
                design.config, net.layer(i), unpromoted,
                design.options.policy,
                design.options.refreshIntervalSeconds);
        }
        const EnergyBreakdown energy = computeEnergy(
            counts, energyTable65nm(MemoryTechnology::Edram));
        table.row({"off (halo re-read per RC tile)",
                   formatEnergy(energy.offChipAccess),
                   std::to_string(counts.ddrAccesses),
                   formatEnergy(energy.total())});
    }
    table.print(std::cout);
}

void
performanceAblation()
{
    std::cout << "\n[E] Performance extension: bandwidth and refresh "
                 "interference (ResNet, DDR3 ~10.2GB/s)\n";
    const NetworkModel net = makeResNet50();
    TextTable table;
    table.header({"Design", "Compute", "Memory", "Refresh busy",
                  "Bounded", "Slowdown"});
    for (const DesignPoint &design : tableIvDesigns(retention())) {
        const NetworkSchedule schedule = scheduleNetwork(
            design.config, net, design.options).valueOrDie();
        PerformanceReport total;
        for (std::size_t i = 0; i < net.size(); ++i) {
            total += evaluatePerformance(
                design.config, net.layer(i),
                schedule.layers[i].analysis, design.options.policy,
                design.options.refreshIntervalSeconds);
        }
        table.row({design.name, formatTime(total.computeSeconds),
                   formatTime(total.memorySeconds),
                   formatTime(total.refreshBusySeconds),
                   formatTime(total.boundedSeconds),
                   formatDouble(total.slowdown(), 3)});
    }
    table.print(std::cout);
    std::cout << "The paper asserts RANA's performance loss is "
                 "negligible; the bounded runtimes quantify it.\n";
}

void
dramModelAblation()
{
    std::cout << "\n[F] DDR3 substrate vs the paper's flat per-word "
                 "constant (ResNet, RANA*(E-5))\n";
    const Ddr3Model model;
    const double flat = 2112.9e-12;
    std::cout << describeDdr3Operating(model, flat) << "\n";

    const NetworkModel net = makeResNet50();
    const DesignPoint design =
        makeDesignPoint(DesignKind::RanaStarE5, retention());
    const DesignResult result = runDesignChecked(design, net).valueOrDie();
    const double words =
        static_cast<double>(result.counts.ddrAccesses);

    TextTable table;
    table.header({"Access pattern", "Row hits", "Burst util",
                  "Energy/word", "Off-chip energy"});
    struct Case { const char *name; double hit, util; };
    const Case cases[] = {
        {"paper flat constant", 0.0, 0.0},
        {"streamed tiles (best case)", 0.98, 1.0},
        {"mixed tile/halo traffic", 0.85, 0.5},
        {"scattered sub-burst access", 0.5, 0.125},
    };
    for (const Case &c : cases) {
        double per_word = flat;
        if (c.util > 0.0)
            per_word = model.marginalEnergyPerWord(c.hit, c.util);
        table.row({c.name,
                   c.util > 0.0 ? formatDouble(c.hit, 2) : "-",
                   c.util > 0.0 ? formatDouble(c.util, 3) : "-",
                   formatEnergy(per_word),
                   formatEnergy(per_word * words)});
    }
    table.print(std::cout);
    std::cout << "The flat CACTI constant sits at the pessimistic "
                 "end; an accelerator streaming whole tiles would "
                 "see a fraction of it, making RANA's on-chip wins "
                 "relatively smaller but leaving every ordering "
                 "intact.\n";
}

} // namespace

namespace {

/** Ablation studies (design choices and extensions) */
void
runAblations(rana::bench::BenchContext &ctx)
{
    (void)ctx;
    controllerAblation();
    patternAblation();
    timingModelAblation();
    promotionAblation();
    performanceAblation();
    dramModelAblation();
}

} // namespace

RANA_BENCH("ablations",
           "Ablation studies (design choices and extensions)",
           runAblations);
