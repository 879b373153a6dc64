/**
 * @file
 * Reproduces Figure 16: accelerator energy (total minus off-chip
 * access) of eD+ID / eD+OD / RANA(0) on ResNet as the retention
 * time grows from 45us to 1440us. OD's shorter lifetimes let more
 * layers meet "Data Lifetime < Retention Time" and drop refresh
 * faster than ID as the interval grows.
 */

#include "harness.hh"

namespace {

/** Figure 16 - accelerator energy vs retention time (ResNet) */
void
runFig16RtSweep(rana::bench::BenchContext &ctx)
{
    (void)ctx;
    using namespace rana;
    using namespace rana::bench;


    const NetworkModel net = makeResNet50();
    const std::vector<double> retention_times = {
        45e-6, 90e-6, 180e-6, 360e-6, 720e-6, 1440e-6};
    const DesignKind kinds[] = {DesignKind::EdramId,
                                DesignKind::EdramOd,
                                DesignKind::Rana0};

    // Normalize to eD+ID at RT = 45us.
    DesignPointParams base_params;
    base_params.retentionSeconds = 45e-6;
    const double base =
        runDesignChecked(makeDesignPoint(DesignKind::EdramId, retention(),
                                  base_params),
                  net).valueOrDie()
            .energy.acceleratorEnergy();

    TextTable table;
    table.header({"RT", "Design", "Computing", "Buffer", "Refresh",
                  "Accel. energy", "Normalized"});
    for (double rt : retention_times) {
        for (DesignKind kind : kinds) {
            DesignPointParams params;
            params.retentionSeconds = rt;
            const DesignPoint design =
                makeDesignPoint(kind, retention(), params);
            const DesignResult result =
                runDesignChecked(design, net).valueOrDie();
            const EnergyBreakdown &e = result.energy;
            table.row({formatTime(rt), design.name,
                       formatEnergy(e.computing),
                       formatEnergy(e.bufferAccess),
                       formatEnergy(e.refresh),
                       formatEnergy(e.acceleratorEnergy()),
                       ratio(e.acceleratorEnergy() / base)});
        }
        table.rule();
    }
    table.print(std::cout);

    // Paper's spot checks: 90us -> 180us refresh reductions.
    auto refresh_at = [&](DesignKind kind, double rt) {
        DesignPointParams params;
        params.retentionSeconds = rt;
        return runDesignChecked(makeDesignPoint(kind, retention(), params),
                         net).valueOrDie()
            .energy.refresh;
    };
    const double id_drop = 1.0 - refresh_at(DesignKind::EdramId,
                                            180e-6) /
                                     refresh_at(DesignKind::EdramId,
                                                90e-6);
    const double od_drop = 1.0 - refresh_at(DesignKind::EdramOd,
                                            180e-6) /
                                     refresh_at(DesignKind::EdramOd,
                                                90e-6);
    std::cout << "\nRefresh energy drop from RT=90us to 180us: eD+ID "
              << formatPercent(id_drop) << " (paper: 50.0%), eD+OD "
              << formatPercent(od_drop) << " (paper: 80.1%).\n";
}

} // namespace

RANA_BENCH("fig16_rt_sweep",
           "Figure 16 - accelerator energy vs retention time (ResNet)",
           runFig16RtSweep);
