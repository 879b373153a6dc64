/**
 * @file
 * Reproduces Figure 18: sensitivity to buffer capacity. System
 * energy of RANA (E-5) (gated-global controller) and RANA*(E-5)
 * (per-bank refresh flags) with the eDRAM buffer swept from 0.25x
 * to 8x of the equal-area 46-bank capacity.
 *
 * With the conventional controller, growing the buffer keeps adding
 * refresh energy for unused banks; the refresh-optimized controller
 * stays flat once the intermediate data fits.
 */

#include "harness.hh"

namespace {

/** Figure 18 - sensitivity to buffer capacity */
void
runFig18CapacitySweep(rana::bench::BenchContext &ctx)
{
    (void)ctx;
    using namespace rana;
    using namespace rana::bench;


    // 0.25x .. 8x of the 46-bank (~1.45MB) baseline.
    const std::vector<std::uint32_t> bank_counts = {11, 23, 46,
                                                    92, 184, 368};
    const auto &nets = networks();

    for (DesignKind kind : {DesignKind::RanaE5,
                            DesignKind::RanaStarE5}) {
        std::cout << "\n--- "
                  << designKindName(kind)
                  << " ---\n";
        TextTable table;
        {
            std::vector<std::string> header = {"Capacity"};
            for (const auto &net : nets) {
                header.push_back(net.name());
                header.push_back("(refresh)");
            }
            table.header(header);
        }

        // Normalize per network to this design at the 46-bank point.
        std::vector<double> base(nets.size(), 0.0);
        {
            DesignPointParams params;
            params.edramBanks = 46;
            const DesignPoint design =
                makeDesignPoint(kind, retention(), params);
            for (std::size_t n = 0; n < nets.size(); ++n)
                base[n] = runDesignChecked(design, nets[n])
                              .valueOrDie()
                              .energy.total();
        }

        for (std::uint32_t banks : bank_counts) {
            DesignPointParams params;
            params.edramBanks = banks;
            const DesignPoint design =
                makeDesignPoint(kind, retention(), params);
            std::vector<std::string> row = {formatBytes(
                design.config.buffer.capacityBytes())};
            for (std::size_t n = 0; n < nets.size(); ++n) {
                const DesignResult result =
                    runDesignChecked(design, nets[n]).valueOrDie();
                row.push_back(ratio(result.energy.total() / base[n]));
                row.push_back(formatPercent(result.energy.refresh /
                                            result.energy.total()));
            }
            table.row(row);
        }
        table.print(std::cout);
    }

    // Paper's spot check: refresh energy reduction of RANA* over
    // RANA (E-5) across the sweep.
    std::cout << "\nRefresh energy of RANA*(E-5) vs RANA (E-5) per "
                 "capacity point (summed over networks):\n";
    TextTable saved;
    saved.header({"Capacity", "RANA (E-5) refresh",
                  "RANA*(E-5) refresh", "saved"});
    for (std::uint32_t banks : bank_counts) {
        DesignPointParams params;
        params.edramBanks = banks;
        double gated = 0.0;
        double per_bank = 0.0;
        const DesignPoint d_gated =
            makeDesignPoint(DesignKind::RanaE5, retention(), params);
        const DesignPoint d_star = makeDesignPoint(
            DesignKind::RanaStarE5, retention(), params);
        for (const auto &net : nets) {
            gated += runDesignChecked(d_gated, net)
                .valueOrDie().energy.refresh;
            per_bank += runDesignChecked(d_star, net)
                .valueOrDie().energy.refresh;
        }
        saved.row({formatBytes(d_gated.config.buffer.capacityBytes()),
                   formatEnergy(gated), formatEnergy(per_bank),
                   gated > 0.0
                       ? formatPercent(1.0 - per_bank / gated)
                       : "-"});
    }
    saved.print(std::cout);
    std::cout << "\nPaper: 65.5-92.3% of RANA (E-5)'s refresh energy "
                 "removed by the refresh-optimized controller; with "
                 "1.454MB no benchmark needs extra off-chip access.\n";
}

} // namespace

RANA_BENCH("fig18_capacity_sweep",
           "Figure 18 - sensitivity to buffer capacity",
           runFig18CapacitySweep);
