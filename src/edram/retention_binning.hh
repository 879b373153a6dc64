/**
 * @file
 * Extension: per-bank retention binning.
 *
 * The paper's controller programs ONE refresh interval (the
 * network's tolerable retention time) for all banks; the per-bank
 * flags only gate refresh on or off. Real eDRAM macros vary from
 * bank to bank, and post-fabrication retention tests can measure
 * each bank's actual capability: the interval at which the bank's
 * own failing-cell count stays within the tolerated budget.
 *
 * This extension models that finer control: each bank's capability
 * is sampled from the retention-time distribution via the order
 * statistic of its (k+1)-th weakest cell (k = tolerated failures
 * per bank), capabilities are quantized into a small number of bins
 * (one programmable divider per bin, Figure 14 generalized), and
 * every bank refreshes at its own bin's interval.
 *
 * The guarantee this buys is *per-bank*: no bank ever exceeds the
 * tolerated failing-cell budget in its own data. The paper's single
 * 734us interval only bounds the chip-wide average failure rate —
 * roughly half the banks individually exceed the budget. A designer
 * who needs the per-bank guarantee without binning must program the
 * weakest measured bank's capability chip-wide (the conservative
 * interval); binning recovers most of that cost: it sits between
 * the aggressive chip-average interval and the conservative
 * weakest-bank interval, approaching the former as bins increase.
 */

#ifndef RANA_EDRAM_RETENTION_BINNING_HH_
#define RANA_EDRAM_RETENTION_BINNING_HH_

#include <cstdint>
#include <vector>

#include "edram/buffer_system.hh"
#include "edram/refresh_controller.hh"
#include "edram/retention_distribution.hh"
#include "util/random.hh"

namespace rana {

/** Parameters of the binned controller. */
struct RetentionBinningParams
{
    /** Tolerated retention failure rate (from Stage 1 training). */
    double tolerableFailureRate = 1e-5;
    /** Number of refresh-interval bins (programmable dividers). */
    std::uint32_t numBins = 4;
    /** Sampling seed (stands in for the per-chip test results). */
    std::uint64_t seed = 1;
};

/** Sampled per-bank retention capabilities and their bins. */
class RetentionBinning
{
  public:
    RetentionBinning(const BufferGeometry &geometry,
                     const RetentionDistribution &distribution,
                     const RetentionBinningParams &params);

    /** Sampled capability of one bank, in seconds. */
    double bankCapability(std::uint32_t bank) const;

    /** Bin index of one bank. */
    std::uint32_t binOf(std::uint32_t bank) const;

    /** Refresh interval of one bin (its weakest member, clamped to
     *  at least the worst-case cell retention). */
    double binInterval(std::uint32_t bin) const;

    /** Number of bins. */
    std::uint32_t numBins() const;

    /** The uniform (chip-wide) tolerable interval for comparison. */
    double uniformInterval() const { return uniformInterval_; }

    /**
     * The conservative single interval delivering the same per-bank
     * guarantee without binning: the weakest bank's capability.
     */
    double conservativeInterval() const;

    /**
     * Refresh operations for one layer when the flagged data types'
     * banks refresh at their own bin intervals. Banks are assigned
     * to data types in allocation order (inputs, outputs, weights,
     * unused).
     */
    std::uint64_t
    refreshOpsForLayer(const LayerRefreshDemand &demand,
                       const std::array<bool, numDataTypes> &flags)
        const;

  private:
    BufferGeometry geometry_;
    double uniformInterval_;
    std::vector<double> capability_;
    std::vector<std::uint32_t> bin_;
    std::vector<double> binInterval_;
};

} // namespace rana

#endif // RANA_EDRAM_RETENTION_BINNING_HH_
