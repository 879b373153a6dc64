/**
 * @file
 * Implementation of per-bank retention binning.
 */

#include "edram/retention_binning.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace rana {

namespace {

/** Bits per 16-bit word. */
constexpr double bitsPerWord = 16.0;

/** Exponential(1) deviate. */
double
sampleExponential(Rng &rng)
{
    return -std::log(1.0 - rng.uniform());
}

} // namespace

RetentionBinning::RetentionBinning(
    const BufferGeometry &geometry,
    const RetentionDistribution &distribution,
    const RetentionBinningParams &params)
    : geometry_(geometry)
{
    RANA_ASSERT(params.numBins >= 1, "need at least one bin");
    RANA_ASSERT(params.tolerableFailureRate > 0.0,
                "binning needs a positive failure budget");

    uniformInterval_ =
        distribution.retentionTimeFor(params.tolerableFailureRate);

    const double cells_per_bank =
        static_cast<double>(geometry.bankWords()) * bitsPerWord;
    // Tolerated failing cells per bank at the budgeted rate.
    const auto budget = static_cast<std::uint32_t>(
        std::floor(params.tolerableFailureRate * cells_per_bank));

    Rng rng(params.seed);
    capability_.resize(geometry.numBanks);
    for (double &cap : capability_) {
        // The (budget+1)-th weakest cell of the bank: its cumulative
        // failure-rate position is Gamma(budget+1) / cells (the
        // standard order-statistic construction for the extreme
        // tail), mapped back through the inverse distribution.
        double gamma = 0.0;
        for (std::uint32_t i = 0; i <= budget; ++i)
            gamma += sampleExponential(rng);
        const double rate_position = gamma / cells_per_bank;
        cap = distribution.retentionTimeFor(std::max(
            rate_position, distribution.points().front().failureRate));
        // A bank is never operated above the chip-wide budget rate's
        // 99.9th percentile; conservative clamp to 4x uniform keeps
        // the tail sampling inside the characterized region.
        cap = std::min(cap, 4.0 * uniformInterval_);
    }

    // Geometric bin edges between the weakest and strongest bank;
    // each bin refreshes at its weakest member's capability.
    const double lo =
        *std::min_element(capability_.begin(), capability_.end());
    const double hi =
        *std::max_element(capability_.begin(), capability_.end());
    binInterval_.assign(params.numBins, hi);
    bin_.resize(geometry.numBanks);
    const double log_lo = std::log(lo);
    const double log_span = std::max(1e-12, std::log(hi) - log_lo);
    for (std::uint32_t b = 0; b < geometry.numBanks; ++b) {
        const double position =
            (std::log(capability_[b]) - log_lo) / log_span;
        auto bin = static_cast<std::uint32_t>(
            position * params.numBins);
        bin = std::min(bin, params.numBins - 1);
        bin_[b] = bin;
        binInterval_[bin] = std::min(binInterval_[bin],
                                     capability_[b]);
    }
}

double
RetentionBinning::bankCapability(std::uint32_t bank) const
{
    RANA_ASSERT(bank < capability_.size(), "bank index out of range");
    return capability_[bank];
}

std::uint32_t
RetentionBinning::binOf(std::uint32_t bank) const
{
    RANA_ASSERT(bank < bin_.size(), "bank index out of range");
    return bin_[bank];
}

double
RetentionBinning::binInterval(std::uint32_t bin) const
{
    RANA_ASSERT(bin < binInterval_.size(), "bin index out of range");
    return binInterval_[bin];
}

std::uint32_t
RetentionBinning::numBins() const
{
    return static_cast<std::uint32_t>(binInterval_.size());
}

std::uint64_t
RetentionBinning::refreshOpsForLayer(
    const LayerRefreshDemand &demand,
    const std::array<bool, numDataTypes> &flags) const
{
    const std::uint64_t bank_words = geometry_.bankWords();
    std::uint64_t ops = 0;
    std::uint32_t bank = 0;
    for (std::size_t type = 0; type < numDataTypes; ++type) {
        for (std::uint32_t i = 0; i < demand.allocation.banks[type];
             ++i, ++bank) {
            if (!flags[type])
                continue;
            // Refresh at the bank's own bin interval; a bank whose
            // capability exceeds the data lifetime needs no refresh
            // at all (lifetime < its retention).
            const double interval = binInterval_[bin_[bank]];
            if (demand.lifetimeSeconds[type] < interval)
                continue;
            ops += refreshPulses(demand.layerSeconds, interval) *
                   bank_words;
        }
    }
    return ops;
}

double
RetentionBinning::conservativeInterval() const
{
    return *std::min_element(capability_.begin(), capability_.end());
}

} // namespace rana
