/**
 * @file
 * Implementation of the tiling candidate enumeration.
 */

#include "sched/tiling_search.hh"

#include <algorithm>

namespace rana {

std::vector<std::uint32_t>
dimensionCandidates(std::uint32_t extent, std::uint32_t cap)
{
    const std::uint32_t limit = std::min(extent, cap);
    std::vector<std::uint32_t> values;
    // Divisors of the extent.
    for (std::uint32_t d = 1; d <= limit; ++d) {
        if (extent % d == 0)
            values.push_back(d);
    }
    // Powers of two.
    for (std::uint32_t p = 1; p <= limit; p *= 2)
        values.push_back(p);
    // The full (clamped) extent.
    values.push_back(limit);

    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()),
                 values.end());
    // Bound the candidate count to keep the search tractable: keep
    // the smallest, the largest and an even subsample in between.
    constexpr std::size_t max_candidates = 12;
    if (values.size() > max_candidates) {
        std::vector<std::uint32_t> pruned;
        for (std::size_t i = 0; i < max_candidates; ++i) {
            const std::size_t index =
                i * (values.size() - 1) / (max_candidates - 1);
            pruned.push_back(values[index]);
        }
        pruned.erase(std::unique(pruned.begin(), pruned.end()),
                     pruned.end());
        values = std::move(pruned);
    }
    return values;
}

std::vector<Tiling>
tilingCandidates(const AcceleratorConfig &config,
                 const ConvLayerSpec &layer)
{
    const auto tm_values = dimensionCandidates(layer.m, config.peRows);
    const auto tn_values = dimensionCandidates(layer.n, layer.n);
    const auto tr_values = dimensionCandidates(layer.r(), layer.r());
    const auto tc_values = dimensionCandidates(layer.c(), layer.c());

    const std::uint64_t k2 =
        static_cast<std::uint64_t>(layer.k) * layer.k;

    std::vector<Tiling> candidates;
    for (std::uint32_t tm : tm_values) {
        for (std::uint32_t tn : tn_values) {
            if (static_cast<std::uint64_t>(tm) * tn * k2 >
                config.localWeightWords) {
                continue;
            }
            for (std::uint32_t tr : tr_values) {
                const std::uint64_t th = layer.inputPatchH(tr);
                for (std::uint32_t tc : tc_values) {
                    const std::uint64_t tl = layer.inputPatchW(tc);
                    if (static_cast<std::uint64_t>(tm) * tr * tc >
                        config.localOutputWords) {
                        continue;
                    }
                    if (static_cast<std::uint64_t>(tn) * th * tl >
                        config.localInputWords) {
                        continue;
                    }
                    candidates.push_back(Tiling{tm, tn, tr, tc});
                }
            }
        }
    }
    return candidates;
}

std::vector<DataflowChoice>
dataflowChoices(const AcceleratorConfig &config,
                const ConvLayerSpec &layer,
                const SchedulerOptions &options)
{
    std::vector<Tiling> tilings;
    if (options.fixedTiling) {
        tilings.push_back(*options.fixedTiling);
    } else {
        tilings = tilingCandidates(config, layer);
    }

    const std::vector<DataflowKind> &dataflows = options.dataflows;
    std::vector<DataflowChoice> choices;
    choices.reserve(tilings.size() * dataflows.size() * 2);
    for (DataflowKind dataflow : dataflows) {
        for (const Tiling &tiling : tilings) {
            choices.push_back({dataflow, tiling, false});
            if (dataflow == DataflowKind::WD)
                choices.push_back({dataflow, tiling, true});
        }
    }
    return choices;
}

} // namespace rana
