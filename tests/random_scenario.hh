/**
 * @file
 * Shared generator of the randomized analytics/trace parity suites
 * (SimEquivalence, DataflowParity, PromotedWdParity): a random conv
 * layer and tiling, redrawn from the same seeded stream until the
 * closed-form analysis is feasible, so every instance checks a
 * schedulable scenario instead of skipping.
 */

#ifndef RANA_TESTS_RANDOM_SCENARIO_HH_
#define RANA_TESTS_RANDOM_SCENARIO_HH_

#include <cstdint>

#include "nn/model_zoo.hh"
#include "sim/pattern_analytics.hh"
#include "util/random.hh"

namespace rana {

/** One drawn layer/tiling pair and its feasible analysis. */
struct Scenario
{
    ConvLayerSpec layer;
    Tiling tiling;
    LayerAnalysis analysis;
};

/** Draw one random layer/tiling pair (feasible or not). */
inline void
drawScenario(Rng &rng, Scenario &s)
{
    const std::uint32_t k_options[] = {1, 1, 3, 3, 5, 7, 11};
    const std::uint32_t k =
        k_options[rng.uniformInt(std::uint64_t{7})];
    const std::uint32_t stride =
        1 + static_cast<std::uint32_t>(rng.uniformInt(std::uint64_t{2}));
    const std::uint32_t hw = static_cast<std::uint32_t>(
        rng.uniformInt(std::int64_t{k + stride}, 96));
    s.layer = makeConv("rand",
                       static_cast<std::uint32_t>(
                           rng.uniformInt(std::int64_t{1}, 256)),
                       hw,
                       static_cast<std::uint32_t>(
                           rng.uniformInt(std::int64_t{1}, 256)),
                       k, stride, k / 2);
    const std::uint32_t tilings[] = {1, 2, 4, 8, 16, 32};
    s.tiling.tm = tilings[rng.uniformInt(std::uint64_t{5})];
    s.tiling.tn = tilings[rng.uniformInt(std::uint64_t{6})];
    s.tiling.tr = tilings[rng.uniformInt(std::uint64_t{5})];
    s.tiling.tc = tilings[rng.uniformInt(std::uint64_t{5})];
}

/**
 * The first draw of the parity stream for `seed` whose analysis under
 * `spec` (with WD input promotion when `promote`) is feasible on
 * `config`. The search stops after 64 draws, returning the last
 * (infeasible) one; callers assert feasibility.
 */
inline Scenario
feasibleScenario(int seed, const AcceleratorConfig &config,
                 const DataflowSpec &spec, bool promote = false)
{
    Rng rng(static_cast<std::uint64_t>(seed) * 7919);
    Scenario s;
    for (int draw = 0; draw < 64; ++draw) {
        drawScenario(rng, s);
        s.analysis =
            analyzeLayer(config, s.layer, spec, s.tiling, promote);
        if (s.analysis.feasible)
            break;
    }
    return s;
}

} // namespace rana

#endif // RANA_TESTS_RANDOM_SCENARIO_HH_
