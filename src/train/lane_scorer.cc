/**
 * @file
 * Implementation of the lane-block scorer.
 */

#include "train/lane_scorer.hh"

#include <algorithm>

#include "train/loss.hh"
#include "train/trial_batch.hh"

namespace rana {

std::vector<std::uint32_t>
scoreLanes(Layer &skeleton, const FixedPointFormat &format,
           const Batch &test, std::uint32_t samples_per_lane,
           std::span<const ScoredLane> lanes)
{
    std::vector<std::uint32_t> correct(lanes.size(), 0);
    for (std::size_t start = 0; start < lanes.size();
         start += kMaxKernelLanes) {
        const std::span<const ScoredLane> block = lanes.subspan(
            start, std::min<std::size_t>(kMaxKernelLanes,
                                         lanes.size() - start));
        const auto count = static_cast<std::uint32_t>(block.size());
        const std::uint32_t width = kernelLanes(count);

        // Reserved, so the injector pointers stay valid.
        std::vector<BitErrorInjector> injectors;
        injectors.reserve(2 * count);
        ForwardContext ctx;
        ctx.quant = &format;
        ctx.weightsPreQuantized = true;
        ctx.training = false;
        ctx.injectors.assign(width, nullptr);
        ctx.weightInjectors.assign(width, nullptr);
        std::vector<std::uint32_t> firsts(width, block[0].first);
        for (std::uint32_t l = 0; l < count; ++l) {
            const ScoredLane &lane = block[l];
            firsts[l] = lane.first;
            // A faulty lane gets both injectors, even at rate 0 on
            // one side: a lane without a weight injector would
            // corrupt its weights with its activation injector.
            if (lane.activation.rate > 0.0 || lane.weight.rate > 0.0) {
                ctx.injectors[l] = &injectors.emplace_back(
                    lane.activation.rate, lane.activation.seed);
                ctx.weightInjectors[l] = &injectors.emplace_back(
                    lane.weight.rate, lane.weight.seed);
            }
        }

        const Tensor logits = skeleton.forward(
            gatherLanes(test.images, firsts, samples_per_lane), ctx);
        for (std::uint32_t l = 0; l < count; ++l) {
            const std::vector<std::uint32_t> predicted =
                argmaxRows(extractTrialLane(logits, l));
            for (std::uint32_t i = 0; i < samples_per_lane; ++i)
                correct[start + l] +=
                    predicted[i] == test.labels[firsts[l] + i] ? 1 : 0;
        }
    }
    return correct;
}

} // namespace rana
