/**
 * @file
 * Implementation of the lane-block scorer.
 */

#include "train/lane_scorer.hh"

#include <algorithm>
#include <utility>

#include "train/loss.hh"
#include "train/trial_batch.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

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
        ctx.training = false;
        ctx.injectors.assign(width, nullptr);
        ctx.weightInjectors.assign(width, nullptr);
        std::vector<std::uint32_t> firsts(width, block[0].first);
        for (std::uint32_t l = 0; l < count; ++l) {
            const ScoredLane &lane = block[l];
            firsts[l] = lane.first;
            if (lane.activation.rate > 0.0) {
                ctx.injectors[l] = &injectors.emplace_back(
                    lane.activation.rate, lane.activation.seed);
            }
            if (lane.weight.rate > 0.0) {
                ctx.weightInjectors[l] = &injectors.emplace_back(
                    lane.weight.rate, lane.weight.seed);
            }
        }

        // The first tile draws every lane's failures over all of its
        // samples; later ones replay them and reuse its activation
        // buffers. A served one-sample lane is a one-tile block.
        SampleTiles tiles(samples_per_lane);
        ctx.tiles = &tiles;
        const BufferRecycler::Scope recycling;
        std::vector<std::uint32_t> tile_firsts(width);
        for (std::uint32_t offset = 0; offset < samples_per_lane;
             offset += kSampleTile) {
            const std::uint32_t tile =
                std::min(kSampleTile, samples_per_lane - offset);
            tiles.start(offset, tile);
            for (std::uint32_t l = 0; l < width; ++l)
                tile_firsts[l] = firsts[l] + offset;
            const Tensor logits = skeleton.forward(
                gatherLanes(test.images, tile_firsts, tile), ctx);
            for (std::uint32_t l = 0; l < count; ++l) {
                const std::vector<std::uint32_t> predicted =
                    argmaxRows(extractTrialLane(logits, l));
                for (std::uint32_t i = 0; i < tile; ++i)
                    correct[start + l] +=
                        predicted[i] == test.labels[tile_firsts[l] + i]
                            ? 1
                            : 0;
            }
        }
    }
    return correct;
}

std::vector<std::vector<std::uint32_t>>
scoreLaneLists(std::span<const LaneList> lists, std::uint32_t slice,
               unsigned jobs)
{
    RANA_ASSERT(slice > 0, "lane slices need at least one lane");
    std::vector<std::vector<std::uint32_t>> correct(lists.size());
    // (list, first lane) of every slice.
    std::vector<std::pair<std::size_t, std::size_t>> slices;
    for (std::size_t m = 0; m < lists.size(); ++m) {
        correct[m].resize(lists[m].lanes.size());
        for (std::size_t first = 0; first < lists[m].lanes.size();
             first += slice)
            slices.emplace_back(m, first);
    }
    parallelFor(slices.size(), jobs, [&](std::size_t k) {
        const auto [m, first] = slices[k];
        const LaneList &list = lists[m];
        const std::span<const ScoredLane> lanes = list.lanes;
        const std::vector<std::uint32_t> scored = scoreLanes(
            *list.skeleton, *list.format, *list.test,
            list.samplesPerLane,
            lanes.subspan(first, std::min<std::size_t>(
                                     slice, lanes.size() - first)));
        std::copy(scored.begin(), scored.end(),
                  correct[m].begin() + first);
    });
    return correct;
}

} // namespace rana
