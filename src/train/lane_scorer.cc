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

namespace {

/** Samples per lane of a clean-cache forward (16 lanes x 2). */
constexpr std::uint32_t kCleanSamplesPerLane = 2;

/** An eval forward over `drawn`'s lanes, quantized to `format`. */
ForwardContext
evalContext(const FixedPointFormat &format, DrawnFailures &drawn)
{
    ForwardContext ctx;
    ctx.quant = &format;
    ctx.training = false;
    ctx.drawn = &drawn;
    return ctx;
}

/** `lanes` clean lanes: a forward over them applies no bit errors. */
DrawnFailures
cleanLanes(std::uint32_t lanes)
{
    DrawnFailures drawn;
    drawn.lanes.resize(lanes);
    return drawn;
}

/** Per-sample multiply-accumulates of weighted layers [first, end). */
std::uint64_t
macsFrom(const std::vector<WeightedLayerShape> &shapes, std::size_t first)
{
    std::uint64_t macs = 0;
    for (std::size_t w = first; w < shapes.size(); ++w)
        macs += shapes[w].macs;
    return macs;
}

/**
 * The lane-major input {n, dims..., lanes} of a forward whose lane l,
 * sample j reads the `words` floats at sources[l * n + j].
 */
Tensor
gatherInputs(const std::vector<std::uint32_t> &dims, std::size_t words,
             std::uint32_t n, std::uint32_t lanes,
             const std::vector<const float *> &sources)
{
    std::vector<std::uint32_t> shape{n};
    shape.insert(shape.end(), dims.begin(), dims.end());
    shape.push_back(lanes);
    Tensor out = Tensor::uninitialized(std::move(shape));
    std::vector<const float *> ptrs(lanes);
    for (std::uint32_t j = 0; j < n; ++j) {
        for (std::uint32_t l = 0; l < lanes; ++l)
            ptrs[l] = sources[l * n + j];
        packLanePointers(ptrs, words, out.data() + j * words * lanes);
    }
    return out;
}

/**
 * The weighted layers of `model` as a clean one-sample forward of
 * `image` ({1, ...}) meets them, all at level 0.
 */
std::vector<WeightedLayerShape>
shapePass(Layer &model, const FixedPointFormat &format, Tensor image)
{
    std::vector<WeightedLayerShape> shapes;
    DrawnFailures drawn = cleanLanes(1);
    drawn.shapes = &shapes;
    model.forward(std::move(image), evalContext(format, drawn));
    return shapes;
}

/**
 * `lane`'s draws over `samples` samples, from the injectors a forward
 * of its run seeds, in its order: per weighted layer, samples x input
 * words of activations, and the layer's weights.
 */
RunFailures
drawRun(const std::vector<WeightedLayerShape> &shapes,
        std::uint32_t samples, const ScoredLane &lane)
{
    RunFailures run(shapes.size());
    if (lane.activation.rate > 0.0) {
        BitErrorInjector injector(lane.activation.rate,
                                  lane.activation.seed);
        for (std::size_t w = 0; w < shapes.size(); ++w)
            run[w].activations =
                injector.drawFailures(shapes[w].inputWords * samples);
    }
    if (lane.weight.rate > 0.0) {
        BitErrorInjector injector(lane.weight.rate, lane.weight.seed);
        for (std::size_t w = 0; w < shapes.size(); ++w)
            run[w].weights = injector.drawFailures(shapes[w].weightWords);
    }
    return run;
}

/**
 * Per sample of `run` (over `samples` samples): the forward index of
 * its first weighted layer with a failure, in the layer's weights or
 * in the sample's window of its activations; shapes.size() for none.
 */
std::vector<std::size_t>
firstFailures(const RunFailures &run,
              const std::vector<WeightedLayerShape> &shapes,
              std::uint32_t samples)
{
    std::vector<std::size_t> first(samples, shapes.size());
    if (run.empty())
        return first;
    std::size_t weights = shapes.size();
    for (std::size_t w = 0; w < shapes.size() && weights == shapes.size();
         ++w) {
        if (!run[w].weights.empty())
            weights = w;
    }
    // Layers in forward order: a sample's first hit is its earliest.
    for (std::size_t w = 0; w < weights; ++w) {
        for (const WordFailure &failure : run[w].activations) {
            std::size_t &sample = first[failure.index / shapes[w].inputWords];
            sample = std::min(sample, w);
        }
    }
    for (std::size_t &sample : first)
        sample = std::min(sample, weights);
    return first;
}

/** One lane of a block: samples of one scored lane's run. */
struct BlockLane
{
    /** The scored lane, in its list. */
    std::size_t lane = 0;
    /** Its samples' run indices: the list plan's samples from here... */
    std::size_t offset = 0;
    /** ...this many. */
    std::uint32_t count = 0;
};

/** One forward: lanes of one list that start at one top-level layer. */
struct Block
{
    std::size_t list = 0;
    /** The top-level layer it starts at... */
    std::uint32_t level = 0;
    /** ...and the forward index of that layer's first weighted layer. */
    std::size_t firstWeighted = 0;
    /** At most kMaxKernelLanes. */
    std::vector<BlockLane> lanes;
    /** Samples per lane of its forward: the most of any lane. */
    std::uint32_t samples = 0;
    /** Multiply-accumulates of its forward, pads included. */
    std::uint64_t macs = 0;
};

/** What one list's blocks read beside the list itself. */
struct ListPlan
{
    /** The weighted layers' shapes without a cache. */
    std::vector<WeightedLayerShape> ownShapes;
    const std::vector<WeightedLayerShape> *shapes = nullptr;
    /** Per scored lane: its run's draws. */
    std::vector<RunFailures> runs;
    /** The run indices of every block lane's samples, lane after lane. */
    std::vector<std::uint32_t> samples;
};

/**
 * Resume and regroup list `m`: take the clean pairs' predictions into
 * `scores`, and append the list's blocks of at most `max_lanes` lanes
 * to `blocks`, their multiply-accumulates tallied in `scores`.
 */
void
planBlocks(std::size_t m, const LaneList &list, ListPlan &plan,
           std::uint32_t max_lanes, LaneScores &scores,
           std::vector<Block> &blocks)
{
    if (list.lanes.empty())
        return;
    const std::vector<WeightedLayerShape> &shapes = *plan.shapes;
    const std::uint32_t run = list.samplesPerLane;
    const std::size_t levels =
        list.clean != nullptr ? list.clean->model().size() : 1;
    // Per start layer: the block lanes that start there, each holding
    // at most kSampleTile samples stored from `offset` on.
    std::vector<std::vector<BlockLane>> starts(levels);
    auto cut = [&](std::size_t lane, std::size_t level,
                   std::size_t offset, std::size_t count) {
        for (std::size_t j = 0; j < count; j += kSampleTile)
            starts[level].push_back(
                {lane, offset + j,
                 static_cast<std::uint32_t>(
                     std::min<std::size_t>(kSampleTile, count - j))});
    };
    if (list.clean == nullptr) {
        // Every lane runs all its samples from layer 0, in order.
        plan.samples.resize(run);
        for (std::uint32_t s = 0; s < run; ++s)
            plan.samples[s] = s;
        for (std::size_t i = 0; i < list.lanes.size(); ++i)
            cut(i, 0, 0, run);
    } else {
        for (std::size_t i = 0; i < list.lanes.size(); ++i) {
            const std::vector<std::size_t> first =
                firstFailures(plan.runs[i], shapes, run);
            for (std::uint32_t s = 0; s < run; ++s) {
                if (first[s] < shapes.size())
                    continue;
                const std::uint32_t sample = list.lanes[i].first + s;
                ++scores.cleanPairs;
                scores.correct[m][i] += list.clean->prediction(sample) ==
                                                list.test->labels[sample]
                                            ? 1
                                            : 0;
            }
            // The resumed samples, start layer by start layer.
            for (std::size_t w = 0; w < shapes.size(); ++w) {
                if (w > 0 && shapes[w].level == shapes[w - 1].level)
                    continue;
                const std::size_t offset = plan.samples.size();
                for (std::uint32_t s = 0; s < run; ++s) {
                    if (first[s] < shapes.size() &&
                        shapes[first[s]].level == shapes[w].level)
                        plan.samples.push_back(s);
                }
                cut(i, shapes[w].level, offset,
                    plan.samples.size() - offset);
            }
        }
    }
    std::size_t first_weighted = 0;
    for (std::size_t level = 0; level < levels; ++level) {
        std::vector<BlockLane> &lanes = starts[level];
        // Lanes of like size share a block, so few samples are pads.
        const auto larger = [](const BlockLane &a, const BlockLane &b) {
            return a.count > b.count;
        };
        if (!std::is_sorted(lanes.begin(), lanes.end(), larger))
            std::stable_sort(lanes.begin(), lanes.end(), larger);
        while (first_weighted < shapes.size() &&
               shapes[first_weighted].level < level)
            ++first_weighted;
        const std::uint64_t sample_macs = macsFrom(shapes, first_weighted);
        for (std::size_t l = 0; l < lanes.size(); l += max_lanes) {
            Block &block = blocks.emplace_back();
            block.list = m;
            block.level = static_cast<std::uint32_t>(level);
            block.firstWeighted = first_weighted;
            block.lanes.assign(
                lanes.begin() + l,
                lanes.begin() + std::min(lanes.size(), l + max_lanes));
            block.samples = block.lanes.front().count;
            block.macs =
                sample_macs * block.samples *
                kernelLanes(static_cast<std::uint32_t>(block.lanes.size()));
            scores.forwardMacs += block.macs;
        }
    }
}

/**
 * Run `block` and return, lane by lane and sample by sample, whether
 * each was predicted correctly.
 */
std::vector<std::uint8_t>
runBlock(const Block &block, const LaneList &list, const ListPlan &plan)
{
    const auto count = static_cast<std::uint32_t>(block.lanes.size());
    const std::uint32_t width = kernelLanes(count);
    const std::uint32_t n = block.samples;
    const Tensor &images = list.test->images;
    const std::vector<std::uint32_t> dims =
        list.clean != nullptr
            ? list.clean->inputDims(block.level)
            : std::vector<std::uint32_t>(images.shape().begin() + 1,
                                         images.shape().end());
    std::size_t words = 1;
    for (const std::uint32_t dim : dims)
        words *= dim;

    // A pad sample repeats its lane's first, a pad lane the block's
    // first lane without its draws; neither is ever read.
    DrawnFailures drawn = cleanLanes(width);
    drawn.next = block.firstWeighted;
    std::vector<std::uint32_t> slots(static_cast<std::size_t>(width) * n);
    std::vector<const float *> sources(slots.size());
    for (std::uint32_t l = 0; l < width; ++l) {
        const BlockLane &lane = block.lanes[l < count ? l : 0];
        const std::uint32_t *samples = plan.samples.data() + lane.offset;
        const std::uint32_t first = list.lanes[lane.lane].first;
        if (l < count && !plan.runs[lane.lane].empty())
            drawn.lanes[l].run = &plan.runs[lane.lane];
        drawn.lanes[l].samples = {slots.data() + l * n, n};
        for (std::uint32_t j = 0; j < n; ++j) {
            const std::uint32_t s = samples[j < lane.count ? j : 0];
            slots[l * n + j] = s;
            sources[l * n + j] =
                list.clean != nullptr
                    ? list.clean->input(block.level, first + s)
                    : images.data() + (first + s) * words;
        }
    }

    const ForwardContext ctx = evalContext(*list.format, drawn);
    Tensor input = gatherInputs(dims, words, n, width, sources);
    const Tensor logits =
        block.level == 0
            ? list.skeleton->forward(std::move(input), ctx)
            : list.clean->model().forwardLayers(
                  std::move(input), ctx, block.level,
                  list.clean->model().size());
    std::vector<std::uint8_t> hits;
    for (std::uint32_t l = 0; l < count; ++l) {
        const BlockLane &lane = block.lanes[l];
        const std::uint32_t first = list.lanes[lane.lane].first;
        const std::vector<std::uint32_t> predicted =
            argmaxRows(extractTrialLane(logits, l));
        for (std::uint32_t j = 0; j < lane.count; ++j)
            hits.push_back(predicted[j] ==
                                   list.test->labels[first + slots[l * n + j]]
                               ? 1
                               : 0);
    }
    return hits;
}

} // namespace

CleanCache::CleanCache(Sequential &model, const FixedPointFormat &format,
                       const Batch &test, unsigned jobs)
    : model_(model), test_(test)
{
    const auto samples = static_cast<std::uint32_t>(test.labels.size());
    RANA_ASSERT(samples > 0 && test.images.dim(0) == samples,
                "a clean cache needs a labelled test batch");

    // The shape pass: sample 0 through one top-level layer at a time,
    // recording each layer's input and the weighted layers it runs.
    levels_.resize(model.size());
    {
        DrawnFailures drawn = cleanLanes(1);
        drawn.shapes = &shapes_;
        const ForwardContext ctx = evalContext(format, drawn);
        Tensor x = gatherLanes(test.images, {0}, 1);
        for (std::size_t k = 0; k < model.size(); ++k) {
            // Per sample: without the sample and lane dimensions.
            levels_[k].dims.assign(x.shape().begin() + 1,
                                   x.shape().end() - 1);
            levels_[k].words = x.size();
            const std::size_t recorded = shapes_.size();
            x = model.forwardLayers(std::move(x), ctx, k, k + 1);
            for (std::size_t w = recorded; w < shapes_.size(); ++w)
                shapes_[w].level = static_cast<std::uint32_t>(k);
        }
    }
    const std::uint64_t sample_macs = macsFrom(shapes_, 0);
    forwardMacs_ = sample_macs;
    // Every resume point past layer 0 keeps its inputs; layer 0 reads
    // the test images.
    for (const WeightedLayerShape &shape : shapes_) {
        Level &level = levels_[shape.level];
        if (shape.level > 0 && level.inputs.empty())
            level.inputs.resize(samples * level.words);
    }
    predictions_.resize(samples);

    // The cache pass: 16-lane forwards; lane l of forward f carries
    // samples f * 32 + l * 2 + {0, 1}, past-the-end ones clamped to
    // the last and never kept.
    const std::uint32_t n = kCleanSamplesPerLane;
    const std::uint32_t per_forward = kMaxKernelLanes * n;
    const std::uint32_t forwards = (samples + per_forward - 1) / per_forward;
    forwardMacs_ += sample_macs * per_forward * forwards;
    parallelFor(forwards, jobs, [&](std::size_t f) {
        std::vector<std::uint32_t> slots(per_forward);
        std::vector<const float *> sources(per_forward);
        for (std::uint32_t s = 0; s < per_forward; ++s) {
            slots[s] = static_cast<std::uint32_t>(f * per_forward + s);
            sources[s] = input(0, std::min(slots[s], samples - 1));
        }
        DrawnFailures drawn = cleanLanes(kMaxKernelLanes);
        const ForwardContext ctx = evalContext(format, drawn);
        Tensor x = gatherInputs(levels_[0].dims, levels_[0].words, n,
                                kMaxKernelLanes, sources);
        for (std::size_t k = 0; k < model.size(); ++k) {
            Level &level = levels_[k];
            // Keep slot s (lane s / n, sample s % n) of a resume point.
            for (std::uint32_t s = 0; s < per_forward; ++s) {
                if (level.inputs.empty() || slots[s] >= samples)
                    continue;
                const float *src = x.data() +
                                   (s % n) * level.words * kMaxKernelLanes +
                                   s / n;
                float *dst = level.inputs.data() + slots[s] * level.words;
                for (std::size_t i = 0; i < level.words; ++i)
                    dst[i] = src[i * kMaxKernelLanes];
            }
            x = model.forwardLayers(std::move(x), ctx, k, k + 1);
        }
        for (std::uint32_t l = 0; l < kMaxKernelLanes; ++l) {
            const std::vector<std::uint32_t> predicted =
                argmaxRows(extractTrialLane(x, l));
            for (std::uint32_t j = 0; j < n; ++j) {
                if (slots[l * n + j] < samples)
                    predictions_[slots[l * n + j]] = predicted[j];
            }
        }
    });
}

const float *
CleanCache::input(std::uint32_t level, std::uint32_t sample) const
{
    const Level &kept = levels_[level];
    if (level == 0)
        return test_.images.data() + sample * kept.words;
    RANA_ASSERT(!kept.inputs.empty(),
                "top-level layer ", level, " is no resume point");
    return kept.inputs.data() + sample * kept.words;
}

LaneScores
scoreLaneLists(std::span<const LaneList> lists, std::uint32_t block_lanes,
               unsigned jobs)
{
    RANA_ASSERT(block_lanes > 0, "lane blocks need at least one lane");
    const std::uint32_t max_lanes = std::min(block_lanes, kMaxKernelLanes);
    LaneScores scores;
    scores.correct.resize(lists.size());

    // The draw pass: every lane with a nonzero rate, fanned out.
    std::vector<ListPlan> plans(lists.size());
    std::vector<std::pair<std::size_t, std::size_t>> lanes;
    for (std::size_t m = 0; m < lists.size(); ++m) {
        const LaneList &list = lists[m];
        ListPlan &plan = plans[m];
        scores.correct[m].assign(list.lanes.size(), 0);
        if (list.lanes.empty())
            continue;
        if (list.clean != nullptr) {
            RANA_ASSERT(&list.clean->model() == list.skeleton,
                        "a clean cache serves its own model");
            plan.shapes = &list.clean->shapes();
        } else {
            plan.ownShapes =
                shapePass(*list.skeleton, *list.format,
                          gatherLanes(list.test->images,
                                      {list.lanes.front().first}, 1));
            plan.shapes = &plan.ownShapes;
        }
        // A lane with both rates 0 draws nothing: its run stays empty.
        plan.runs.resize(list.lanes.size());
        for (std::size_t i = 0; i < list.lanes.size(); ++i) {
            const ScoredLane &lane = list.lanes[i];
            if (lane.activation.rate > 0.0 || lane.weight.rate > 0.0)
                lanes.emplace_back(m, i);
        }
    }
    parallelFor(lanes.size(), jobs, [&](std::size_t k) {
        const auto [m, i] = lanes[k];
        plans[m].runs[i] = drawRun(*plans[m].shapes,
                                   lists[m].samplesPerLane,
                                   lists[m].lanes[i]);
    });

    // Resume and regroup, serially: the blocks and the counters depend
    // on the draws alone.
    std::vector<Block> blocks;
    for (std::size_t m = 0; m < lists.size(); ++m)
        planBlocks(m, lists[m], plans[m], max_lanes, scores, blocks);
    // The forward pass, the costliest blocks first.
    std::stable_sort(blocks.begin(), blocks.end(),
                     [](const Block &a, const Block &b) {
                         return a.macs > b.macs;
                     });
    std::vector<std::vector<std::uint8_t>> hits(blocks.size());
    parallelFor(blocks.size(), jobs, [&](std::size_t b) {
        hits[b] = runBlock(blocks[b], lists[blocks[b].list],
                           plans[blocks[b].list]);
    });
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        std::vector<std::uint32_t> &correct = scores.correct[blocks[b].list];
        std::size_t k = 0;
        for (const BlockLane &lane : blocks[b].lanes) {
            for (std::uint32_t j = 0; j < lane.count; ++j)
                correct[lane.lane] += hits[b][k++];
        }
    }
    return scores;
}

std::vector<std::uint32_t>
scoreLanes(Layer &skeleton, const FixedPointFormat &format,
           const Batch &test, std::uint32_t samples_per_lane,
           std::span<const ScoredLane> lanes)
{
    const LaneList list{&skeleton, &format, &test, samples_per_lane,
                        {lanes.begin(), lanes.end()}, nullptr};
    return std::move(
        scoreLaneLists({&list, 1}, kMaxKernelLanes, 1).correct.front());
}

} // namespace rana
