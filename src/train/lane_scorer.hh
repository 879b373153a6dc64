/**
 * @file
 * The lane-block scorer: the one path that draws, regroups, pads,
 * injects and scores the lane-major forwards of a bound eval-only
 * model, and the one fan-out that runs lane lists across the thread
 * pool.
 *
 * A fault campaign's trials and a serving run's requests are both
 * lists of lanes. Each lane reads a run of test samples with its own
 * activation and weight bit-error rates and seeds: a campaign trial
 * reads the whole test batch (first 0, samplesPerLane = B), a served
 * request one sample (samplesPerLane = 1). A list is scored in four
 * steps:
 *
 *  - Draw pass. Each lane's two injectors draw its run's failures
 *    before any forward, weighted layer by weighted layer in forward
 *    order: the activation injector samplesPerLane x (per-sample
 *    input words) words per layer, the weight injector the layer's
 *    weight words. These are exactly the streams a forward of the
 *    whole run draws as it goes, since the draws depend only on
 *    counts (train/error_injection.hh). The word counts come from the
 *    list's clean cache or, without one, from a one-sample shape pass.
 *  - Resume. With a clean cache (CleanCache: the model's clean forward
 *    of the test batch, kept for one campaign call), each (lane,
 *    sample) pair starts at the first top-level layer where it meets a
 *    failure: one in that layer's weights, or in the sample's window
 *    of its activations. A nested inception or residual block is
 *    resumed at its own top-level index. A pair with no failure takes
 *    its clean prediction and runs nothing. Without a cache (serving,
 *    and scoreLanes) every pair starts at layer 0.
 *  - Regroup. A lane's pairs that start at one layer form forward
 *    lanes of at most kSampleTile samples. The forward lanes of one
 *    start layer, most samples first, form blocks of at most 16
 *    lanes; each block is padded to kernelLanes lanes and to its
 *    first lane's sample count. A block gathers its samples' inputs
 *    to its start layer (the cache's, or the test images at layer 0)
 *    and runs Sequential::forwardLayers from there. Every sample
 *    applies its own window of its run's draws, and a lane's weights
 *    are copied only when its run drew weight failures.
 *  - Forward pass. The blocks of every list run in one parallelFor,
 *    the most multiply-accumulates first.
 *
 * No kernel mixes lanes or samples, and every sample applies its
 * window of one draw of its run, so each lane's count equals that of
 * a 1-lane forward of its samples with freshly seeded injectors: how
 * a list is cut into blocks, forward lanes and start layers never
 * changes a count (the LaneBlocks and LaneResume suites assert it).
 */

#ifndef RANA_TRAIN_LANE_SCORER_HH_
#define RANA_TRAIN_LANE_SCORER_HH_

#include <cstdint>
#include <span>
#include <vector>

#include "train/dataset.hh"
#include "train/fixed_point.hh"
#include "train/layers.hh"

namespace rana {

/**
 * Most samples one lane of a block forward carries, so a block's
 * activations stay cache-sized. 32 measured fastest for MiniVgg
 * blocks of whole 128-sample trials, against 8, 16, 64 and 128.
 */
inline constexpr std::uint32_t kSampleTile = 32;

/** The bit-error draws of one operand class of one lane. */
struct LaneFaults
{
    /** Per-bit failure rate (0: no injection). */
    double rate = 0.0;
    /** Seed of the lane's injector. */
    std::uint64_t seed = 0;
};

/** One scored lane: its samples and its bit-error draws. */
struct ScoredLane
{
    /** First test sample; the lane reads samplesPerLane of them. */
    std::uint32_t first = 0;
    LaneFaults activation;
    LaneFaults weight;
};

/**
 * One model's clean forward of its test batch, kept so that scored
 * pairs resume at their first failure: the shapes of the weighted
 * layers (with the top-level layer each runs in), every sample's
 * input to each top-level layer that holds one (a resume point), and
 * every sample's clean prediction. For MiniVgg at 12 x 12 and 128
 * samples it holds about 1.2 MB.
 */
class CleanCache
{
  public:
    /**
     * Run `model` (bound to a store pre-quantized to `format`) clean
     * over every sample of `test`: a one-sample shape pass, then
     * 16-lane forwards of 32 samples fanned across up to `jobs` lanes.
     * The cache reads `model` and `test` later, so both must outlive
     * it.
     */
    CleanCache(Sequential &model, const FixedPointFormat &format,
               const Batch &test, unsigned jobs);

    CleanCache(const CleanCache &) = delete;
    CleanCache &operator=(const CleanCache &) = delete;

    Sequential &model() const { return model_; }

    /** The weighted layers, in forward order. */
    const std::vector<WeightedLayerShape> &shapes() const
    {
        return shapes_;
    }

    /** Per-sample dimensions of top-level layer `level`'s input. */
    const std::vector<std::uint32_t> &inputDims(std::uint32_t level) const
    {
        return levels_[level].dims;
    }

    /**
     * Test sample `sample`'s input to top-level layer `level`: a
     * resume point, or 0 (the test image).
     */
    const float *input(std::uint32_t level, std::uint32_t sample) const;

    /** Test sample `sample`'s clean prediction. */
    std::uint32_t prediction(std::uint32_t sample) const
    {
        return predictions_[sample];
    }

    /** Multiply-accumulates of the cache's own forwards, pads included. */
    std::uint64_t forwardMacs() const { return forwardMacs_; }

  private:
    /** One top-level layer's per-sample input. */
    struct Level
    {
        std::vector<std::uint32_t> dims;
        std::size_t words = 0;
        /** Sample-major inputs (resume points past layer 0 only). */
        std::vector<float> inputs;
    };

    Sequential &model_;
    const Batch &test_;
    std::vector<WeightedLayerShape> shapes_;
    std::vector<Level> levels_;
    std::vector<std::uint32_t> predictions_;
    std::uint64_t forwardMacs_ = 0;
};

/** The arguments of one model's whole lane list. */
struct LaneList
{
    Layer *skeleton = nullptr;
    const FixedPointFormat *format = nullptr;
    const Batch *test = nullptr;
    std::uint32_t samplesPerLane = 1;
    std::vector<ScoredLane> lanes;
    /**
     * The model's clean cache over `test`, whose model is `skeleton`
     * (null: every pair runs from layer 0).
     */
    const CleanCache *clean = nullptr;
};

/** What scoring lane lists counted. */
struct LaneScores
{
    /** Per list, per lane in order: its correct predictions. */
    std::vector<std::vector<std::uint32_t>> correct;
    /** Multiply-accumulates of the block forwards, pads included. */
    std::uint64_t forwardMacs = 0;
    /** (lane, sample) pairs that took their clean prediction. */
    std::uint64_t cleanPairs = 0;
};

/**
 * Score every list: one draw pass, then one parallelFor over the
 * blocks of every list across up to `jobs` lanes (1 runs inline),
 * each block at most `block_lanes` (capped at 16) lanes. Lane l of a
 * list reads samples [first, first + samplesPerLane) of its test
 * batch; its count is the number of them predicted correctly,
 * identical for any `block_lanes` and `jobs`, with or without a clean
 * cache. A lane draws activation (weight) failures only when its
 * activation (weight) rate is above 0.
 */
LaneScores scoreLaneLists(std::span<const LaneList> lists,
                          std::uint32_t block_lanes, unsigned jobs);

/**
 * scoreLaneLists on the one list `lanes` of `skeleton`, an eval-only
 * model bound to a weight store pre-quantized to `format`, without a
 * clean cache, in 16-lane blocks on the calling thread.
 */
std::vector<std::uint32_t> scoreLanes(Layer &skeleton,
                                      const FixedPointFormat &format,
                                      const Batch &test,
                                      std::uint32_t samples_per_lane,
                                      std::span<const ScoredLane> lanes);

} // namespace rana

#endif // RANA_TRAIN_LANE_SCORER_HH_
