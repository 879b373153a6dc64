/**
 * @file
 * The lane-block scorer: the one path that packs, pads, injects and
 * scores the lane-major forwards of a bound eval-only model, and the
 * one fan-out that runs lane lists across the thread pool.
 *
 * A fault campaign's trials and a serving run's requests are both
 * lists of lanes. Each lane reads a run of test samples and carries
 * its own activation and weight bit-error draws: a campaign trial
 * reads the whole test batch (first 0, samplesPerLane = B), a served
 * request one sample (samplesPerLane = 1). scoreLanes runs the list
 * as forwards of at most kMaxKernelLanes lanes, pads each to
 * kernelLanes, and counts every lane's correct predictions.
 * scoreLaneLists fans the slices of several lists (one per model)
 * out in one parallelFor.
 *
 * Every block runs as one forward per sample tile of at most
 * kSampleTile samples per lane, so its activations stay cache-sized.
 * The injectors' draws depend only on counts
 * (train/error_injection.hh), so the first tile draws each lane's
 * failures once over all of its samples, layer by layer, and keeps
 * them with each layer's weight operands; every tile applies the
 * failures in its sample window and reuses the weights (SampleTiles,
 * train/layer.hh). A served request's block is one tile.
 *
 * Lane l draws only from injectors seeded by its own seeds, each
 * exactly once and in the untiled order, and no kernel mixes lanes,
 * so each lane's count equals that of a 1-lane forward of its
 * samples with freshly seeded injectors: how a list is split into
 * slices, calls, forwards and tiles never changes a count (the
 * LaneBlocks suite asserts it).
 */

#ifndef RANA_TRAIN_LANE_SCORER_HH_
#define RANA_TRAIN_LANE_SCORER_HH_

#include <cstdint>
#include <span>
#include <vector>

#include "train/dataset.hh"
#include "train/fixed_point.hh"
#include "train/layer.hh"

namespace rana {

/**
 * Most samples per lane in one forward of a lane block: a block runs
 * as forwards of cache-sized sample tiles (SampleTiles). 32 measured
 * fastest on a MiniVgg campaign block, against 8, 16, 64 and the
 * untiled 128.
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
 * Score `lanes` on `skeleton`, an eval-only model bound to a weight
 * store pre-quantized to `format`: lane l reads the samples
 * [first, first + samples_per_lane) of `test`, and its entry of the
 * result is the number of them predicted correctly.
 *
 * Any lane count runs, as ceil(n / 16) blocks each padded to
 * kernelLanes; a pad lane repeats its block's first input, carries
 * null injectors and is never read. Each block runs as
 * ceil(samples_per_lane / kSampleTile) forwards. A lane gets an
 * activation (weight) injector only when its activation (weight)
 * rate is above 0.
 */
std::vector<std::uint32_t> scoreLanes(Layer &skeleton,
                                      const FixedPointFormat &format,
                                      const Batch &test,
                                      std::uint32_t samples_per_lane,
                                      std::span<const ScoredLane> lanes);

/** The scoreLanes arguments of one model's whole lane list. */
struct LaneList
{
    Layer *skeleton = nullptr;
    const FixedPointFormat *format = nullptr;
    const Batch *test = nullptr;
    std::uint32_t samplesPerLane = 1;
    std::vector<ScoredLane> lanes;
};

/**
 * Score every list, each cut into `slice`-lane slices: one
 * parallelFor over all slices across up to `jobs` lanes (1 runs
 * inline), one scoreLanes call per slice. Entry m holds list m's
 * counts in lane order, identical for any `slice` and `jobs`.
 */
std::vector<std::vector<std::uint32_t>>
scoreLaneLists(std::span<const LaneList> lists, std::uint32_t slice,
               unsigned jobs);

} // namespace rana

#endif // RANA_TRAIN_LANE_SCORER_HH_
