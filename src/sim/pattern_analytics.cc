/**
 * @file
 * Implementation of the closed-form layer analysis.
 */

#include "sim/pattern_analytics.hh"

#include <algorithm>
#include <cmath>

#include "sim/pe_array_model.hh"
#include "util/logging.hh"

namespace rana {

namespace {

constexpr std::size_t kInput = static_cast<std::size_t>(DataType::Input);
constexpr std::size_t kOutput =
    static_cast<std::size_t>(DataType::Output);
constexpr std::size_t kWeight =
    static_cast<std::size_t>(DataType::Weight);

/** Natural and fully-streamed traffic for one data type. */
struct TrafficBounds
{
    double naturalReads = 0.0;
    double streamedReads = 0.0;
    double naturalWrites = 0.0;
    double streamedWrites = 0.0;
};

} // namespace

const TypeAnalysis &
LayerAnalysis::of(DataType type) const
{
    return types[static_cast<std::size_t>(type)];
}

TypeAnalysis &
LayerAnalysis::of(DataType type)
{
    return types[static_cast<std::size_t>(type)];
}

double
LayerAnalysis::totalDramWords() const
{
    double total = 0.0;
    for (const auto &type : types)
        total += type.dramReadWords + type.dramWriteWords;
    return total;
}

bool
LayerAnalysis::spilled() const
{
    for (const auto &type : types) {
        if (type.residentFraction < 1.0)
            return true;
    }
    return false;
}

std::array<double, numDataTypes>
LayerAnalysis::lifetimes() const
{
    return {types[0].lifetimeSeconds, types[1].lifetimeSeconds,
            types[2].lifetimeSeconds};
}

std::array<int, numDataTypes>
LayerAnalysis::reuseLevels() const
{
    std::array<int, numDataTypes> levels = spec().reuseLevel;
    if (inputsPromoted)
        levels[kInput] = 0;
    return levels;
}

LayerAnalysis
analyzeLayer(const AcceleratorConfig &config, const ConvLayerSpec &layer,
             const DataflowSpec &spec, const Tiling &tiling,
             bool promote_inputs)
{
    LayerAnalysis analysis;
    analysis.dataflow = spec.kind;
    analysis.inputsPromoted =
        promote_inputs && spec.kind == DataflowKind::WD;
    analysis.tiling = clampTiling(tiling, layer);
    const Tiling &t = analysis.tiling;

    const TileSizes tiles = tileSizes(layer, t);

    // Core local storage constraints (Figure 13): every dataflow runs
    // the same core tile.
    if (tiles.input > config.localInputWords) {
        analysis.infeasibleReason = "input tile exceeds Ri";
        return analysis;
    }
    if (tiles.output > config.localOutputWords) {
        analysis.infeasibleReason = "output tile exceeds Ro";
        return analysis;
    }
    if (tiles.weight > config.localWeightWords) {
        analysis.infeasibleReason = "weight tile exceeds Rw";
        return analysis;
    }

    // Timing: the tile time and the nested loop level times. The
    // systolic skew is folded into the tile time and the preload is
    // paid once per 1st-level pass; both are exact zeros otherwise.
    const TripCounts trips = tripCounts(layer, t);
    const SystolicTiming timing =
        dataflowTileTiming(config, layer, t, spec);
    const std::array<std::uint64_t, 3> trip = {
        tripOf(trips, spec.order[0]), tripOf(trips, spec.order[1]),
        tripOf(trips, spec.order[2])};
    const double t1 =
        static_cast<double>(trip[2]) * timing.tile.seconds +
        timing.preloadSeconds;
    const double t2 = static_cast<double>(trip[1]) * t1;
    const double t3 = static_cast<double>(trip[0]) * t2;
    analysis.levelSeconds = {t1, t2, t3};
    analysis.layerSeconds = t3;
    analysis.utilization = static_cast<double>(layer.macs()) /
                           (t3 * config.peakMacsPerSecond());

    const auto total_tiles = static_cast<double>(trips.total());
    const auto passes = static_cast<double>(trip[0] * trip[1]);

    const auto tile_in = static_cast<double>(tiles.input);
    const auto tile_out = static_cast<double>(tiles.output);
    const auto tile_w = static_cast<double>(tiles.weight);

    const std::uint64_t th = layer.inputPatchH(t.tr);
    const std::uint64_t tl = layer.inputPatchW(t.tc);

    // Reuse levels and per-axis loop positions.
    const std::array<int, numDataTypes> levels = analysis.reuseLevels();
    const int p_in = levels[kInput];
    const int p_out = levels[kOutput];
    const int p_w = levels[kWeight];
    const int pos_m = spec.positionOf(LoopAxis::M);
    const int pos_n = spec.positionOf(LoopAxis::N);
    const int pos_rc = spec.positionOf(LoopAxis::RC);

    // Natural storage (Equations 1-3, 6-8, 11-13): tile extent for
    // dependence axes ordered outside the reuse level, full extent
    // for the others.
    std::array<std::uint64_t, numDataTypes> natural_bs = {0, 0, 0};
    natural_bs[kInput] =
        (pos_n < p_in ? t.tn : layer.n) *
        (pos_rc < p_in ? th * tl
                       : static_cast<std::uint64_t>(layer.h) *
                             layer.l);
    natural_bs[kWeight] =
        static_cast<std::uint64_t>(pos_m < p_w ? t.tm : layer.m) *
        (pos_n < p_w ? t.tn : layer.n) *
        static_cast<std::uint64_t>(layer.k) * layer.k;
    natural_bs[kOutput] =
        (pos_m < p_out ? t.tm : layer.m) *
        (pos_rc < p_out
             ? static_cast<std::uint64_t>(t.tr) * t.tc
             : static_cast<std::uint64_t>(layer.r()) * layer.c());
    std::array<std::uint64_t, numDataTypes> floor_bs = {
        tiles.input, tiles.output, tiles.weight};

    // Core traffic: a core-pinned input or weight tile loads once per
    // 1st-level pass, every other operand tile once per inner tile.
    const DataType pinned = spec.arrayTile();
    const double core_load_in =
        (pinned == DataType::Input ? passes : total_tiles) * tile_in;
    const double core_load_w =
        (pinned == DataType::Weight ? passes : total_tiles) * tile_w;

    // Outputs: at p=2 they complete inside the core and store once
    // per tile position; at p<2 partial sums store on every visit
    // and reload on every revisit.
    const auto out_visits = static_cast<double>(
        trip[static_cast<std::size_t>(p_out)]);
    double core_store_out = 0.0;
    double partial_reload_out = 0.0;
    double natural_out_writes = 0.0;
    if (p_out == 2) {
        core_store_out = passes * tile_out;
        natural_out_writes = core_store_out;
    } else {
        core_store_out = total_tiles * tile_out;
        const double tiles_per_visit = total_tiles / out_visits;
        natural_out_writes = tiles_per_visit * tile_out;
        partial_reload_out =
            (out_visits - 1.0) * tiles_per_visit * tile_out;
    }

    // Off-chip staging of the natural sets counts the channel words
    // that exist, so a ragged M/N edge tile is never charged as a
    // full tile. Inputs re-read their full halo patch per RC tile
    // when Loop RC is ordered outside their reuse level (the paper's
    // WD form) and are read once otherwise; weights are read once.
    std::array<TrafficBounds, numDataTypes> bounds;
    bounds[kInput].naturalReads =
        static_cast<double>(layer.n) *
        static_cast<double>(pos_rc < p_in
                                ? trips.nrc() * th * tl
                                : static_cast<std::uint64_t>(layer.h) *
                                      layer.l);
    bounds[kWeight].naturalReads =
        static_cast<double>(layer.weightWords());
    bounds[kInput].streamedReads = core_load_in;
    bounds[kWeight].streamedReads = core_load_w;
    bounds[kOutput].naturalWrites = natural_out_writes;
    bounds[kOutput].streamedWrites = core_store_out;
    bounds[kOutput].streamedReads = partial_reload_out;

    // Residency solve. Residency is all-or-nothing per data type: a
    // type either keeps its whole natural set in the buffer or
    // streams it tile-by-tile from off-chip on every reuse scan
    // (double-buffered tile working space only). Types are degraded
    // from the largest natural requirement downward until the
    // bank-granular allocation fits.
    const std::uint64_t bank_words = config.buffer.bankWords();
    std::array<std::uint64_t, numDataTypes> alloc = natural_bs;
    auto banks_needed = [&alloc, bank_words]() {
        std::uint64_t banks = 0;
        for (std::uint64_t words : alloc)
            banks += (words + bank_words - 1) / bank_words;
        return banks;
    };
    if (banks_needed() > config.buffer.numBanks) {
        std::array<std::size_t, numDataTypes> by_size = {0, 1, 2};
        std::sort(by_size.begin(), by_size.end(),
                  [&natural_bs](std::size_t a, std::size_t b) {
                      return natural_bs[a] > natural_bs[b];
                  });
        for (std::size_t idx : by_size) {
            if (banks_needed() <= config.buffer.numBanks)
                break;
            alloc[idx] = std::min(floor_bs[idx], natural_bs[idx]);
        }
        if (banks_needed() > config.buffer.numBanks) {
            analysis.infeasibleReason =
                "streamed working set exceeds buffer capacity";
            return analysis;
        }
        if (analysis.inputsPromoted &&
            alloc[kInput] < natural_bs[kInput]) {
            // Promotion requires the whole input set to stay
            // resident; the caller falls back to the unpromoted
            // variant.
            analysis.infeasibleReason =
                "promoted inputs do not fit the buffer";
            return analysis;
        }
    }

    // Natural lifetimes (Equations 4-5, 9-10): read-only operands age
    // across the full reuse scan (T3/T2/T1 for p=0/1/2),
    // self-rewriting partial sums age one visit pitch (T2/T1 for
    // p=0/1, 0 when they complete inside the core at p=2).
    std::array<double, numDataTypes> natural_lt = {0.0, 0.0, 0.0};
    natural_lt[kInput] = analysis.levelSeconds[2 - p_in];
    natural_lt[kWeight] = analysis.levelSeconds[2 - p_w];
    natural_lt[kOutput] =
        p_out == 2 ? 0.0 : analysis.levelSeconds[1 - p_out];

    analysis.feasible = true;
    for (std::size_t i = 0; i < numDataTypes; ++i) {
        TypeAnalysis &type = analysis.types[i];
        type.naturalStorageWords = natural_bs[i];
        type.storageWords = alloc[i];
        const std::uint64_t floor_words =
            std::min(floor_bs[i], natural_bs[i]);
        if (natural_bs[i] > floor_words) {
            const double span =
                static_cast<double>(natural_bs[i] - floor_words);
            type.residentFraction =
                static_cast<double>(alloc[i] - floor_words) / span;
        } else {
            type.residentFraction = 1.0;
        }
        const double phi = type.residentFraction;
        const TrafficBounds &b = bounds[i];
        type.dramReadWords =
            b.naturalReads + (1.0 - phi) * (b.streamedReads -
                                            b.naturalReads);
        type.dramWriteWords =
            b.naturalWrites + (1.0 - phi) * (b.streamedWrites -
                                             b.naturalWrites);
        type.lifetimeSeconds =
            phi > 0.0 ? natural_lt[i] : timing.tile.seconds;
    }
    analysis.of(DataType::Input).coreLoadWords = core_load_in;
    analysis.of(DataType::Weight).coreLoadWords = core_load_w;
    analysis.of(DataType::Output).coreLoadWords = partial_reload_out;
    analysis.of(DataType::Output).coreStoreWords = core_store_out;

    // Stall/utilization/bandwidth statistics of the systolic
    // schedule; the scheduler's hot loop skips them otherwise.
    if (!spec.systolic)
        return analysis;
    analysis.systolic.skewCyclesPerTile = timing.skewCycles;
    analysis.systolic.preloadCyclesPerPass = timing.preloadCycles;
    analysis.systolic.stallSeconds =
        total_tiles * (timing.skewCycles / config.frequencyHz) +
        passes * timing.preloadSeconds;
    const double dense_seconds = t3 - analysis.systolic.stallSeconds;
    analysis.systolic.denseUtilization =
        dense_seconds > 0.0
            ? static_cast<double>(layer.macs()) /
                  (dense_seconds * config.peakMacsPerSecond())
            : 0.0;
    for (std::size_t i = 0; i < numDataTypes; ++i) {
        analysis.systolic.dramBandwidth[i] =
            (analysis.types[i].dramReadWords +
             analysis.types[i].dramWriteWords) /
            t3;
    }
    return analysis;
}

BankAllocation
analysisBankAllocation(const AcceleratorConfig &config,
                       const LayerAnalysis &analysis)
{
    RANA_ASSERT(analysis.feasible,
                "bank allocation of an infeasible analysis");
    return allocateBanks(config.buffer,
                         analysis.of(DataType::Input).storageWords,
                         analysis.of(DataType::Output).storageWords,
                         analysis.of(DataType::Weight).storageWords);
}

LayerRefreshDemand
refreshDemand(const AcceleratorConfig &config,
              const LayerAnalysis &analysis)
{
    LayerRefreshDemand demand;
    demand.layerSeconds = analysis.layerSeconds;
    demand.lifetimeSeconds = analysis.lifetimes();
    demand.allocation = analysisBankAllocation(config, analysis);
    return demand;
}

OperationCounts
layerOperationCounts(const AcceleratorConfig &config,
                     const ConvLayerSpec &layer,
                     const LayerAnalysis &analysis,
                     RefreshPolicy policy,
                     double refresh_interval_seconds)
{
    RANA_ASSERT(analysis.feasible,
                "operation counts of an infeasible analysis");
    OperationCounts counts;
    counts.macOps = layer.macs();

    double buffer_words = 0.0;
    double dram_words = 0.0;
    for (const auto &type : analysis.types) {
        buffer_words += type.coreLoadWords + type.coreStoreWords +
                        type.dramReadWords + type.dramWriteWords;
        dram_words += type.dramReadWords + type.dramWriteWords;
    }
    counts.bufferAccesses =
        static_cast<std::uint64_t>(std::llround(buffer_words));
    counts.ddrAccesses =
        static_cast<std::uint64_t>(std::llround(dram_words));

    if (policy != RefreshPolicy::None) {
        counts.refreshOps = refreshOpsForLayer(
            policy, config.buffer, refreshDemand(config, analysis),
            refresh_interval_seconds);
    }
    return counts;
}

} // namespace rana
