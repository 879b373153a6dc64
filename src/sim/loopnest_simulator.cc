/**
 * @file
 * Implementation of the loop-nest trace simulator.
 */

#include "sim/loopnest_simulator.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/metrics_registry.hh"
#include "sim/pe_array_model.hh"
#include "util/logging.hh"

namespace rana {

namespace {

constexpr std::size_t kInput = static_cast<std::size_t>(DataType::Input);
constexpr std::size_t kOutput =
    static_cast<std::size_t>(DataType::Output);
constexpr std::size_t kWeight =
    static_cast<std::size_t>(DataType::Weight);

/** Registry instruments for simulator progress (created once). */
struct SimMetrics
{
    MetricsRegistry::Counter &layers;
    MetricsRegistry::Counter &tiles;
    MetricsRegistry::Gauge &banksInUsePeak;

    static SimMetrics &
    get()
    {
        static SimMetrics *metrics = new SimMetrics{
            MetricsRegistry::global().counter(
                "sim_layers_simulated_total"),
            MetricsRegistry::global().counter(
                "sim_tiles_simulated_total"),
            MetricsRegistry::global().gauge("sim_banks_in_use_peak"),
        };
        return *metrics;
    }
};

} // namespace

LoopNestSimulator::LoopNestSimulator(const AcceleratorConfig &config,
                                     RefreshPolicy policy,
                                     double interval_seconds)
    : config_(config),
      policy_(policy),
      interval_(interval_seconds),
      controller_(config.buffer, policy, config.frequencyHz,
                  interval_seconds)
{
    // Forward divider ticks to the trace sink so the timeline shows
    // refresh activity alongside compute (emit() drops the event
    // when no sink is attached).
    controller_.setPulseListener(
        [this](double when, std::uint64_t words) {
            emit(TraceEventKind::RefreshPulse, when, DataType::Input,
                 words, 0);
        });
}

std::uint64_t
LoopNestSimulator::totalRefreshOps() const
{
    return controller_.refreshOps();
}

void
LoopNestSimulator::emit(TraceEventKind kind, double seconds,
                        DataType type, std::uint64_t words,
                        std::uint64_t tile_index)
{
    if (trace_ != nullptr) {
        TraceEvent event;
        event.kind = kind;
        event.seconds = seconds;
        event.type = type;
        event.words = words;
        event.tileIndex = tile_index;
        trace_->onEvent(event);
    }
}

Result<double>
LoopNestSimulator::layerEnd(const ConvLayerSpec &layer,
                            const LayerAnalysis &analysis,
                            double start) const
{
    if (!analysis.feasible) {
        return makeError(ErrorCode::InvalidArgument,
                         "cannot simulate layer ", layer.name,
                         ": the analysis is infeasible");
    }
    const DataflowSpec &spec = analysis.spec();
    const TripCounts trips = tripCounts(layer, analysis.tiling);
    const SystolicTiming timing =
        dataflowTileTiming(config_, layer, analysis.tiling, spec);
    const std::uint64_t trip0 = tripOf(trips, spec.order[0]);
    const std::uint64_t passes = trip0 * tripOf(trips, spec.order[1]);
    const std::uint64_t tiles = passes * tripOf(trips, spec.order[2]);
    return start + static_cast<double>(trip0) * faults_.scanStallSeconds +
           static_cast<double>(tiles) *
               faults_.tileSeconds(timing.tile.seconds) +
           static_cast<double>(passes) * timing.preloadSeconds;
}

Result<LayerSimResult>
LoopNestSimulator::runLayerChecked(const ConvLayerSpec &layer,
                                   const LayerAnalysis &analysis)
{
    const double layer_start = now_;
    const Result<double> end = layerEnd(layer, analysis, layer_start);
    if (!end.ok())
        return end.error();
    const double layer_end = end.value();
    const DataflowSpec &spec = analysis.spec();
    const Tiling &t = analysis.tiling;
    const TileSizes tiles = tileSizes(layer, t);
    const TripCounts trips = tripCounts(layer, t);
    const SystolicTiming timing =
        dataflowTileTiming(config_, layer, t, spec);
    const std::uint64_t trip0 = tripOf(trips, spec.order[0]);
    const std::uint64_t trip1 = tripOf(trips, spec.order[1]);
    const std::uint64_t trip2 = tripOf(trips, spec.order[2]);

    // Injected timing faults stretch each tile and stall each outer
    // scan. At the default TimingFaults both terms are exact float
    // no-ops (x*1.0 and x+0.0), keeping fault-free timing
    // bit-identical to the analytical model. The systolic preload is
    // a register-file transfer and stays unstretched; it is an exact
    // 0.0 for non-systolic dataflows.
    const double t_tile = faults_.tileSeconds(timing.tile.seconds);
    const double stall = faults_.scanStallSeconds;
    const double preload_s = timing.preloadSeconds;
    const double t1 = static_cast<double>(trip2) * t_tile + preload_s;
    const double t2 = static_cast<double>(trip1) * t1;

    // Layer configuration load: allocation and refresh flags from
    // the analysis (the compiled layerwise configuration).
    const LayerRefreshDemand demand = refreshDemand(config_, analysis);
    const auto flags = refreshFlagsForLayer(demand, interval_);
    const bool gate_on = flags[0] || flags[1] || flags[2];
    const std::uint64_t refresh_before = controller_.refreshOps();
    const std::uint64_t violations_before = controller_.violations();
    const std::uint64_t guard_trips_before =
        guard_ != nullptr ? guard_->stats().trips : 0;
    controller_.beginLayer(demand.allocation, flags, gate_on,
                           layer_start);
    if (trace_ != nullptr)
        trace_->onLayerBegin(layer.name);
    emit(TraceEventKind::LayerBegin, layer_start, DataType::Input, 0,
         0);
    const std::uint64_t banks_in_use =
        config_.buffer.numBanks - demand.allocation.unusedBanks;
    emit(TraceEventKind::BankOccupancy, layer_start, DataType::Input,
         banks_in_use, 0);
    SimMetrics &sim_metrics = SimMetrics::get();
    sim_metrics.banksInUsePeak.setMax(
        static_cast<double>(banks_in_use));

    // Per-type staging follows the natural residency of each reuse
    // level; fully streamed types are always freshly staged.
    const std::array<double, numDataTypes> phi = {
        analysis.types[kInput].residentFraction,
        analysis.types[kOutput].residentFraction,
        analysis.types[kWeight].residentFraction,
    };
    const std::array<int, numDataTypes> levels = analysis.reuseLevels();
    const int p_in = levels[kInput];
    const int p_out = levels[kOutput];
    const int p_w = levels[kWeight];
    const DataType pinned = spec.arrayTile();

    // Current tile index along each loop axis (indexed by LoopAxis).
    std::array<std::uint64_t, 3> axis_index = {0, 0, 0};
    const std::uint64_t th = layer.inputPatchH(t.tr);
    const std::uint64_t tl = layer.inputPatchW(t.tc);
    // The extent of one staging along an axis: the current tile,
    // clamped at the layer edge, when the axis is ordered outside the
    // staged type's reuse level; the full layer extent otherwise.
    const auto extent = [&](LoopAxis axis, int level,
                            std::uint64_t tile, std::uint64_t full) {
        if (spec.positionOf(axis) >= level)
            return full;
        return std::min(
            tile,
            full - axis_index[static_cast<std::size_t>(axis)] * tile);
    };
    // Words one staging of a type brings on chip at the current loop
    // indices. Spatial patches keep their full halo.
    const auto staged_input_words = [&]() {
        return static_cast<double>(
            extent(LoopAxis::N, p_in, t.tn, layer.n) *
            (spec.positionOf(LoopAxis::RC) < p_in
                 ? th * tl
                 : static_cast<std::uint64_t>(layer.h) * layer.l));
    };
    const auto staged_weight_words = [&]() {
        return static_cast<double>(
            extent(LoopAxis::M, p_w, t.tm, layer.m) *
            extent(LoopAxis::N, p_w, t.tn, layer.n) * layer.k *
            layer.k);
    };

    double input_write = layer_start;
    double weight_write = layer_start;
    controller_.onWrite(DataType::Input, layer_start);
    controller_.onWrite(DataType::Weight, layer_start);
    controller_.onWrite(DataType::Output, layer_start);

    // Event tallies. Whole-resident types (reuse level 0) stage once
    // at the layer start.
    double core_load_in = 0.0;
    double core_load_w = 0.0;
    double core_store_out = 0.0;
    double partial_reload_out = 0.0;
    double natural_in_reads = p_in == 0 ? staged_input_words() : 0.0;
    double natural_w_reads = p_w == 0 ? staged_weight_words() : 0.0;
    double natural_out_writes = 0.0;
    std::array<double, numDataTypes> max_age = {0.0, 0.0, 0.0};

    const auto tile_in = static_cast<double>(tiles.input);
    const auto tile_out = static_cast<double>(tiles.output);
    const auto tile_w = static_cast<double>(tiles.weight);

    auto observe_read = [&](DataType type, double now,
                            double write_time) {
        controller_.onRead(type, now, write_time);
        max_age[static_cast<std::size_t>(type)] =
            std::max(max_age[static_cast<std::size_t>(type)],
                     now - write_time);
    };

    std::uint64_t tile_index = 0;
    std::uint64_t pass_index = 0;
    for (std::uint64_t i0 = 0; i0 < trip0; ++i0) {
        axis_index[static_cast<std::size_t>(spec.order[0])] = i0;
        const double scan_start =
            layer_start + static_cast<double>(i0) * t2 +
            static_cast<double>(i0 + 1) * stall;
        // Slab types (reuse level 1) stage at the outer boundary.
        if (p_in == 1) {
            input_write = scan_start;
            controller_.onWrite(DataType::Input, scan_start);
            natural_in_reads += staged_input_words();
        }
        if (p_w == 1) {
            weight_write = scan_start;
            controller_.onWrite(DataType::Weight, scan_start);
            natural_w_reads += staged_weight_words();
        }
        for (std::uint64_t i1 = 0; i1 < trip1; ++i1, ++pass_index) {
            axis_index[static_cast<std::size_t>(spec.order[1])] = i1;
            const double pass_start =
                scan_start + static_cast<double>(i1) * t1;
            // A core-pinned operand tile stages at the pass start; its
            // DRAM fetch was double-buffered one pass ahead.
            if (pinned == DataType::Input) {
                input_write = std::max(layer_start, pass_start - t1);
                controller_.onWrite(DataType::Input, pass_start);
                core_load_in += tile_in;
                natural_in_reads += staged_input_words();
                observe_read(DataType::Input, pass_start,
                             phi[kInput] > 0.0 ? input_write
                                               : pass_start);
                emit(TraceEventKind::CoreLoad, pass_start,
                     DataType::Input, tiles.input, tile_index);
            } else if (pinned == DataType::Weight) {
                weight_write = std::max(layer_start, pass_start - t1);
                controller_.onWrite(DataType::Weight, pass_start);
                core_load_w += tile_w;
                natural_w_reads += staged_weight_words();
                observe_read(DataType::Weight, pass_start,
                             phi[kWeight] > 0.0 ? weight_write
                                                : pass_start);
                emit(TraceEventKind::CoreLoad, pass_start,
                     DataType::Weight, tiles.weight, tile_index);
            }
            for (std::uint64_t i2 = 0; i2 < trip2; ++i2) {
                const std::uint64_t tile_id = tile_index;
                const double t_start =
                    layer_start +
                    static_cast<double>(i0 + 1) * stall +
                    static_cast<double>(tile_index) * t_tile +
                    static_cast<double>(pass_index + 1) * preload_s;
                const double t_end = t_start + t_tile;
                ++tile_index;

                // Partial sums reload on every revisit, written one
                // visit pitch ago: T1 across the 2nd-level loop, T2
                // plus the scan stall across the outermost loop.
                if (p_out == 1 && i1 > 0) {
                    partial_reload_out += tile_out;
                    observe_read(DataType::Output, t_start,
                                 phi[kOutput] > 0.0 ? t_start - t1
                                                    : t_start);
                    emit(TraceEventKind::PartialReload, t_start,
                         DataType::Output, tiles.output, tile_id);
                } else if (p_out == 0 && i0 > 0) {
                    partial_reload_out += tile_out;
                    observe_read(DataType::Output, t_start,
                                 phi[kOutput] > 0.0
                                     ? t_start - t2 - stall
                                     : t_start);
                    emit(TraceEventKind::PartialReload, t_start,
                         DataType::Output, tiles.output, tile_id);
                }

                // Streaming operands move buffer -> core every tile.
                if (pinned != DataType::Input) {
                    core_load_in += tile_in;
                    observe_read(DataType::Input, t_end,
                                 phi[kInput] > 0.0 ? input_write
                                                   : t_start);
                    emit(TraceEventKind::CoreLoad, t_start,
                         DataType::Input, tiles.input, tile_id);
                }
                if (pinned != DataType::Weight) {
                    core_load_w += tile_w;
                    observe_read(DataType::Weight, t_end,
                                 phi[kWeight] > 0.0 ? weight_write
                                                    : t_start);
                    emit(TraceEventKind::CoreLoad, t_start,
                         DataType::Weight, tiles.weight, tile_id);
                }
                emit(TraceEventKind::TileCompute, t_end,
                     DataType::Input, timing.tile.macs, tile_id);

                if (p_out == 2) {
                    // Outputs complete inside the core after the
                    // innermost reduction.
                    if (i2 + 1 == trip2) {
                        core_store_out += tile_out;
                        natural_out_writes += tile_out;
                        controller_.onWrite(DataType::Output, t_end);
                        emit(TraceEventKind::CoreStore, t_end,
                             DataType::Output, tiles.output, tile_id);
                    }
                } else {
                    // Partial sums drain from the core every tile.
                    core_store_out += tile_out;
                    controller_.onWrite(DataType::Output, t_end);
                    emit(TraceEventKind::CoreStore, t_end,
                         DataType::Output, tiles.output, tile_id);
                    const bool last_visit = p_out == 1
                                                ? i1 + 1 == trip1
                                                : i0 + 1 == trip0;
                    if (last_visit)
                        natural_out_writes += tile_out;
                }
            }
        }
    }

    controller_.advanceTo(layer_end);
    now_ = layer_end;
    emit(TraceEventKind::LayerEnd, layer_end, DataType::Input, 0,
         tile_index);
    sim_metrics.layers.add();
    sim_metrics.tiles.add(tile_index);

    // Assemble DRAM traffic from the event tallies: resident
    // fractions stream their complement on every reuse scan.
    std::array<double, numDataTypes> dram_reads = {0.0, 0.0, 0.0};
    std::array<double, numDataTypes> dram_writes = {0.0, 0.0, 0.0};
    dram_reads[kInput] =
        natural_in_reads +
        (1.0 - phi[kInput]) * (core_load_in - natural_in_reads);
    dram_reads[kWeight] =
        natural_w_reads +
        (1.0 - phi[kWeight]) * (core_load_w - natural_w_reads);
    dram_reads[kOutput] = (1.0 - phi[kOutput]) * partial_reload_out;
    dram_writes[kOutput] =
        natural_out_writes +
        (1.0 - phi[kOutput]) * (core_store_out - natural_out_writes);

    LayerSimResult result;
    result.layerSeconds = layer_end - layer_start;
    result.utilization =
        static_cast<double>(layer.macs()) /
        (result.layerSeconds * config_.peakMacsPerSecond());
    result.refreshOps = controller_.refreshOps() - refresh_before;
    result.violations = controller_.violations() - violations_before;
    result.guardTrips =
        guard_ != nullptr ? guard_->stats().trips - guard_trips_before
                          : 0;
    result.observedLifetime = max_age;
    result.stallSeconds =
        static_cast<double>(tile_index) *
            (timing.skewCycles / config_.frequencyHz) +
        static_cast<double>(pass_index) * timing.preloadSeconds;

    double buffer_words = core_load_in + core_load_w + core_store_out +
                          partial_reload_out;
    double dram_words = 0.0;
    for (std::size_t i = 0; i < numDataTypes; ++i)
        dram_words += dram_reads[i] + dram_writes[i];
    buffer_words += dram_words; // Fills and drains stage via buffer.

    result.counts.macOps = layer.macs();
    result.counts.bufferAccesses =
        static_cast<std::uint64_t>(std::llround(buffer_words));
    result.counts.ddrAccesses =
        static_cast<std::uint64_t>(std::llround(dram_words));
    result.counts.refreshOps = result.refreshOps;
    return result;
}

} // namespace rana
