/**
 * @file
 * Implementation of the layer-based scheduling scheme.
 */

#include "sched/layer_scheduler.hh"

#include <optional>
#include <vector>

#include "obs/chrome_trace.hh"
#include "obs/metrics_registry.hh"
#include "sched/eval_cache.hh"
#include "sched/tiling_search.hh"
#include "util/thread_pool.hh"

namespace rana {

namespace {

/** Registry counters for scheduler throughput. */
struct SchedMetrics
{
    MetricsRegistry::Counter &layers;
    MetricsRegistry::Counter &candidates;

    static SchedMetrics &
    get()
    {
        static SchedMetrics *metrics = new SchedMetrics{
            MetricsRegistry::global().counter(
                "sched_layers_scheduled_total"),
            MetricsRegistry::global().counter(
                "sched_candidates_evaluated_total"),
        };
        return *metrics;
    }
};

/** Compact per-candidate result kept during the parallel sweep. */
struct CandidateEval
{
    bool feasible = false;
    double energy = 0.0;
    double layerSeconds = 0.0;
};

/** Build the full schedule record for a feasible analysis. */
LayerSchedule
makeSchedule(const AcceleratorConfig &config, const ConvLayerSpec &layer,
             const LayerAnalysis &analysis,
             const SchedulerOptions &options)
{
    LayerSchedule schedule;
    schedule.layerName = layer.name;
    schedule.analysis = analysis;
    schedule.counts = layerOperationCounts(
        config, layer, analysis, options.policy,
        options.refreshIntervalSeconds);
    schedule.energy = computeEnergy(
        schedule.counts, energyTable65nm(config.buffer.technology));
    const LayerRefreshDemand demand = refreshDemand(config, analysis);
    schedule.refreshFlags =
        refreshFlagsForLayer(demand, options.refreshIntervalSeconds);
    schedule.gateOn = schedule.refreshFlags[0] ||
                      schedule.refreshFlags[1] ||
                      schedule.refreshFlags[2];
    return schedule;
}

} // namespace

Result<LayerSchedule>
scheduleLayer(const AcceleratorConfig &config, const ConvLayerSpec &layer,
              const SchedulerOptions &options)
{
    if (options.dataflows.empty()) {
        return makeError(ErrorCode::InvalidArgument,
                         "scheduler needs at least one dataflow (layer ",
                         layer.name, ")");
    }
    // One search span per layer: the timeline shows which layers
    // dominate the design-space sweep.
    ScopedSpan span("sched", layer.name);

    std::string search_key;
    if (options.memoize) {
        search_key = searchCacheKey(config, layer, options);
        if (auto cached = EvalCache::global().lookup(search_key))
            return *std::move(cached);
    }

    const std::vector<DataflowChoice> candidates =
        dataflowChoices(config, layer, options);

    // Sweep: evaluate every candidate into an indexed slot. Only the
    // scalars the reduction needs are kept; the winner's full record
    // is rebuilt once below, so a VGG-sized sweep never holds tens
    // of thousands of LayerSchedules at once.
    std::vector<CandidateEval> evals(candidates.size());
    parallelFor(candidates.size(), effectiveJobs(options),
                [&](std::size_t i) {
                    const DataflowChoice &c = candidates[i];
                    const LayerAnalysis analysis = analyzeLayer(
                        config, layer, dataflowSpec(c.dataflow),
                        c.tiling, c.promoteInputs);
                    if (!analysis.feasible)
                        return;
                    const LayerSchedule schedule =
                        makeSchedule(config, layer, analysis, options);
                    evals[i] = {true, schedule.energy.total(),
                                analysis.layerSeconds};
                });
    SchedMetrics::get().candidates.add(candidates.size());

    // Reduction, strictly in candidate order. Energies within this
    // relative margin are considered equal and tie-broken by
    // runtime: RANA does not change the core computing part, so
    // among equal-energy configurations the scheduler keeps the one
    // that preserves performance.
    constexpr double energy_margin = 1e-3;
    std::optional<std::size_t> best_index;
    double best_energy = 0.0;
    double best_seconds = 0.0;
    for (std::size_t i = 0; i < evals.size(); ++i) {
        const CandidateEval &eval = evals[i];
        if (!eval.feasible)
            continue;
        bool better = false;
        if (!best_index) {
            better = true;
        } else if (eval.energy < best_energy * (1.0 - energy_margin)) {
            better = true;
        } else if (eval.energy <= best_energy * (1.0 + energy_margin) &&
                   eval.layerSeconds < best_seconds) {
            better = true;
        }
        if (better) {
            // Keep the smallest energy seen as the reference so
            // repeated margin tie-breaks cannot drift upward.
            best_energy = best_index
                              ? std::min(best_energy, eval.energy)
                              : eval.energy;
            best_seconds = eval.layerSeconds;
            best_index = i;
        }
    }
    if (!best_index) {
        return makeError(ErrorCode::Infeasible,
                         "no feasible schedule for layer ",
                         layer.describe(), " on ", config.name);
    }

    const DataflowChoice &winner = candidates[*best_index];
    LayerSchedule best = makeSchedule(
        config, layer,
        analyzeLayer(config, layer, dataflowSpec(winner.dataflow),
                     winner.tiling, winner.promoteInputs),
        options);
    if (options.memoize) {
        EvalCache::global().insert(search_key, best);
        EvalCache::global().insert(
            evalCacheKey(config, layer, winner.dataflow, winner.tiling,
                         winner.promoteInputs, options),
            best);
    }
    SchedMetrics::get().layers.add();
    // Per-dataflow win counters surface the chosen mix in metrics
    // snapshots (--metrics-json) without re-walking the schedule.
    MetricsRegistry::global()
        .counter(std::string("sched_dataflow_chosen_total_") +
                 dataflowName(winner.dataflow))
        .add();
    return best;
}

Result<LayerSchedule>
evaluateLayerChoice(const AcceleratorConfig &config,
                    const ConvLayerSpec &layer, DataflowKind dataflow,
                    const Tiling &tiling,
                    const SchedulerOptions &options, bool promote_inputs)
{
    std::string key;
    if (options.memoize) {
        key = evalCacheKey(config, layer, dataflow, tiling,
                           promote_inputs, options);
        if (auto cached = EvalCache::global().lookup(key))
            return *std::move(cached);
    }

    const LayerAnalysis analysis =
        analyzeLayer(config, layer, dataflowSpec(dataflow), tiling,
                     promote_inputs);
    if (!analysis.feasible) {
        return makeError(ErrorCode::Infeasible,
                         "infeasible layer choice for ", layer.name,
                         ": ", analysis.infeasibleReason);
    }
    LayerSchedule schedule = makeSchedule(config, layer, analysis,
                                          options);
    if (options.memoize)
        EvalCache::global().insert(key, schedule);
    return schedule;
}

Result<NetworkSchedule>
scheduleNetwork(const AcceleratorConfig &config,
                const NetworkModel &network,
                const SchedulerOptions &options)
{
    ScopedSpan span("sched", "schedule_network");
    // Layers are independent: schedule them concurrently into
    // indexed slots, then assemble (and surface the first error) in
    // layer order.
    std::vector<std::optional<Result<LayerSchedule>>> slots(
        network.size());
    parallelFor(network.size(), effectiveJobs(options),
                [&](std::size_t i) {
                    slots[i].emplace(scheduleLayer(
                        config, network.layer(i), options));
                });

    NetworkSchedule schedule;
    schedule.networkName = network.name();
    schedule.refreshIntervalSeconds = options.refreshIntervalSeconds;
    schedule.policy = options.policy;
    schedule.layers.reserve(network.size());
    for (std::size_t i = 0; i < network.size(); ++i) {
        Result<LayerSchedule> &result = *slots[i];
        if (!result.ok())
            return result.error();
        schedule.layers.push_back(std::move(result).value());
    }
    return schedule;
}

} // namespace rana
