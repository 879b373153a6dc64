/**
 * @file
 * Sharded memoization cache for layer-schedule evaluations.
 *
 * The Table-IV sweeps and `rana_compile --verify` repeatedly
 * evaluate the same design points: the same (layer spec, dataflow,
 * tiling, hardware, refresh options) tuple reappears across figure
 * harnesses, ablation baselines and schedule rebuilds. Evaluation is
 * deterministic, so the first result can be replayed. The cache
 * stores completed LayerSchedule records under a stable string key;
 * shards (each its own mutex + map) keep concurrent schedulers from
 * serializing on one lock, and hit/miss counters are surfaced in the
 * compile summary.
 *
 * Only *chosen* evaluations are inserted (a scheduleLayer search
 * result, or an explicit evaluateLayerChoice), never every explored
 * candidate — a VGG-sized search visits tens of thousands of
 * candidates per layer and caching the losers would trade megabytes
 * for nothing.
 */

#ifndef RANA_SCHED_EVAL_CACHE_HH_
#define RANA_SCHED_EVAL_CACHE_HH_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sched/schedule_types.hh"
#include "sim/accelerator_config.hh"

namespace rana {

/** Thread-safe sharded map from evaluation key to LayerSchedule. */
class EvalCache
{
  public:
    /** Hit/miss/size counters for reporting. */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t entries = 0;
    };

    explicit EvalCache(std::size_t num_shards = 16);

    /** Look up a key, counting a hit or a miss. */
    std::optional<LayerSchedule> lookup(const std::string &key) const;

    /** Insert (or overwrite) a completed evaluation. */
    void insert(const std::string &key, const LayerSchedule &value);

    /** Drop every entry and reset the counters. */
    void clear();

    /** Current counters (approximate under concurrent use). */
    Stats stats() const;

    /** The process-wide cache used by the scheduler. */
    static EvalCache &global();

  private:
    struct Shard
    {
        mutable std::mutex mutex;
        std::unordered_map<std::string, LayerSchedule> entries;
    };

    Shard &shardFor(const std::string &key) const;

    std::vector<std::unique_ptr<Shard>> shards_;
    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
};

/**
 * Cache key of one explicit (dataflow, tiling, promote) evaluation:
 * layer spec + hardware fingerprint + the SchedulerOptions fields
 * that influence the result (policy, refresh interval). The paper's
 * dataflows key under their historical pattern names, so caches
 * persisted before the dataflow axis existed stay valid.
 */
std::string evalCacheKey(const AcceleratorConfig &config,
                         const ConvLayerSpec &layer,
                         DataflowKind dataflow, const Tiling &tiling,
                         bool promote_inputs,
                         const SchedulerOptions &options);

/**
 * Cache key of a whole scheduleLayer search (the chosen minimum over
 * the candidate space): the candidate-space-defining option fields
 * (dataflow list, fixed tiling) join the key in place of a concrete
 * candidate.
 */
std::string searchCacheKey(const AcceleratorConfig &config,
                           const ConvLayerSpec &layer,
                           const SchedulerOptions &options);

} // namespace rana

#endif // RANA_SCHED_EVAL_CACHE_HH_
