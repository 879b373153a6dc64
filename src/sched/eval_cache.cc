/**
 * @file
 * Implementation of the sharded evaluation cache.
 */

#include "sched/eval_cache.hh"

#include <functional>
#include <sstream>

#include "obs/metrics_registry.hh"

namespace rana {

namespace {

/** Registry counters mirroring the cache's own hit/miss tallies. */
struct CacheMetrics
{
    MetricsRegistry::Counter &hits;
    MetricsRegistry::Counter &misses;

    static CacheMetrics &
    get()
    {
        static CacheMetrics *metrics = new CacheMetrics{
            MetricsRegistry::global().counter(
                "sched_eval_cache_hits_total"),
            MetricsRegistry::global().counter(
                "sched_eval_cache_misses_total"),
        };
        return *metrics;
    }
};

/** Append the option fields every evaluation depends on. */
void
appendOptionFields(std::ostringstream &oss,
                   const SchedulerOptions &options)
{
    oss << '|' << static_cast<int>(options.policy) << '|'
        << options.refreshIntervalSeconds;
}

/** Append the layer shape (the name alone is not an identity). */
void
appendLayer(std::ostringstream &oss, const ConvLayerSpec &layer)
{
    oss << layer.name << ':' << layer.n << 'x' << layer.h << 'x'
        << layer.l << ':' << layer.m << ':' << layer.k << ':'
        << layer.stride << ':' << layer.pad;
}

} // namespace

EvalCache::EvalCache(std::size_t num_shards)
{
    shards_.reserve(num_shards == 0 ? 1 : num_shards);
    for (std::size_t i = 0; i < (num_shards == 0 ? 1 : num_shards); ++i)
        shards_.push_back(std::make_unique<Shard>());
}

EvalCache::Shard &
EvalCache::shardFor(const std::string &key) const
{
    const std::size_t hash = std::hash<std::string>{}(key);
    return *shards_[hash % shards_.size()];
}

std::optional<LayerSchedule>
EvalCache::lookup(const std::string &key) const
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.entries.find(key);
    if (it == shard.entries.end()) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        CacheMetrics::get().misses.add();
        return std::nullopt;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    CacheMetrics::get().hits.add();
    return it->second;
}

void
EvalCache::insert(const std::string &key, const LayerSchedule &value)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.entries.insert_or_assign(key, value);
}

void
EvalCache::clear()
{
    for (auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        shard->entries.clear();
    }
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
}

EvalCache::Stats
EvalCache::stats() const
{
    Stats stats;
    stats.hits = hits_.load(std::memory_order_relaxed);
    stats.misses = misses_.load(std::memory_order_relaxed);
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        stats.entries += shard->entries.size();
    }
    return stats;
}

EvalCache &
EvalCache::global()
{
    static EvalCache cache;
    return cache;
}

std::string
evalCacheKey(const AcceleratorConfig &config,
             const ConvLayerSpec &layer, DataflowKind dataflow,
             const Tiling &tiling, bool promote_inputs,
             const SchedulerOptions &options)
{
    std::ostringstream oss;
    oss << "eval|";
    appendLayer(oss, layer);
    oss << '|' << dataflowName(dataflow) << '|' << tiling.tm << ','
        << tiling.tn << ',' << tiling.tr << ',' << tiling.tc << '|'
        << (promote_inputs ? 'P' : '-') << '|'
        << config.fingerprint();
    appendOptionFields(oss, options);
    return oss.str();
}

std::string
searchCacheKey(const AcceleratorConfig &config,
               const ConvLayerSpec &layer,
               const SchedulerOptions &options)
{
    std::ostringstream oss;
    oss << "search|";
    appendLayer(oss, layer);
    oss << '|';
    for (DataflowKind dataflow : options.dataflows)
        oss << dataflowName(dataflow) << '+';
    oss << '|';
    if (options.fixedTiling) {
        const Tiling &t = *options.fixedTiling;
        oss << t.tm << ',' << t.tn << ',' << t.tr << ',' << t.tc;
    } else {
        oss << "explore";
    }
    oss << '|' << config.fingerprint();
    appendOptionFields(oss, options);
    return oss.str();
}

} // namespace rana
