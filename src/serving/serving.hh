/**
 * @file
 * Multi-tenant serving engine: a deterministic request-level
 * simulation of N tenants sharing one refresh-optimized accelerator.
 *
 * The ROADMAP's "traffic at scale" story: the paper evaluates the
 * eDRAM buffer per-network, but under serving load the buffer is a
 * *contended* resource — refresh behaviour and guard policy shape
 * tail latency, not just energy. The engine models that with a
 * virtual-time event loop:
 *
 *  - each tenant issues inference requests (open-loop Poisson
 *    arrivals at a configured rate, or closed-loop clients with
 *    think time) for one paper benchmark network;
 *  - requests pass admission control: a bounded queue shared by all
 *    tenants plus per-tenant guard state (serving/admission.hh) —
 *    tenants whose reliability guard is armed shed load, tenants on
 *    an escalated divider-bin interval pay a refresh service tax;
 *  - admitted requests coalesce per tenant inside a batching
 *    window; a batch occupies the shared accelerator for the
 *    network's simulated execution time (from the loop-nest trace
 *    simulator) plus a marginal cost per extra lane;
 *  - per batch, a retention overage of the tenant's bank shard
 *    (edram/bank_sharding.hh) is sampled deterministically; an
 *    overage trips the tenant's guard policy and corrupts the
 *    batch's lanes with bit errors;
 *  - after the event loop, the data plane replays every served
 *    request through its tenant's trained mini model, one distinct
 *    request sample per lane (train/trial_batch.hh). Per model, the
 *    requests of all its batches are packed in batch order, across
 *    batch boundaries, into 16-lane forwards (the last one padded to
 *    a compile-time kernel width); each lane keeps its own batch's
 *    injector seeds, so served accuracy under corruption is
 *    measured end to end, independent of how lanes are blocked.
 *
 * Everything stochastic derives from one seed through per-purpose
 * RNG streams consumed only by the single-threaded event loop, and
 * the parallel data plane writes into per-(batch, lane) slots — so
 * a run is bit-reproducible for any thread-pool size, which the
 * serving CI gate (deterministic_replay) pins.
 */

#ifndef RANA_SERVING_SERVING_HH_
#define RANA_SERVING_SERVING_HH_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/design_point.hh"
#include "edram/bank_sharding.hh"
#include "edram/guard_policy.hh"
#include "nn/network_model.hh"
#include "robust/fault_campaign.hh"
#include "serving/admission.hh"
#include "train/trainer.hh"
#include "util/result.hh"

namespace rana {

class JsonWriter;
class ServingTimeline;

/** How a tenant generates load. */
enum class ArrivalKind {
    /** Poisson arrivals at `qps`, regardless of completions. */
    OpenLoop,
    /** `clients` clients, each waiting for its reply + think time. */
    ClosedLoop,
};

/** Name string for an ArrivalKind ("open-loop" / "closed-loop"). */
const char *arrivalKindName(ArrivalKind kind);

/** One tenant of the serving simulation. */
struct TenantSpec
{
    /** Display name (metrics + trace tracks). */
    std::string name;
    /** Paper benchmark the tenant serves ("AlexNet", "VGG", ...). */
    std::string network = "AlexNet";
    /** Load generation model. */
    ArrivalKind arrival = ArrivalKind::OpenLoop;
    /**
     * Open-loop mean arrival rate in requests per virtual second.
     * <= 0 resolves to a fair share of ~60% accelerator utilization
     * at the tenant's simulated service time.
     */
    double qps = 0.0;
    /** Closed-loop concurrent clients. */
    std::uint32_t clients = 4;
    /** Closed-loop think time between reply and next request. */
    double thinkSeconds = 0.01;
    /** The tenant's guard decision policy (its QoS class). */
    GuardPolicySpec guardPolicy;
    /**
     * Probability that one batch (or armed-state probe) observes a
     * retention overage in the tenant's bank shard.
     */
    double faultRate = 0.0;
};

/** Configuration of one serving simulation. */
struct ServingConfig
{
    ServingConfig();

    /** The tenants sharing the accelerator. */
    std::vector<TenantSpec> tenants;
    /** Design point of the shared accelerator. */
    DesignKind design = DesignKind::RanaE5;
    /** Cell retention-time distribution of the eDRAM buffer. */
    RetentionDistribution retention =
        RetentionDistribution::typical65nm();
    /** Virtual admission horizon: arrivals stop after this. */
    double durationSeconds = 2.0;
    /**
     * Batch-coalescing window: the first queued request of a tenant
     * opens a window; everything the tenant queues inside it rides
     * the same batch. 0 disables coalescing — every
     * request is its own batch, exactly sequential service.
     */
    double batchWindowSeconds = 0.002;
    /** Maximum requests coalesced into one batch (lanes). */
    std::uint32_t maxBatch = 8;
    /** Admission-queue capacity across all tenants. */
    std::uint32_t queueCapacity = 64;
    /** Armed-tenant probe cadence (clean-interval evidence). */
    double guardProbeSeconds = 0.02;
    /** Closed-loop retry backoff after a shed request. */
    double shedRetrySeconds = 0.005;
    /**
     * Marginal service time of each extra batch lane, as a fraction
     * of the batch-of-1 service time (batching amortization).
     */
    double batchLaneCost = 0.25;
    /** TenantGuard escalation tax (see admission.hh). */
    double escalationTax = 0.02;
    /** Per-bit error rate injected into a faulted batch's lanes. */
    double injectedBitErrorRate = 2e-3;
    /**
     * Execute the data plane (batched forwards + accuracy). Off,
     * the run is timing-only: latency metrics are identical, the
     * accuracy columns read zero.
     */
    bool runForwards = true;
    /** Master seed for every RNG stream. */
    std::uint64_t seed = 1;
    /** Worker lanes of the data-plane fan-out (0 = hardware). */
    unsigned jobs = 0;
    /** Stand-in mini-model dataset (serving-tuned defaults). */
    DatasetConfig dataset;
    /** Stand-in mini-model trainer (serving-tuned defaults). */
    TrainerConfig trainer;
};

/**
 * Mixed AlexNet/VGG tenant specs in paper order: tenant i serves
 * AlexNet when i is even, VGG when odd, named "tenant<i>", with
 * `policy` as every tenant's guard policy and `fault_rate` as the
 * per-batch overage probability.
 */
std::vector<TenantSpec>
mixedTenantSpecs(std::uint32_t count, const GuardPolicySpec &policy,
                 double fault_rate);

/** Per-tenant serving statistics. */
struct TenantServingStats
{
    std::string name;
    std::string network;
    std::string policyName;
    std::string arrival;
    /** Resolved open-loop rate (auto-derived when spec.qps <= 0). */
    double qps = 0.0;
    /** The tenant's bank shard. */
    BankShard shard;
    /** Simulated batch-of-1 service time in seconds. */
    double serviceSeconds = 0.0;
    /** Arrival attempts (closed-loop retries count again). */
    std::uint64_t issued = 0;
    /** Requests accepted into the queue. */
    std::uint64_t admitted = 0;
    /** Requests refused because the tenant's guard was shedding. */
    std::uint64_t shedGuard = 0;
    /** Requests refused because the shared queue was full. */
    std::uint64_t shedQueue = 0;
    /** Requests served to completion. */
    std::uint64_t completed = 0;
    /** Batches the accelerator executed for this tenant. */
    std::uint64_t batches = 0;
    /** Completed requests that shared a batch with others. */
    std::uint64_t coalesced = 0;
    /** Largest batch (lanes) the tenant produced. */
    std::uint64_t maxBatchLanes = 0;
    /** Sampled retention overages in the tenant's shard. */
    std::uint64_t faults = 0;
    /** Guard-policy trips / re-disarms / escalations. */
    std::uint64_t trips = 0;
    std::uint64_t redisarms = 0;
    std::uint64_t escalations = 0;
    /** Requests whose batch was corrupted by an overage. */
    std::uint64_t corruptedRequests = 0;
    /** Corrupted or clean requests answered with a wrong class. */
    std::uint64_t wrongPredictions = 0;
    /** Latency percentiles over completed requests, milliseconds. */
    double p50Ms = 0.0;
    double p95Ms = 0.0;
    double p99Ms = 0.0;
    double maxMs = 0.0;
    double meanMs = 0.0;
    /** Completed requests per virtual second of admission horizon. */
    double throughputRps = 0.0;
    /** Served top-1 accuracy (0 when the data plane was off). */
    double accuracy = 0.0;
};

/** Report of one serving run. */
struct ServingReport
{
    std::string designName;
    /** Admission horizon in virtual seconds. */
    double durationSeconds = 0.0;
    /** Virtual time of the last completion (drain included). */
    double horizonSeconds = 0.0;
    /** Completions across all tenants. */
    std::uint64_t totalCompleted = 0;
    /** Sheds across all tenants (guard + queue). */
    std::uint64_t totalShed = 0;
    /** Total completed / durationSeconds. */
    double totalThroughputRps = 0.0;
    /** Worst per-tenant p99 latency in milliseconds. */
    double worstP99Ms = 0.0;
    /** Peak admission-queue depth. */
    std::uint64_t peakQueueDepth = 0;
    /** Whether the data plane ran (accuracy columns meaningful). */
    bool forwardsRan = false;
    /** Per-tenant statistics, in tenant order. */
    std::vector<TenantServingStats> tenants;

    /** One-line human-readable summary. */
    std::string describe() const;

    /**
     * Markdown QoS table: one row per tenant with p50/p95/p99,
     * throughput, shed and guard counters — byte-identical per seed
     * for any thread-pool size.
     */
    std::string markdownTable() const;
};

/**
 * The report in canonical JSON: every field at full precision, in
 * fixed order. Two runs are "the same run" exactly when their
 * canonical bytes match — the determinism contract the tests and
 * the serving CI gate compare.
 */
std::string canonicalServingJson(const ServingReport &report);

/** Append the report's fields to an open JSON object. */
void writeServingReport(JsonWriter &json, const ServingReport &report);

/**
 * A prepared serving simulation: schedules simulated, bank shards
 * partitioned, stand-in models pretrained — the expensive products
 * of prepare() — plus run(), the cheap deterministic event loop, so
 * callers replay the same workload across seeds or thread-pool
 * sizes without re-training.
 */
class ServingSimulation
{
  public:
    /**
     * Prepare `config`: validate it, schedule + trace-simulate each
     * distinct network on the design point (the batch-of-1 service
     * time), partition the buffer's banks across tenants and
     * pretrain one mini model per distinct network. Fails with
     * ErrorCode::InvalidArgument on a degenerate config (no
     * tenants, a non-positive duration, an unknown network, more
     * tenants than banks) and with the scheduler's error when the
     * design cannot run a requested network.
     */
    static Result<ServingSimulation> prepare(ServingConfig config);

    /**
     * Run the virtual-time event loop once and return the report.
     * `jobs_override` > 0 forces that many data-plane lanes;
     * `timeline` (optional) receives per-tenant tracks on the
     * simulated-time axis. Deterministic: the report's canonical
     * JSON depends only on the prepared config and seed.
     */
    Result<ServingReport> run(unsigned jobs_override = 0,
                              ServingTimeline *timeline = nullptr)
        const;

    /** The prepared configuration (auto qps left unresolved). */
    const ServingConfig &config() const { return config_; }

    /** Per-tenant bank shards. */
    const std::vector<BankShard> &shards() const { return shards_; }

    /** Per-tenant batch-of-1 service times in seconds. */
    const std::vector<double> &serviceSeconds() const
    {
        return serviceSeconds_;
    }

  private:
    /** One distinct served network's prepared products. */
    struct ServedModel
    {
        std::string network;
        /** Simulated batch-of-1 inference time in seconds. */
        double executionSeconds = 0.0;
        /**
         * The pretrained stand-in in campaign form (rate 0): its
         * shared store, test batch and format (empty without
         * forwards).
         */
        CampaignModel model;
        /** Re-entrant skeleton bound to the shared store. */
        std::shared_ptr<Sequential> skeleton;
    };

    ServingSimulation() = default;

    ServingConfig config_;
    DesignPoint design_;
    /** One entry per distinct network, in first-use order. */
    std::vector<ServedModel> models_;
    /** Tenant index -> models_ index. */
    std::vector<std::size_t> tenantModel_;
    std::vector<BankShard> shards_;
    std::vector<double> serviceSeconds_;
    std::vector<double> resolvedQps_;
};

/** Convenience wrapper: prepare + one run. */
Result<ServingReport> runServing(const ServingConfig &config);

} // namespace rana

#endif // RANA_SERVING_SERVING_HH_
