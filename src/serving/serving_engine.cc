#include "serving/serving.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <queue>
#include <utility>

#include "nn/model_zoo.hh"
#include "obs/chrome_trace.hh"
#include "obs/metrics_registry.hh"
#include "sim/trace_timeline.hh"
#include "train/lane_scorer.hh"
#include "train/mini_models.hh"
#include "train/trial_batch.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"

namespace rana {

namespace {

/** Mini model standing in for a paper benchmark network. */
Result<MiniModelKind>
miniModelForNetwork(const std::string &network)
{
    if (network == "AlexNet")
        return MiniModelKind::MiniAlex;
    if (network == "VGG")
        return MiniModelKind::MiniVgg;
    if (network == "GoogLeNet")
        return MiniModelKind::MiniInception;
    if (network == "ResNet")
        return MiniModelKind::MiniRes;
    return makeError(ErrorCode::InvalidArgument,
                     "no serving stand-in model for network '",
                     network,
                     "' (expected AlexNet, VGG, GoogLeNet or ResNet)");
}

/** The kinds of virtual-time events the loop processes. */
enum class EventKind {
    /** A tenant issues (or retries) one request. */
    Arrival,
    /** A tenant's batching window elapsed. */
    WindowClose,
    /** The accelerator finished the running batch. */
    BatchDone,
    /** An armed tenant's shard observed one refresh interval. */
    GuardProbe,
};

/** One scheduled virtual-time event. */
struct Event
{
    double seconds = 0.0;
    /** Monotonic tiebreaker: equal-time events pop in push order. */
    std::uint64_t seq = 0;
    EventKind kind = EventKind::Arrival;
    std::uint32_t tenant = 0;
    /** Closed-loop client of an Arrival. */
    std::uint32_t client = 0;
    /** WindowClose: window generation. BatchDone: batch index. */
    std::uint64_t id = 0;
};

/** Min-heap order on (seconds, seq). */
struct EventAfter
{
    bool operator()(const Event &a, const Event &b) const
    {
        if (a.seconds != b.seconds)
            return a.seconds > b.seconds;
        return a.seq > b.seq;
    }
};

/** One formed batch: the control-plane record the data plane replays. */
struct BatchRecord
{
    std::uint32_t tenant = 0;
    std::vector<ServingRequest> requests;
    double startSeconds = 0.0;
    double endSeconds = 0.0;
    /** A retention overage corrupted this batch's lanes. */
    bool corrupted = false;
    /** Base seed of the batch's per-lane injector streams. */
    std::uint64_t faultSeed = 0;
};

/** Mutable per-tenant control-plane state of one run. */
struct TenantState
{
    TenantState(std::unique_ptr<GuardPolicy> policy,
                double certified_interval, double escalation_tax,
                std::uint64_t arrival_seed, std::uint64_t sample_seed,
                std::uint64_t fault_seed)
        : guard(std::move(policy), certified_interval,
                escalation_tax),
          arrivalRng(arrival_seed), sampleRng(sample_seed),
          faultRng(fault_seed)
    {
    }

    TenantGuard guard;
    Rng arrivalRng;
    Rng sampleRng;
    Rng faultRng;
    bool windowOpen = false;
    std::uint64_t windowGen = 0;
    bool probing = false;
    std::uint64_t nextRequestId = 0;
    std::uint64_t issued = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shedGuard = 0;
    std::uint64_t shedQueue = 0;
    std::uint64_t completed = 0;
    std::uint64_t batches = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t maxBatchLanes = 0;
    std::uint64_t faults = 0;
    std::uint64_t corruptedRequests = 0;
    std::vector<double> latenciesMs;
};

/** Latency histogram bounds in seconds (log scale, 1ms..10s). */
const std::vector<double> &
latencySecondsBounds()
{
    static const std::vector<double> bounds = {
        1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0};
    return bounds;
}

} // namespace

const char *
arrivalKindName(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::OpenLoop:
        return "open-loop";
      case ArrivalKind::ClosedLoop:
        return "closed-loop";
    }
    panic("unreachable arrival kind");
}

ServingConfig::ServingConfig()
{
    // Serving-tuned stand-in scale: the engine measures queueing and
    // guard dynamics, not model quality, so the mini models train in
    // seconds (same scale the sharded-sweep bench uses).
    dataset.trainSamples = 256;
    dataset.testSamples = 128;
    dataset.imageSize = 12;
    dataset.numClasses = 4;
    trainer.pretrainEpochs = 6;
    trainer.retrainEpochs = 2;
    trainer.evalRepeats = 2;
}

std::vector<TenantSpec>
mixedTenantSpecs(std::uint32_t count, const GuardPolicySpec &policy,
                 double fault_rate)
{
    std::vector<TenantSpec> specs;
    specs.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        TenantSpec spec;
        spec.name = "tenant" + std::to_string(i);
        spec.network = i % 2 == 0 ? "AlexNet" : "VGG";
        spec.guardPolicy = policy;
        spec.faultRate = fault_rate;
        specs.push_back(std::move(spec));
    }
    return specs;
}

Result<ServingSimulation>
ServingSimulation::prepare(ServingConfig config)
{
    if (config.tenants.empty()) {
        return makeError(ErrorCode::InvalidArgument,
                         "serving needs at least one tenant");
    }
    if (config.durationSeconds <= 0.0) {
        return makeError(ErrorCode::InvalidArgument,
                         "serving duration must be positive, got ",
                         config.durationSeconds);
    }
    if (config.maxBatch == 0) {
        return makeError(ErrorCode::InvalidArgument,
                         "serving max batch must be at least 1");
    }
    if (config.batchWindowSeconds < 0.0) {
        return makeError(ErrorCode::InvalidArgument,
                         "serving batch window must be >= 0, got ",
                         config.batchWindowSeconds);
    }
    for (const TenantSpec &spec : config.tenants) {
        if (spec.faultRate < 0.0 || spec.faultRate > 1.0) {
            return makeError(ErrorCode::InvalidArgument,
                             "tenant '", spec.name,
                             "' fault rate must be in [0, 1], got ",
                             spec.faultRate);
        }
        if (spec.arrival == ArrivalKind::ClosedLoop &&
            spec.clients == 0) {
            return makeError(ErrorCode::InvalidArgument,
                             "closed-loop tenant '", spec.name,
                             "' needs at least one client");
        }
    }
    ScopedSpan span("serving", "prepare");

    ServingSimulation sim;
    sim.config_ = std::move(config);
    const ServingConfig &cfg = sim.config_;
    sim.design_ = makeDesignPoint(cfg.design, cfg.retention);

    const std::uint32_t tenant_count =
        static_cast<std::uint32_t>(cfg.tenants.size());
    Result<std::vector<BankShard>> shards = partitionBanks(
        sim.design_.config.buffer.numBanks, tenant_count);
    if (!shards.ok())
        return shards.error();
    sim.shards_ = std::move(shards).value();

    // Every tenant's guard policy is built per run; validate the
    // specs once here so run() cannot fail on configuration.
    for (std::uint32_t t = 0; t < tenant_count; ++t) {
        Result<std::unique_ptr<GuardPolicy>> policy = makeGuardPolicy(
            cfg.tenants[t].guardPolicy, sim.design_.config.buffer,
            cfg.retention, sim.design_.failureRate, cfg.seed + t);
        if (!policy.ok())
            return policy.error();
    }

    // One prepared model per distinct network, in first-use order:
    // the schedule is simulated (the batch-of-1 service time) and
    // the stand-in trained once, however many tenants share it.
    FaultCampaignConfig campaign;
    campaign.dataset = cfg.dataset;
    campaign.trainer = cfg.trainer;
    campaign.trainer.seed = cfg.seed;
    for (std::uint32_t t = 0; t < tenant_count; ++t) {
        const std::string &network = cfg.tenants[t].network;
        std::size_t index = sim.models_.size();
        for (std::size_t m = 0; m < sim.models_.size(); ++m) {
            if (sim.models_[m].network == network)
                index = m;
        }
        if (index == sim.models_.size()) {
            Result<NetworkModel> model = makeBenchmarkChecked(network);
            if (!model.ok())
                return model.error();
            Result<CampaignExposures> exposures = simulateExposures(
                sim.design_, model.value(), campaign);
            if (!exposures.ok())
                return exposures.error();
            Result<MiniModelKind> kind = miniModelForNetwork(network);
            if (!kind.ok())
                return kind.error();

            ServedModel served;
            served.network = network;
            served.executionSeconds =
                exposures.value().executionSeconds;
            if (cfg.runForwards) {
                campaign.model = kind.value();
                RetentionAwareTrainer trainer(
                    campaign.model, cfg.dataset, campaign.trainer);
                trainer.pretrain();
                served.model = prepareCampaignModel(trainer, campaign, 0.0);
                // One skeleton serves every batch, as in a campaign.
                served.skeleton =
                    bindCampaignSkeleton(campaign, served.model);
            }
            sim.models_.push_back(std::move(served));
        }
        sim.tenantModel_.push_back(index);
    }

    sim.serviceSeconds_.reserve(tenant_count);
    sim.resolvedQps_.reserve(tenant_count);
    for (std::uint32_t t = 0; t < tenant_count; ++t) {
        const double service =
            sim.models_[sim.tenantModel_[t]].executionSeconds;
        RANA_ASSERT(service > 0.0,
                    "simulated service time must be positive");
        sim.serviceSeconds_.push_back(service);
        const double spec_qps = cfg.tenants[t].qps;
        // Auto rate: split ~60% accelerator utilization evenly, so
        // the default workload queues without collapsing.
        sim.resolvedQps_.push_back(
            spec_qps > 0.0
                ? spec_qps
                : 0.6 / (static_cast<double>(tenant_count) * service));
    }
    return sim;
}

Result<ServingReport>
ServingSimulation::run(unsigned jobs_override,
                       ServingTimeline *timeline) const
{
    ScopedSpan span("serving", "run");
    const ServingConfig &cfg = config_;
    const std::uint32_t tenant_count =
        static_cast<std::uint32_t>(cfg.tenants.size());
    const double duration = cfg.durationSeconds;
    const double retry = std::max(cfg.shedRetrySeconds, 1e-6);

    // --- Control plane: the serial virtual-time event loop. Every
    // stochastic draw happens here, in event order, so the schedule
    // is one deterministic function of the prepared config.
    std::vector<TenantState> tenants;
    tenants.reserve(tenant_count);
    const std::uint64_t base = cfg.seed * 1000003;
    for (std::uint32_t t = 0; t < tenant_count; ++t) {
        Result<std::unique_ptr<GuardPolicy>> policy = makeGuardPolicy(
            cfg.tenants[t].guardPolicy, design_.config.buffer,
            cfg.retention, design_.failureRate, cfg.seed + t);
        RANA_ASSERT(policy.ok(),
                    "guard policy spec validated in prepare()");
        tenants.emplace_back(std::move(policy).value(),
                             design_.options.refreshIntervalSeconds,
                             cfg.escalationTax, base + t * 8 + 1,
                             base + t * 8 + 2, base + t * 8 + 3);
        if (timeline != nullptr)
            timeline->addTenantTrack(t, cfg.tenants[t].name);
    }

    std::priority_queue<Event, std::vector<Event>, EventAfter> events;
    std::uint64_t seq = 0;
    auto push = [&](double seconds, EventKind kind,
                    std::uint32_t tenant, std::uint32_t client = 0,
                    std::uint64_t id = 0) {
        events.push(Event{seconds, seq++, kind, tenant, client, id});
    };

    AdmissionQueue queue(cfg.queueCapacity);
    /** Next request span id; unique across tenants by issue order. */
    std::uint64_t nextSpanId = 1;
    std::vector<BatchRecord> batches;
    /** Formed batches waiting for the accelerator, FIFO. */
    std::deque<std::size_t> ready;
    bool acceleratorBusy = false;
    double horizon = 0.0;

    // Seed the arrival processes.
    for (std::uint32_t t = 0; t < tenant_count; ++t) {
        const TenantSpec &spec = cfg.tenants[t];
        if (spec.arrival == ArrivalKind::OpenLoop) {
            const double gap =
                -std::log(1.0 - tenants[t].arrivalRng.uniform()) /
                resolvedQps_[t];
            if (gap < duration)
                push(gap, EventKind::Arrival, t);
        } else {
            for (std::uint32_t c = 0; c < spec.clients; ++c) {
                const double start = tenants[t].arrivalRng.uniform() *
                                     spec.thinkSeconds;
                push(std::min(start, duration * 0.5),
                     EventKind::Arrival, t, c);
            }
        }
    }

    auto tryStartBatch = [&](double now) {
        if (acceleratorBusy || ready.empty())
            return;
        const std::size_t index = ready.front();
        ready.pop_front();
        BatchRecord &batch = batches[index];
        TenantState &state = tenants[batch.tenant];
        const TenantSpec &spec = cfg.tenants[batch.tenant];

        // The batch occupies the tenant's bank shard for its whole
        // service; one deterministic draw decides whether a weak
        // cell in the shard decayed past the refresh interval.
        batch.faultSeed = base + 500009 * (index + 1);
        batch.corrupted = spec.faultRate > 0.0 &&
                          state.faultRng.uniform() < spec.faultRate;
        if (batch.corrupted) {
            ++state.faults;
            state.guard.onOverage();
            if (timeline != nullptr)
                timeline->instant(batch.tenant, now, "overage");
            if (state.guard.armed() && !state.probing &&
                now + cfg.guardProbeSeconds < duration) {
                state.probing = true;
                push(now + cfg.guardProbeSeconds,
                     EventKind::GuardProbe, batch.tenant);
            }
        } else if (state.guard.armed()) {
            state.guard.onCleanInterval();
        }

        const std::uint32_t lanes =
            static_cast<std::uint32_t>(batch.requests.size());
        const double service =
            serviceSeconds_[batch.tenant] *
            (1.0 + (lanes - 1) * cfg.batchLaneCost) *
            state.guard.serviceMultiplier();
        batch.startSeconds = now;
        batch.endSeconds = now + service;
        acceleratorBusy = true;
        push(batch.endSeconds, EventKind::BatchDone, batch.tenant, 0,
             index);
    };

    auto formBatch = [&](std::uint32_t tenant, double now) {
        TenantState &state = tenants[tenant];
        state.windowOpen = false;
        std::vector<ServingRequest> taken =
            queue.takeTenant(tenant, cfg.maxBatch);
        if (taken.empty())
            return;
        if (timeline != nullptr) {
            timeline->queueDepth(
                now, static_cast<double>(queue.depth()));
        }
        BatchRecord batch;
        batch.tenant = tenant;
        batch.requests = std::move(taken);
        batches.push_back(std::move(batch));
        ready.push_back(batches.size() - 1);
        tryStartBatch(now);
    };

    auto arrive = [&](double now, std::uint32_t tenant,
                      std::uint32_t client) {
        TenantState &state = tenants[tenant];
        const TenantSpec &spec = cfg.tenants[tenant];
        ++state.issued;

        if (state.guard.shedding()) {
            ++state.shedGuard;
            if (timeline != nullptr)
                timeline->instant(tenant, now, "shed-guard");
            if (spec.arrival == ArrivalKind::ClosedLoop &&
                now + retry < duration) {
                push(now + retry, EventKind::Arrival, tenant, client);
            }
            return;
        }
        ServingRequest request;
        request.tenant = tenant;
        request.id = state.nextRequestId++;
        request.sample = static_cast<std::uint32_t>(
            state.sampleRng.uniformInt(cfg.dataset.testSamples));
        request.client = client;
        request.arrivalSeconds = now;
        request.span = nextSpanId++;
        if (!queue.admit(request)) {
            ++state.shedQueue;
            if (timeline != nullptr)
                timeline->instant(tenant, now, "shed-queue");
            if (spec.arrival == ArrivalKind::ClosedLoop &&
                now + retry < duration) {
                push(now + retry, EventKind::Arrival, tenant, client);
            }
            return;
        }
        ++state.admitted;
        if (timeline != nullptr) {
            timeline->queueDepth(
                now, static_cast<double>(queue.depth()));
        }
        if (cfg.batchWindowSeconds <= 0.0) {
            formBatch(tenant, now);
            return;
        }
        if (!state.windowOpen) {
            state.windowOpen = true;
            ++state.windowGen;
            push(now + cfg.batchWindowSeconds, EventKind::WindowClose,
                 tenant, 0, state.windowGen);
        }
        if (queue.depthFor(tenant) >= cfg.maxBatch)
            formBatch(tenant, now);
    };

    while (!events.empty()) {
        const Event event = events.top();
        events.pop();
        const double now = event.seconds;
        TenantState &state = tenants[event.tenant];
        const TenantSpec &spec = cfg.tenants[event.tenant];

        switch (event.kind) {
          case EventKind::Arrival: {
            if (spec.arrival == ArrivalKind::OpenLoop) {
                const double gap =
                    -std::log(1.0 - state.arrivalRng.uniform()) /
                    resolvedQps_[event.tenant];
                if (now + gap < duration) {
                    push(now + gap, EventKind::Arrival, event.tenant);
                }
            }
            arrive(now, event.tenant, event.client);
            break;
          }
          case EventKind::WindowClose: {
            if (state.windowOpen && state.windowGen == event.id)
                formBatch(event.tenant, now);
            break;
          }
          case EventKind::BatchDone: {
            BatchRecord &batch = batches[event.id];
            const std::uint32_t lanes =
                static_cast<std::uint32_t>(batch.requests.size());
            ++state.batches;
            state.maxBatchLanes =
                std::max<std::uint64_t>(state.maxBatchLanes, lanes);
            for (const ServingRequest &request : batch.requests) {
                ++state.completed;
                state.latenciesMs.push_back(
                    (now - request.arrivalSeconds) * 1e3);
                if (timeline != nullptr) {
                    timeline->requestSpan(event.tenant, request.span,
                                          request.arrivalSeconds,
                                          now);
                }
                if (lanes > 1)
                    ++state.coalesced;
                if (batch.corrupted)
                    ++state.corruptedRequests;
                if (spec.arrival == ArrivalKind::ClosedLoop &&
                    now + spec.thinkSeconds < duration) {
                    push(now + spec.thinkSeconds, EventKind::Arrival,
                         event.tenant, request.client);
                }
            }
            if (timeline != nullptr) {
                timeline->batchSpan(
                    event.tenant, batch.startSeconds, now,
                    spec.network + " x" + std::to_string(lanes) +
                        (batch.corrupted ? " (corrupted)" : ""));
            }
            horizon = std::max(horizon, now);
            acceleratorBusy = false;
            tryStartBatch(now);
            break;
          }
          case EventKind::GuardProbe: {
            if (!state.guard.armed()) {
                state.probing = false;
                break;
            }
            if (spec.faultRate > 0.0 &&
                state.faultRng.uniform() < spec.faultRate) {
                ++state.faults;
                state.guard.onOverage();
            } else {
                state.guard.onCleanInterval();
            }
            if (state.guard.armed() &&
                now + cfg.guardProbeSeconds < duration) {
                push(now + cfg.guardProbeSeconds,
                     EventKind::GuardProbe, event.tenant);
            } else {
                state.probing = false;
            }
            break;
          }
        }
    }
    RANA_ASSERT(ready.empty() && !acceleratorBusy,
                "event loop drained with work pending");

    // --- Data plane: replay every served request through its
    // tenant's model. Each model's requests form one lane list, one
    // sample per lane, in batch order across batch boundaries; a lane
    // keeps its own batch's injector seeds (a clean batch's lanes get
    // rate 0), and no kernel mixes lanes, so corrupted and clean
    // lanes share a forward. scoreLaneLists draws every lane's bit
    // errors first, then fans the lists' 16-lane blocks of every
    // model out across the pool in one parallelFor into per-lane
    // slots, so the results are independent of the pool size. With
    // no clean cache, every request runs from the first layer.
    std::vector<LaneList> lists(models_.size());
    std::vector<std::vector<std::uint32_t>> lane_tenants(models_.size());
    std::vector<std::vector<std::uint32_t>> correct(models_.size());
    if (cfg.runForwards) {
        for (std::size_t m = 0; m < models_.size(); ++m) {
            lists[m].skeleton = models_[m].skeleton.get();
            lists[m].format = &models_[m].model.format;
            lists[m].test = &models_[m].model.test;
        }
        for (const BatchRecord &batch : batches) {
            const std::size_t m = tenantModel_[batch.tenant];
            const double rate =
                batch.corrupted ? cfg.injectedBitErrorRate : 0.0;
            for (std::uint32_t lane = 0; lane < batch.requests.size();
                 ++lane) {
                lists[m].lanes.push_back(
                    {batch.requests[lane].sample,
                     {rate, batch.faultSeed + lane * 2 + 1},
                     {rate, batch.faultSeed + lane * 2 + 2}});
                lane_tenants[m].push_back(batch.tenant);
            }
        }
        const unsigned jobs =
            jobs_override > 0
                ? jobs_override
                : (cfg.jobs == 0 ? hardwareJobs() : cfg.jobs);
        correct = scoreLaneLists(lists, kMaxKernelLanes, jobs).correct;
    }

    // --- Report assembly and metrics, serially on this thread so
    // registry contents are identical for any pool size.
    ServingReport report;
    report.designName = design_.name;
    report.durationSeconds = duration;
    report.horizonSeconds = horizon;
    report.peakQueueDepth = queue.peakDepth();
    report.forwardsRan = cfg.runForwards;

    std::vector<std::uint64_t> wrong(tenant_count, 0);
    std::vector<std::uint64_t> evaluated(tenant_count, 0);
    for (std::size_t m = 0; m < lane_tenants.size(); ++m) {
        for (std::size_t i = 0; i < lane_tenants[m].size(); ++i) {
            ++evaluated[lane_tenants[m][i]];
            if (correct[m][i] == 0)
                ++wrong[lane_tenants[m][i]];
        }
    }

    MetricsRegistry &registry = MetricsRegistry::global();
    MetricsRegistry::Histogram &latency = registry.histogram(
        "serving_latency_seconds", latencySecondsBounds());
    for (std::uint32_t t = 0; t < tenant_count; ++t) {
        const TenantState &state = tenants[t];
        const TenantSpec &spec = cfg.tenants[t];
        TenantServingStats stats;
        stats.name = spec.name;
        stats.network = spec.network;
        stats.policyName = state.guard.policy().name();
        stats.arrival = arrivalKindName(spec.arrival);
        stats.qps = resolvedQps_[t];
        stats.shard = shards_[t];
        stats.serviceSeconds = serviceSeconds_[t];
        stats.issued = state.issued;
        stats.admitted = state.admitted;
        stats.shedGuard = state.shedGuard;
        stats.shedQueue = state.shedQueue;
        stats.completed = state.completed;
        stats.batches = state.batches;
        stats.coalesced = state.coalesced;
        stats.maxBatchLanes = state.maxBatchLanes;
        stats.faults = state.faults;
        stats.trips = state.guard.trips();
        stats.redisarms = state.guard.redisarms();
        stats.escalations = state.guard.escalations();
        stats.corruptedRequests = state.corruptedRequests;
        stats.wrongPredictions = wrong[t];
        if (!state.latenciesMs.empty()) {
            stats.p50Ms = percentile(state.latenciesMs, 50.0);
            stats.p95Ms = percentile(state.latenciesMs, 95.0);
            stats.p99Ms = percentile(state.latenciesMs, 99.0);
            stats.maxMs = *std::max_element(
                state.latenciesMs.begin(), state.latenciesMs.end());
            double sum = 0.0;
            for (const double ms : state.latenciesMs)
                sum += ms;
            stats.meanMs =
                sum / static_cast<double>(state.latenciesMs.size());
        }
        stats.throughputRps =
            static_cast<double>(state.completed) / duration;
        stats.accuracy =
            evaluated[t] > 0
                ? 1.0 - static_cast<double>(wrong[t]) /
                            static_cast<double>(evaluated[t])
                : 0.0;

        report.totalCompleted += stats.completed;
        report.totalShed += stats.shedGuard + stats.shedQueue;
        report.worstP99Ms = std::max(report.worstP99Ms, stats.p99Ms);

        registry.counter("serving_requests_completed_total")
            .add(stats.completed);
        registry.counter("serving_requests_shed_guard_total")
            .add(stats.shedGuard);
        registry.counter("serving_requests_shed_queue_total")
            .add(stats.shedQueue);
        registry.counter("serving_batches_total").add(stats.batches);
        registry.counter("serving_requests_coalesced_total")
            .add(stats.coalesced);
        registry.counter("serving_guard_trips_total")
            .add(stats.trips);
        registry.counter("serving_corrupted_requests_total")
            .add(stats.corruptedRequests);
        registry.counter("serving_tenant_" + spec.name +
                         "_completed_total")
            .add(stats.completed);
        registry.counter("serving_tenant_" + spec.name + "_shed_total")
            .add(stats.shedGuard + stats.shedQueue);
        for (const double ms : state.latenciesMs)
            latency.observe(ms * 1e-3);

        report.tenants.push_back(std::move(stats));
    }
    report.totalThroughputRps =
        static_cast<double>(report.totalCompleted) / duration;
    registry.gauge("serving_queue_depth_peak")
        .setMax(static_cast<double>(report.peakQueueDepth));
    return report;
}

Result<ServingReport>
runServing(const ServingConfig &config)
{
    Result<ServingSimulation> sim = ServingSimulation::prepare(config);
    if (!sim.ok())
        return sim.error();
    return sim.value().run();
}

} // namespace rana
