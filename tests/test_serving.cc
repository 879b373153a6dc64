/**
 * @file
 * Tests of the multi-tenant serving engine: config validation, the
 * bit-reproducibility contract (byte-identical canonical reports and
 * metrics snapshots across data-plane pool sizes), guard-driven
 * shedding isolation, batch-window semantics (window 0 reduces to
 * sequential service), queue-overflow shedding, closed-loop client
 * bounds, bank-shard partitioning, the admission-control primitives,
 * the per-tenant Chrome-trace timeline and the data plane's served
 * predictions, pinned by hash.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "edram/bank_sharding.hh"
#include "edram/buffer_system.hh"
#include "edram/guard_policy.hh"
#include "obs/chrome_trace.hh"
#include "obs/metrics_registry.hh"
#include "serving/admission.hh"
#include "serving/serving.hh"
#include "sim/trace_timeline.hh"

namespace rana {
namespace {

/**
 * A cheap timing-only config: the data plane (training + batched
 * forwards) is off, so prepare() costs only the schedule simulation
 * and the event loop dominates. Latency numbers are identical with
 * and without forwards.
 */
ServingConfig
timingConfig(std::uint32_t tenants, double fault_rate = 0.0)
{
    GuardPolicySpec policy;
    ServingConfig config;
    config.tenants = mixedTenantSpecs(tenants, policy, fault_rate);
    config.durationSeconds = 0.5;
    config.runForwards = false;
    config.seed = 7;
    return config;
}

/**
 * The registry contents the serving engine wrote, excluding the
 * wall-clock span_seconds_* histograms (the one non-deterministic
 * instrument: ScopedSpan always records host time).
 */
std::string
servingMetricsFingerprint()
{
    const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
    std::ostringstream out;
    out.precision(17);
    for (const MetricsSnapshot::CounterValue &counter : snap.counters)
        out << counter.name << "=" << counter.value << "\n";
    for (const MetricsSnapshot::GaugeValue &gauge : snap.gauges)
        out << gauge.name << "=" << gauge.value << "\n";
    for (const MetricsSnapshot::HistogramValue &hist :
         snap.histograms) {
        if (hist.name.rfind("span_seconds_", 0) == 0)
            continue;
        out << hist.name << " sum=" << hist.sum
            << " count=" << hist.count;
        for (const std::uint64_t bucket : hist.counts)
            out << " " << bucket;
        out << "\n";
    }
    return out.str();
}

/** 64-bit FNV-1a of `text`. */
std::uint64_t
fnv1a64(const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char ch : text) {
        hash ^= static_cast<unsigned char>(ch);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

// ----------------------------------------------------------------
// Config validation
// ----------------------------------------------------------------

TEST(ServingConfig, RejectsDegenerateConfigs)
{
    ServingConfig config = timingConfig(2);
    config.tenants.clear();
    EXPECT_FALSE(ServingSimulation::prepare(config).ok());

    config = timingConfig(2);
    config.durationSeconds = 0.0;
    EXPECT_FALSE(ServingSimulation::prepare(config).ok());

    config = timingConfig(2);
    config.maxBatch = 0;
    EXPECT_FALSE(ServingSimulation::prepare(config).ok());

    config = timingConfig(2);
    config.batchWindowSeconds = -0.001;
    EXPECT_FALSE(ServingSimulation::prepare(config).ok());

    config = timingConfig(2);
    config.tenants[0].faultRate = 1.5;
    EXPECT_FALSE(ServingSimulation::prepare(config).ok());

    config = timingConfig(2);
    config.tenants[1].arrival = ArrivalKind::ClosedLoop;
    config.tenants[1].clients = 0;
    EXPECT_FALSE(ServingSimulation::prepare(config).ok());

    config = timingConfig(2);
    config.tenants[0].network = "NoSuchNet";
    EXPECT_FALSE(ServingSimulation::prepare(config).ok());
}

TEST(ServingConfig, MixedSpecsAlternateNetworks)
{
    GuardPolicySpec policy;
    const std::vector<TenantSpec> specs =
        mixedTenantSpecs(4, policy, 0.1);
    ASSERT_EQ(specs.size(), 4u);
    EXPECT_EQ(specs[0].network, "AlexNet");
    EXPECT_EQ(specs[1].network, "VGG");
    EXPECT_EQ(specs[2].network, "AlexNet");
    EXPECT_EQ(specs[3].network, "VGG");
    EXPECT_EQ(specs[0].name, "tenant0");
    EXPECT_EQ(specs[3].name, "tenant3");
    for (const TenantSpec &spec : specs)
        EXPECT_DOUBLE_EQ(spec.faultRate, 0.1);
}

// ----------------------------------------------------------------
// Determinism: the bit-reproducibility contract
// ----------------------------------------------------------------

TEST(ServingDeterminism, ByteIdenticalAcrossPoolSizes)
{
    Result<ServingSimulation> sim =
        ServingSimulation::prepare(timingConfig(3, 0.05));
    ASSERT_TRUE(sim.ok()) << sim.error().message;

    std::string reference;
    std::string metrics_reference;
    for (const unsigned jobs : {1u, 2u, 8u, 2u}) {
        MetricsRegistry::global().reset();
        const Result<ServingReport> report = sim.value().run(jobs);
        ASSERT_TRUE(report.ok()) << report.error().message;
        const std::string canonical =
            canonicalServingJson(report.value());
        const std::string metrics = servingMetricsFingerprint();
        if (reference.empty()) {
            reference = canonical;
            metrics_reference = metrics;
            EXPECT_GT(report.value().totalCompleted, 0u);
            continue;
        }
        EXPECT_EQ(canonical, reference) << "jobs=" << jobs;
        EXPECT_EQ(metrics, metrics_reference) << "jobs=" << jobs;
    }
}

TEST(ServingDeterminism, FreshPrepareReproducesTheRun)
{
    const ServingConfig config = timingConfig(2, 0.1);
    const Result<ServingReport> first = runServing(config);
    const Result<ServingReport> second = runServing(config);
    ASSERT_TRUE(first.ok()) << first.error().message;
    ASSERT_TRUE(second.ok()) << second.error().message;
    EXPECT_EQ(canonicalServingJson(first.value()),
              canonicalServingJson(second.value()));
}

TEST(ServingDeterminism, SeedChangesTheWorkload)
{
    ServingConfig config = timingConfig(2);
    const Result<ServingReport> base = runServing(config);
    config.seed = 8;
    const Result<ServingReport> other = runServing(config);
    ASSERT_TRUE(base.ok());
    ASSERT_TRUE(other.ok());
    EXPECT_NE(canonicalServingJson(base.value()),
              canonicalServingJson(other.value()));
}

// ----------------------------------------------------------------
// Guard-driven shedding
// ----------------------------------------------------------------

TEST(ServingGuard, TripShedsOnlyTheFaultedTenant)
{
    ServingConfig config = timingConfig(2);
    config.tenants[0].faultRate = 1.0; // every batch overages
    config.tenants[1].faultRate = 0.0;
    // Pin the rate: the auto fair share of the long-service VGG
    // tenant could round to zero arrivals over a short horizon.
    for (TenantSpec &spec : config.tenants)
        spec.qps = 40.0;
    const Result<ServingReport> report = runServing(config);
    ASSERT_TRUE(report.ok()) << report.error().message;

    const TenantServingStats &faulted = report.value().tenants[0];
    const TenantServingStats &clean = report.value().tenants[1];
    EXPECT_GE(faulted.trips, 1u);
    EXPECT_GE(faulted.shedGuard, 1u);
    EXPECT_GE(faulted.corruptedRequests, 1u);
    // The permanent policy never re-disarms: after the first trip
    // the tenant sheds everything, so it completes at most one
    // batch window's worth of requests.
    EXPECT_EQ(faulted.redisarms, 0u);
    // The clean tenant is untouched by its neighbour's guard.
    EXPECT_EQ(clean.trips, 0u);
    EXPECT_EQ(clean.shedGuard, 0u);
    EXPECT_EQ(clean.corruptedRequests, 0u);
    EXPECT_GT(clean.completed, 0u);
}

TEST(ServingGuard, HysteresisRedisarmsWherePermanentCannot)
{
    ServingConfig config = timingConfig(1, 0.5);
    config.durationSeconds = 1.0;

    const Result<ServingReport> permanent = runServing(config);
    ASSERT_TRUE(permanent.ok());
    EXPECT_GE(permanent.value().tenants[0].trips, 1u);
    EXPECT_EQ(permanent.value().tenants[0].redisarms, 0u);

    config.tenants[0].guardPolicy.kind = GuardPolicyKind::Hysteresis;
    config.tenants[0].guardPolicy.hysteresisK = 1;
    const Result<ServingReport> hysteresis = runServing(config);
    ASSERT_TRUE(hysteresis.ok());
    EXPECT_GE(hysteresis.value().tenants[0].redisarms, 1u);
    // Re-disarmed tenants resume serving, so hysteresis completes
    // at least as many requests as the one-strike policy.
    EXPECT_GE(hysteresis.value().tenants[0].completed,
              permanent.value().tenants[0].completed);
}

// ----------------------------------------------------------------
// Batch-window semantics
// ----------------------------------------------------------------

TEST(ServingBatching, WindowZeroIsExactlySequential)
{
    ServingConfig config = timingConfig(2);
    config.batchWindowSeconds = 0.0;
    for (TenantSpec &spec : config.tenants)
        spec.qps = 100.0; // enough pressure to tempt coalescing
    const Result<ServingReport> report = runServing(config);
    ASSERT_TRUE(report.ok()) << report.error().message;
    for (const TenantServingStats &stats : report.value().tenants) {
        EXPECT_GT(stats.completed, 0u);
        EXPECT_EQ(stats.coalesced, 0u);
        EXPECT_LE(stats.maxBatchLanes, 1u);
        EXPECT_EQ(stats.batches, stats.completed);
    }
}

TEST(ServingBatching, WindowCoalescesUnderPressure)
{
    ServingConfig config = timingConfig(2);
    config.batchWindowSeconds = 0.05;
    for (TenantSpec &spec : config.tenants)
        spec.qps = 200.0;
    const Result<ServingReport> report = runServing(config);
    ASSERT_TRUE(report.ok()) << report.error().message;
    std::uint64_t coalesced = 0;
    std::uint64_t max_lanes = 0;
    for (const TenantServingStats &stats : report.value().tenants) {
        coalesced += stats.coalesced;
        max_lanes = std::max(max_lanes, stats.maxBatchLanes);
        EXPECT_LE(stats.maxBatchLanes, config.maxBatch);
    }
    EXPECT_GT(coalesced, 0u);
    EXPECT_GT(max_lanes, 1u);
}

// ----------------------------------------------------------------
// Queue overflow and closed-loop bounds
// ----------------------------------------------------------------

TEST(ServingQueue, OverflowShedsAndPeakRespectsCapacity)
{
    ServingConfig config = timingConfig(2);
    config.queueCapacity = 1;
    for (TenantSpec &spec : config.tenants)
        spec.qps = 500.0;
    const Result<ServingReport> report = runServing(config);
    ASSERT_TRUE(report.ok()) << report.error().message;
    EXPECT_LE(report.value().peakQueueDepth, 1u);
    std::uint64_t shed_queue = 0;
    for (const TenantServingStats &stats : report.value().tenants)
        shed_queue += stats.shedQueue;
    EXPECT_GT(shed_queue, 0u);
}

TEST(ServingClosedLoop, OneClientNeverBatchesWithItself)
{
    ServingConfig config = timingConfig(2);
    for (TenantSpec &spec : config.tenants) {
        spec.arrival = ArrivalKind::ClosedLoop;
        spec.clients = 1;
        spec.thinkSeconds = 0.0;
    }
    const Result<ServingReport> report = runServing(config);
    ASSERT_TRUE(report.ok()) << report.error().message;
    for (const TenantServingStats &stats : report.value().tenants) {
        EXPECT_GT(stats.completed, 0u);
        EXPECT_GE(stats.issued, 1u);
        EXPECT_LE(stats.admitted, stats.issued);
        // A single client has one request outstanding at a time, so
        // no batch can ever hold two of its requests.
        EXPECT_EQ(stats.coalesced, 0u);
        EXPECT_LE(stats.maxBatchLanes, 1u);
        EXPECT_EQ(stats.arrival, std::string("closed-loop"));
    }
}

// ----------------------------------------------------------------
// Bank sharding
// ----------------------------------------------------------------

TEST(ServingShards, PartitionIsContiguousAndExclusive)
{
    Result<ServingSimulation> sim =
        ServingSimulation::prepare(timingConfig(3));
    ASSERT_TRUE(sim.ok()) << sim.error().message;
    const std::vector<BankShard> &shards = sim.value().shards();
    ASSERT_EQ(shards.size(), 3u);
    EXPECT_EQ(shards[0].firstBank, 0u);
    for (std::size_t i = 0; i < shards.size(); ++i) {
        EXPECT_GE(shards[i].banks, 1u);
        if (i > 0) {
            EXPECT_EQ(shards[i].firstBank, shards[i - 1].endBank());
        }
    }
}

TEST(ServingShards, PartitionBanksSpreadsTheRemainder)
{
    const Result<std::vector<BankShard>> shards =
        partitionBanks(10, 4);
    ASSERT_TRUE(shards.ok());
    ASSERT_EQ(shards.value().size(), 4u);
    EXPECT_EQ(shards.value()[0].banks, 3u);
    EXPECT_EQ(shards.value()[1].banks, 3u);
    EXPECT_EQ(shards.value()[2].banks, 2u);
    EXPECT_EQ(shards.value()[3].banks, 2u);
    EXPECT_EQ(shards.value()[3].endBank(), 10u);

    EXPECT_FALSE(partitionBanks(4, 0).ok());
    EXPECT_FALSE(partitionBanks(4, 5).ok());
}

// ----------------------------------------------------------------
// Admission-control primitives
// ----------------------------------------------------------------

TEST(ServingAdmission, QueueIsBoundedFifoPerTenant)
{
    AdmissionQueue queue(3);
    ServingRequest request;
    for (std::uint64_t id = 0; id < 3; ++id) {
        request.tenant = static_cast<std::uint32_t>(id % 2);
        request.id = id;
        EXPECT_TRUE(queue.admit(request));
    }
    EXPECT_TRUE(queue.full());
    request.id = 99;
    EXPECT_FALSE(queue.admit(request));
    EXPECT_EQ(queue.depth(), 3u);
    EXPECT_EQ(queue.depthFor(0), 2u);
    EXPECT_EQ(queue.depthFor(1), 1u);
    EXPECT_EQ(queue.peakDepth(), 3u);

    // takeTenant pulls only that tenant's requests, oldest first.
    const std::vector<ServingRequest> taken = queue.takeTenant(0, 8);
    ASSERT_EQ(taken.size(), 2u);
    EXPECT_EQ(taken[0].id, 0u);
    EXPECT_EQ(taken[1].id, 2u);
    EXPECT_EQ(queue.depth(), 1u);
    EXPECT_EQ(queue.depthFor(1), 1u);
    EXPECT_EQ(queue.peakDepth(), 3u);
}

TEST(ServingAdmission, GuardMapsPolicyActionsOntoQoS)
{
    BufferGeometry geometry;
    geometry.technology = MemoryTechnology::Edram;
    geometry.numBanks = 16;
    const RetentionDistribution retention =
        RetentionDistribution::typical65nm();

    // Permanent: one overage sheds forever, no service tax.
    GuardPolicySpec spec;
    Result<std::unique_ptr<GuardPolicy>> policy =
        makeGuardPolicy(spec, geometry, retention, 1e-5, 1);
    ASSERT_TRUE(policy.ok());
    TenantGuard permanent(std::move(policy).value(), 734e-6, 0.02);
    EXPECT_FALSE(permanent.armed());
    EXPECT_DOUBLE_EQ(permanent.serviceMultiplier(), 1.0);
    permanent.onOverage();
    EXPECT_TRUE(permanent.shedding());
    permanent.onCleanInterval();
    permanent.onCleanInterval();
    EXPECT_TRUE(permanent.shedding());
    EXPECT_EQ(permanent.trips(), 1u);
    EXPECT_EQ(permanent.redisarms(), 0u);

    // Hysteresis K=2: two clean intervals re-disarm the tenant.
    spec.kind = GuardPolicyKind::Hysteresis;
    spec.hysteresisK = 2;
    policy = makeGuardPolicy(spec, geometry, retention, 1e-5, 1);
    ASSERT_TRUE(policy.ok());
    TenantGuard hysteresis(std::move(policy).value(), 734e-6, 0.02);
    hysteresis.onOverage();
    EXPECT_TRUE(hysteresis.shedding());
    hysteresis.onCleanInterval();
    EXPECT_TRUE(hysteresis.shedding());
    hysteresis.onCleanInterval();
    EXPECT_FALSE(hysteresis.shedding());
    EXPECT_EQ(hysteresis.redisarms(), 1u);

    // Binned escalation: the tenant keeps serving on a shorter
    // divider-bin interval and pays a service-time tax for it.
    spec.kind = GuardPolicyKind::Binned;
    spec.bins = 4;
    policy = makeGuardPolicy(spec, geometry, retention, 1e-5, 1);
    ASSERT_TRUE(policy.ok());
    TenantGuard binned(std::move(policy).value(), 734e-6, 0.02);
    binned.onOverage();
    EXPECT_FALSE(binned.shedding());
    EXPECT_TRUE(binned.escalated());
    EXPECT_GE(binned.escalations(), 1u);
    EXPECT_GT(binned.serviceMultiplier(), 1.0);
}

// ----------------------------------------------------------------
// Timeline and report rendering
// ----------------------------------------------------------------

TEST(ServingTimelineTracks, RunEmitsPerTenantTracks)
{
    Result<ServingSimulation> sim =
        ServingSimulation::prepare(timingConfig(2, 0.3));
    ASSERT_TRUE(sim.ok()) << sim.error().message;

    TraceRecorder recorder;
    recorder.enable();
    ServingTimeline timeline(recorder);
    const Result<ServingReport> report =
        sim.value().run(1, &timeline);
    ASSERT_TRUE(report.ok()) << report.error().message;
    EXPECT_GT(recorder.eventCount(), 0u);

    const std::string doc = recorder.json();
    EXPECT_NE(doc.find("tenant/tenant0"), std::string::npos);
    EXPECT_NE(doc.find("tenant/tenant1"), std::string::npos);
    EXPECT_NE(doc.find("serving_queue_depth"), std::string::npos);
}

TEST(ServingReportRender, TableAndCanonicalJsonCarryTenants)
{
    const Result<ServingReport> report =
        runServing(timingConfig(2, 0.1));
    ASSERT_TRUE(report.ok()) << report.error().message;

    const std::string table = report.value().markdownTable();
    EXPECT_NE(table.find("| tenant"), std::string::npos);
    EXPECT_NE(table.find("tenant0"), std::string::npos);
    EXPECT_NE(table.find("tenant1"), std::string::npos);
    EXPECT_NE(table.find("p99"), std::string::npos);

    const std::string canonical =
        canonicalServingJson(report.value());
    EXPECT_EQ(canonical.front(), '{');
    EXPECT_NE(canonical.find("\"tenants\""), std::string::npos);
    EXPECT_NE(canonical.find("\"worst_p99_ms\""), std::string::npos);

    EXPECT_NE(report.value().describe().find("tenants"),
              std::string::npos);
}

// ----------------------------------------------------------------
// Data plane (forwards on)
// ----------------------------------------------------------------

TEST(ServingForwards, ServedAccuracyIsMeasured)
{
    ServingConfig config = timingConfig(1);
    config.runForwards = true;
    config.durationSeconds = 0.3;
    // Shrink the stand-in model so the test stays smoke-cheap.
    config.dataset.trainSamples = 64;
    config.dataset.testSamples = 32;
    config.trainer.pretrainEpochs = 2;

    const Result<ServingReport> report = runServing(config);
    ASSERT_TRUE(report.ok()) << report.error().message;
    EXPECT_TRUE(report.value().forwardsRan);
    const TenantServingStats &stats = report.value().tenants[0];
    EXPECT_GT(stats.completed, 0u);
    EXPECT_GT(stats.accuracy, 0.0);
    EXPECT_LE(stats.accuracy, 1.0);
}

TEST(ServingForwards, DataPlaneIsPoolInvariantAndPinned)
{
    // Forwards on over both mini models with odd batch sizes
    // (maxBatch 5), so neither model's requests divide into the
    // data plane's 16-lane blocks, and corrupted and clean batches
    // share blocks. The pin was recorded with one forward per batch:
    // how the replay is blocked must not move a single prediction.
    GuardPolicySpec policy;
    policy.kind = GuardPolicyKind::Hysteresis;
    ServingConfig config;
    config.tenants = mixedTenantSpecs(3, policy, 0.3);
    for (TenantSpec &tenant : config.tenants)
        tenant.qps = 20.0;
    config.seed = 7;
    config.maxBatch = 5;
    config.batchWindowSeconds = 0.05;
    config.durationSeconds = 3.0;
    config.dataset.trainSamples = 64;
    config.dataset.testSamples = 32;
    config.trainer.pretrainEpochs = 2;
    Result<ServingSimulation> sim = ServingSimulation::prepare(config);
    ASSERT_TRUE(sim.ok()) << sim.error().message;

    std::string reference;
    for (const unsigned jobs : {1u, 2u, 8u}) {
        const Result<ServingReport> report = sim.value().run(jobs);
        ASSERT_TRUE(report.ok()) << report.error().message;
        const std::string canonical =
            canonicalServingJson(report.value());
        if (!reference.empty()) {
            EXPECT_EQ(canonical, reference) << "jobs=" << jobs;
            continue;
        }
        reference = canonical;
        std::uint64_t alex = 0;
        std::uint64_t vgg = 0;
        std::uint64_t corrupted = 0;
        for (const TenantServingStats &tenant : report.value().tenants) {
            (tenant.network == "VGG" ? vgg : alex) += tenant.completed;
            corrupted += tenant.corruptedRequests;
        }
        EXPECT_GT(alex, 16u);
        EXPECT_GT(vgg, 16u);
        EXPECT_GT(corrupted, 0u);
        EXPECT_EQ(fnv1a64(canonical), 0x25dcd2e9bdc21cc0ULL);
    }
}

} // namespace
} // namespace rana
