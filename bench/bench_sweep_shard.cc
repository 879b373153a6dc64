/**
 * @file
 * Sharded-sweep robustness harness: proves the crash-tolerant
 * multi-process campaign engine (robust/sweep_shard) merges
 * byte-identically with the single-process sweep, both on a clean
 * run and under seeded chaos (a killed worker, a stalled cell and a
 * corrupted result frame in the same run).
 *
 * Three sweeps over the same tiny failure-rate x refresh-interval
 * grid: the in-process reference, a clean 4-worker sharded run and
 * a 4-worker sharded run with every chaos fault armed. The emitted
 * BENCH_sweep_shard.json carries "merge_identical" (both sharded
 * canonical reports byte-equal to the reference), "chaos_exercised"
 * (the injected kill/stall/corruption all actually fired) and the
 * full recovery counters, including the telemetry-frame and
 * postmortem-dump counts of the observability plane;
 * tools/check_bench.py gates on them, so a lost cell, a divergent
 * merge, chaos that silently stopped firing or a crash that left no
 * postmortem fails CI. The chaos run writes its incident dumps
 * under BENCH_postmortem/.
 *
 * The sweep is deterministic per seed for any worker count, which
 * is the whole point: crashes, retries and work stealing reorder
 * execution but never the merged bytes.
 */

#include "harness.hh"

#include <chrono>

#include "robust/campaign_sweep.hh"
#include "robust/sweep_shard.hh"
#include "util/json_writer.hh"
#include "util/logging.hh"

namespace {

using namespace rana;

constexpr unsigned kWorkers = 4;

CampaignSweepConfig
shardSweepConfig(std::uint32_t trials)
{
    DatasetConfig dataset;
    dataset.trainSamples = 256;
    dataset.testSamples = 128;
    dataset.imageSize = 12;
    dataset.numClasses = 4;
    TrainerConfig trainer;
    trainer.pretrainEpochs = 6;
    trainer.retrainEpochs = 2;
    trainer.evalRepeats = 2;

    CampaignSweepConfig config;
    config.failureRates = {0.0, 1e-4};
    config.refreshIntervals = {45e-6, 734e-6};
    config.campaign = FaultCampaignConfigBuilder()
                          .trials(trials)
                          .seed(3)
                          .dataset(dataset)
                          .trainer(trainer)
                          .build();
    return config;
}

void
statsJson(JsonWriter &json, const std::string &key,
          const SweepShardStats &stats, double seconds)
{
    json.beginObject(key);
    json.field("workers", static_cast<std::uint64_t>(stats.workers));
    json.field("cells", static_cast<std::uint64_t>(stats.cells));
    json.field("stolen_cells",
               static_cast<std::uint64_t>(stats.stolenCells));
    json.field("worker_crashes",
               static_cast<std::uint64_t>(stats.workerCrashes));
    json.field("respawns",
               static_cast<std::uint64_t>(stats.respawns));
    json.field("retries", static_cast<std::uint64_t>(stats.retries));
    json.field("timeouts",
               static_cast<std::uint64_t>(stats.timeouts));
    json.field("corrupt_frames",
               static_cast<std::uint64_t>(stats.corruptFrames));
    json.field("degraded_cells",
               static_cast<std::uint64_t>(stats.degradedCells));
    json.field("telemetry_frames",
               static_cast<std::uint64_t>(stats.telemetryFrames));
    json.field("postmortem_dumps",
               static_cast<std::uint64_t>(stats.postmortemDumps));
    json.field("seconds", seconds);
    json.endObject();
}

void
runSweepShardBench(rana::bench::BenchContext &ctx)
{
    using namespace rana::bench;

    const std::uint32_t trials = ctx.trials > 0 ? ctx.trials : 4;
    const CampaignSweepConfig config = shardSweepConfig(trials);
    const DesignPoint design =
        makeDesignPoint(DesignKind::RanaE5, retention());
    const NetworkModel network = makeAlexNet();
    const double cells = static_cast<double>(
        config.failureRates.size() * config.refreshIntervals.size());

    std::cout << design.name << " on " << network.name() << ", "
              << config.campaign.trials << " trials per cell, "
              << config.failureRates.size() << "x"
              << config.refreshIntervals.size() << " grid, "
              << kWorkers << " worker processes\n\n";

    // 1. The single-process reference the merges must reproduce.
    auto start = std::chrono::steady_clock::now();
    const Result<CampaignSweepReport> reference =
        runCampaignSweep(design, network, config);
    const double reference_seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (!reference.ok())
        fatal("reference sweep failed: ", reference.error().message);
    const std::string reference_json =
        canonicalSweepJson(reference.value());

    // 2. Clean sharded run: same grid, fanned out over workers.
    SweepShardConfig clean;
    clean.workers = kWorkers;
    clean.backoffBaseMs = 1;
    start = std::chrono::steady_clock::now();
    const Result<ShardedSweepResult> sharded =
        runShardedCampaignSweep(design, network, config, clean);
    const double sharded_seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (!sharded.ok())
        fatal("sharded sweep failed: ", sharded.error().message);
    const bool clean_identical =
        canonicalSweepJson(sharded.value().report) == reference_json;

    // 3. Chaos run: kill the worker that draws cell 0, stall cell 2
    // until the heartbeat timeout fires and corrupt cell 1's first
    // result frame. Every fault retries; nothing may be lost.
    SweepShardConfig chaos = clean;
    chaos.cellTimeoutMs = 20000;
    chaos.chaos.killCell = 0;
    chaos.chaos.stallCell = 2;
    chaos.chaos.corruptCell = 1;
    chaos.postmortemDir = "BENCH_postmortem";
    start = std::chrono::steady_clock::now();
    const Result<ShardedSweepResult> survived =
        runShardedCampaignSweep(design, network, config, chaos);
    const double chaos_seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (!survived.ok())
        fatal("chaos sweep failed: ", survived.error().message);
    const bool chaos_identical =
        canonicalSweepJson(survived.value().report) ==
        reference_json;

    const SweepShardStats &clean_stats = sharded.value().stats;
    const SweepShardStats &chaos_stats = survived.value().stats;
    const bool chaos_exercised = chaos_stats.workerCrashes >= 1 &&
                                 chaos_stats.timeouts >= 1 &&
                                 chaos_stats.corruptFrames >= 1;

    ctx.perf("shard_throughput",
             cells / std::max(sharded_seconds, 1e-9), "cells/s");
    ctx.perf("reference_throughput",
             cells / std::max(reference_seconds, 1e-9), "cells/s");
    ctx.perf("chaos_recovery_seconds", chaos_seconds, "s");

    TextTable table("Sharded sweep vs in-process reference");
    table.header({"Run", "Seconds", "Identical", "Crashes",
                  "Retries", "Timeouts", "Corrupt", "Degraded"});
    table.row({"reference", ratio(reference_seconds), "-", "-", "-",
               "-", "-", "-"});
    table.row({"sharded", ratio(sharded_seconds),
               clean_identical ? "yes" : "NO",
               std::to_string(clean_stats.workerCrashes),
               std::to_string(clean_stats.retries),
               std::to_string(clean_stats.timeouts),
               std::to_string(clean_stats.corruptFrames),
               std::to_string(clean_stats.degradedCells)});
    table.row({"chaos", ratio(chaos_seconds),
               chaos_identical ? "yes" : "NO",
               std::to_string(chaos_stats.workerCrashes),
               std::to_string(chaos_stats.retries),
               std::to_string(chaos_stats.timeouts),
               std::to_string(chaos_stats.corruptFrames),
               std::to_string(chaos_stats.degradedCells)});
    table.print(std::cout);
    std::cout << "\nclean:  " << clean_stats.describe()
              << "\nchaos:  " << chaos_stats.describe() << "\n";

    if (!clean_identical)
        fatal("clean sharded merge diverged from the reference");
    if (!chaos_identical)
        fatal("chaos sharded merge diverged from the reference");
    if (!chaos_exercised)
        fatal("seeded chaos did not fire (kill/stall/corrupt)");

    JsonWriter &json = *ctx.json;
    json.field("bench", "sweep_shard");
    json.field("design", design.name);
    json.field("network", network.name());
    json.field("trials",
               static_cast<std::uint64_t>(config.campaign.trials));
    json.field("seed", config.campaign.seed);
    json.field("grid_cells", static_cast<std::uint64_t>(cells));
    json.field("merge_identical",
               clean_identical && chaos_identical);
    json.field("chaos_exercised", chaos_exercised);
    json.field("reference_seconds", reference_seconds);
    statsJson(json, "clean", clean_stats, sharded_seconds);
    statsJson(json, "chaos", chaos_stats, chaos_seconds);
}

} // namespace

RANA_BENCH("sweep_shard",
           "Sharded sweep robustness - byte-identical multi-process "
           "merge under seeded chaos (kill, stall, corruption)",
           runSweepShardBench);
