/**
 * @file
 * Crash-tolerant sharded sweep engine: the campaign sweep grid
 * fanned out over forked worker processes.
 *
 * The coordinator prepares every expensive sweep product up front
 * (PreparedSweep), forks N workers that inherit the plan copy-on-
 * write, and deals grid cells to idle workers one at a time over a
 * framed pipe protocol (util/subprocess) — central-queue work
 * stealing, so a fast worker drains cells a slow sibling would have
 * owned under a static split. Each worker streams back one
 * serialized FaultCampaignReport per cell; the coordinator merges
 * them in cell order, so the assembled report is byte-identical to
 * the single-process runCampaignSweep / runGuardPolicyComparison
 * output for any worker count (wall-clock timing fields excepted —
 * canonicalSweepJson / canonicalComparisonJson exclude them).
 *
 * Robustness: a worker crash (EOF on its stream), a hung cell (no
 * result before the per-cell timeout) and a corrupted result frame
 * (checksum or JSON-parse failure) all requeue the cell with
 * bounded retries under exponential backoff and respawn the worker;
 * a cell that fails every attempt degrades to in-process execution
 * in the coordinator — degraded, never lost, and still
 * byte-identical because every path runs the same PreparedSweep
 * cell. ShardChaosConfig injects those failures deterministically
 * for tests and CI: kill the worker that receives a chosen cell's
 * first attempt, stall a chosen cell's first attempt past the
 * timeout, corrupt a chosen cell's first result frame.
 */

#ifndef RANA_ROBUST_SWEEP_SHARD_HH_
#define RANA_ROBUST_SWEEP_SHARD_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "robust/campaign_sweep.hh"

namespace rana {

/**
 * Deterministic fault injection into the shard machinery itself
 * (not into the simulated eDRAM). Cell-addressed, not random: each
 * fault fires on the first attempt of its cell, whichever worker
 * that attempt lands on, so the same config produces the same
 * failure in every run and recovery is testable byte-for-byte.
 */
struct ShardChaosConfig
{
    /** Cell whose first attempt kills its worker (-1 = off). */
    int killCell = -1;
    /** Cell whose first attempt hangs until killed (-1 = off). */
    int stallCell = -1;
    /** Cell whose first result frame is corrupted (-1 = off). */
    int corruptCell = -1;

    /** Whether any injection is enabled. */
    bool any() const
    {
        return killCell >= 0 || stallCell >= 0 || corruptCell >= 0;
    }
};

/** Configuration of the sharded execution layer. */
struct SweepShardConfig
{
    /** Worker processes (0 = hardware threads, capped by cells). */
    unsigned workers = 0;
    /** Per-cell deadline between heartbeat/result frames. */
    std::uint32_t cellTimeoutMs = 120000;
    /** Retries per cell after its first failed attempt. */
    std::uint32_t maxRetries = 2;
    /** First retry delay; doubles per further attempt. */
    std::uint32_t backoffBaseMs = 25;
    /**
     * Directory for postmortem incident dumps (one JSON file per
     * worker crash/timeout/desync), created on first use. Empty
     * disables postmortem writing.
     */
    std::string postmortemDir;
    /** Deterministic fault injection into the shard machinery. */
    ShardChaosConfig chaos;
};

/** Observability counters of one sharded run. */
struct SweepShardStats
{
    /** Worker processes actually forked at startup. */
    unsigned workers = 0;
    /** Grid cells merged into the report (never less than the grid). */
    std::uint64_t cells = 0;
    /** Cells a worker completed beyond its fair static share. */
    std::uint64_t stolenCells = 0;
    /** Worker deaths observed (crash, kill or chaos). */
    std::uint64_t workerCrashes = 0;
    /** Workers forked again after a death. */
    std::uint64_t respawns = 0;
    /** Cell attempts requeued with backoff. */
    std::uint64_t retries = 0;
    /** Cells whose deadline expired (the worker was killed). */
    std::uint64_t timeouts = 0;
    /** Result frames dropped for checksum or parse failures. */
    std::uint64_t corruptFrames = 0;
    /** Cells that exhausted retries and ran in-process. */
    std::uint64_t degradedCells = 0;
    /** Telemetry frames received from workers. */
    std::uint64_t telemetryFrames = 0;
    /** Postmortem incident dumps written under postmortemDir. */
    std::uint64_t postmortemDumps = 0;
    /** Result/error frames dropped as stale (post-requeue arrivals). */
    std::uint64_t staleResults = 0;
    /** Cells completed per worker ordinal (degraded cells excluded). */
    std::vector<std::uint64_t> cellsPerWorker;

    /** Whether any cell fell back to in-process execution. */
    bool degraded() const { return degradedCells > 0; }

    /** One-line human-readable summary. */
    std::string describe() const;
};

/** Sharded sweep: the merged report plus the shard counters. */
struct ShardedSweepResult
{
    CampaignSweepReport report;
    SweepShardStats stats;
};

/** Sharded comparison: the merged report plus the shard counters. */
struct ShardedComparisonResult
{
    GuardPolicyComparisonReport report;
    SweepShardStats stats;
};

/**
 * Run the campaign sweep of `config` sharded over forked workers.
 * The merged report is byte-identical to runCampaignSweep for any
 * worker count and any injected chaos (timing fields excepted).
 * Validation failures mirror runCampaignSweep; worker failures
 * never fail the run — they degrade it (stats.degraded()).
 */
Result<ShardedSweepResult>
runShardedCampaignSweep(const DesignPoint &design,
                        const NetworkModel &network,
                        const CampaignSweepConfig &config,
                        const SweepShardConfig &shard);

/**
 * Run the guard-policy comparison of `config` sharded over forked
 * workers, with the same merge and degradation contract as
 * runShardedCampaignSweep.
 */
Result<ShardedComparisonResult>
runShardedGuardPolicyComparison(const DesignPoint &design,
                                const NetworkModel &network,
                                const CampaignSweepConfig &config,
                                const SweepShardConfig &shard);

/**
 * Serialize one per-cell report to the JSON payload of a CellResult
 * frame. Lossless: doubles render in shortest round-trip form and
 * u64 counters as exact integers.
 */
std::string serializeCellReport(const FaultCampaignReport &report);

/**
 * Parse a CellResult payload back into the report. Any malformed
 * or truncated payload fails with ErrorCode::ParseError (the
 * coordinator retries the cell); a valid payload reconstructs the
 * report bit-identically.
 */
Result<FaultCampaignReport> parseCellReport(const std::string &text);

/**
 * Canonical JSON of a sweep report for equality comparisons:
 * everything except the wall-clock throughput fields (trialSeconds,
 * trialsPerSecond), which differ run to run by construction.
 */
std::string canonicalSweepJson(const CampaignSweepReport &report);

/** Canonical JSON of a comparison report (same exclusions). */
std::string
canonicalComparisonJson(const GuardPolicyComparisonReport &report);

} // namespace rana

#endif // RANA_ROBUST_SWEEP_SHARD_HH_
