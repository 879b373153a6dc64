/**
 * @file
 * Implementation of the crash-tolerant sharded sweep engine.
 */

#include "robust/sweep_shard.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <type_traits>

#include <poll.h>
#include <sys/stat.h>
#include <sys/wait.h>

#include "obs/chrome_trace.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics_registry.hh"
#include "obs/telemetry.hh"
#include "util/json_reader.hh"
#include "util/json_writer.hh"
#include "util/logging.hh"
#include "util/subprocess.hh"
#include "util/thread_pool.hh"

namespace rana {

namespace {

/** Trace track ids: the coordinator plus one track per worker. */
constexpr int kCoordinatorTrack = 1000;

/** Worker ordinal -> its Chrome-trace thread track. */
int
workerTrack(unsigned ordinal)
{
    return kCoordinatorTrack + 1 + static_cast<int>(ordinal);
}

/**
 * Worker ordinal -> the process ids its exported trace events merge
 * under. Each worker owns a (host, simulated) pid pair well clear of
 * the coordinator's kHostPid/kSimPid, so the merged trace shows one
 * named process group per worker.
 */
int
workerHostPid(unsigned ordinal)
{
    return 100 + 2 * static_cast<int>(ordinal);
}

int
workerSimPid(unsigned ordinal)
{
    return workerHostPid(ordinal) + 1;
}

/** Milliseconds since an arbitrary steady epoch. */
std::int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// --------------------------------------------------------------------
// Cell-report JSON (the CellResult frame payload and the canonical
// comparison form).
// --------------------------------------------------------------------

void
writeTrial(JsonWriter &json, const TrialResult &trial)
{
    json.beginObject();
    json.field("seed", trial.seed);
    json.field("weightFailureRate", trial.weightFailureRate);
    json.field("activationFailureRate", trial.activationFailureRate);
    json.field("exposedBanks", trial.exposedBanks);
    json.field("exposedWords", trial.exposedWords);
    json.field("accuracy", trial.accuracy);
    json.field("relativeAccuracy", trial.relativeAccuracy);
    json.endObject();
}

void
writeExposure(JsonWriter &json, const LayerExposure &exposure)
{
    json.beginObject();
    json.field("layerName", exposure.layerName);
    json.beginArray("exposureSeconds");
    for (double v : exposure.exposureSeconds)
        json.element(v);
    json.endArray();
    json.beginArray("observedLifetimeSeconds");
    for (double v : exposure.observedLifetimeSeconds)
        json.element(v);
    json.endArray();
    json.beginArray("banks");
    for (std::uint32_t v : exposure.banks)
        json.element(static_cast<std::uint64_t>(v));
    json.endArray();
    json.beginArray("words");
    for (std::uint64_t v : exposure.words)
        json.element(v);
    json.endArray();
    json.beginArray("bankStart");
    for (std::uint32_t v : exposure.bankStart)
        json.element(static_cast<std::uint64_t>(v));
    json.endArray();
    json.endObject();
}

void
writeGuardStats(JsonWriter &json, const ReliabilityGuard::Stats &stats)
{
    json.beginObject("guardStats");
    json.field("trips", stats.trips);
    json.field("banksReenabled", stats.banksReenabled);
    json.field("fallbackRefreshOps", stats.fallbackRefreshOps);
    json.beginArray("tripsByType");
    for (std::uint64_t v : stats.tripsByType)
        json.element(v);
    json.endArray();
    json.field("worstObservedLifetimeSeconds",
               stats.worstObservedLifetimeSeconds);
    json.field("redisarms", stats.redisarms);
    json.field("escalations", stats.escalations);
    json.field("cleanIntervals", stats.cleanIntervals);
    json.field("armedRefreshOps", stats.armedRefreshOps);
    json.endObject();
}

/**
 * The shared body of the frame payload and the canonical form;
 * `timing` includes the wall-clock throughput fields (frame payloads
 * carry them so a merged report is complete; the canonical form
 * drops them because they differ run to run by construction).
 */
void
writeCellReportFields(JsonWriter &json,
                      const FaultCampaignReport &report, bool timing)
{
    json.field("designName", report.designName);
    json.field("networkName", report.networkName);
    json.field("modelName", report.modelName);
    json.field("baselineAccuracy", report.baselineAccuracy);
    json.field("operatingFailureRate", report.operatingFailureRate);
    json.beginArray("trials");
    for (const TrialResult &trial : report.trials)
        writeTrial(json, trial);
    json.endArray();
    json.beginArray("exposures");
    for (const LayerExposure &exposure : report.exposures)
        writeExposure(json, exposure);
    json.endArray();
    json.field("meanAccuracy", report.meanAccuracy);
    json.field("worstAccuracy", report.worstAccuracy);
    json.field("meanRelativeAccuracy", report.meanRelativeAccuracy);
    json.field("worstRelativeAccuracy", report.worstRelativeAccuracy);
    json.field("p5Accuracy", report.p5Accuracy);
    json.field("p50Accuracy", report.p50Accuracy);
    json.field("p95Accuracy", report.p95Accuracy);
    json.field("p5RelativeAccuracy", report.p5RelativeAccuracy);
    json.field("p50RelativeAccuracy", report.p50RelativeAccuracy);
    json.field("p95RelativeAccuracy", report.p95RelativeAccuracy);
    json.field("meanWeightFailureRate", report.meanWeightFailureRate);
    json.field("meanActivationFailureRate",
               report.meanActivationFailureRate);
    json.field("executionSeconds", report.executionSeconds);
    json.field("retentionViolations", report.retentionViolations);
    json.field("refreshOps", report.refreshOps);
    if (timing) {
        json.field("trialSeconds", report.trialSeconds);
        json.field("trialsPerSecond", report.trialsPerSecond);
    }
    json.field("guarded", report.guarded);
    json.field("guardPolicyName", report.guardPolicyName);
    writeGuardStats(json, report.guardStats);
}

// --------------------------------------------------------------------
// Cell-report parsing. Every helper returns an error instead of
// asserting: the payload may be chaos-corrupted or truncated.
// --------------------------------------------------------------------

constexpr JsonFieldReader kFields("cell report");

template <typename T, std::size_t N>
std::optional<Error>
getArray(const JsonValue &object, const char *key,
         std::array<T, N> *out)
{
    const JsonValue *value = object.find(key);
    if (value == nullptr || !value->isArray() ||
        value->items().size() != N)
        return kFields.missing(key);
    for (std::size_t i = 0; i < N; ++i) {
        const JsonValue &item = value->items()[i];
        if constexpr (std::is_floating_point_v<T>) {
            double number = 0.0;
            if (!item.numberOrSentinel(&number))
                return kFields.missing(key);
            (*out)[i] = number;
        } else {
            std::uint64_t number = 0;
            if (!item.asUint(&number))
                return kFields.missing(key);
            (*out)[i] = static_cast<T>(number);
        }
    }
    return std::nullopt;
}

std::optional<Error>
parseTrial(const JsonValue &object, TrialResult *out)
{
    if (!object.isObject())
        return kFields.missing("trials[]");
    if (auto bad = kFields.getU64(object, "seed", &out->seed))
        return bad;
    if (auto bad = kFields.getDouble(object, "weightFailureRate",
                                     &out->weightFailureRate))
        return bad;
    if (auto bad = kFields.getDouble(object, "activationFailureRate",
                                     &out->activationFailureRate))
        return bad;
    if (auto bad = kFields.getU64(object, "exposedBanks", &out->exposedBanks))
        return bad;
    if (auto bad = kFields.getU64(object, "exposedWords", &out->exposedWords))
        return bad;
    if (auto bad = kFields.getDouble(object, "accuracy", &out->accuracy))
        return bad;
    if (auto bad = kFields.getDouble(object, "relativeAccuracy",
                                     &out->relativeAccuracy))
        return bad;
    return std::nullopt;
}

std::optional<Error>
parseExposure(const JsonValue &object, LayerExposure *out)
{
    if (!object.isObject())
        return kFields.missing("exposures[]");
    if (auto bad = kFields.getString(object, "layerName", &out->layerName))
        return bad;
    if (auto bad =
            getArray(object, "exposureSeconds", &out->exposureSeconds))
        return bad;
    if (auto bad = getArray(object, "observedLifetimeSeconds",
                            &out->observedLifetimeSeconds))
        return bad;
    if (auto bad = getArray(object, "banks", &out->banks))
        return bad;
    if (auto bad = getArray(object, "words", &out->words))
        return bad;
    if (auto bad = getArray(object, "bankStart", &out->bankStart))
        return bad;
    return std::nullopt;
}

std::optional<Error>
parseGuardStats(const JsonValue &parent, ReliabilityGuard::Stats *out)
{
    const JsonValue *object = parent.find("guardStats");
    if (object == nullptr || !object->isObject())
        return kFields.missing("guardStats");
    if (auto bad = kFields.getU64(*object, "trips", &out->trips))
        return bad;
    if (auto bad =
            kFields.getU64(*object, "banksReenabled", &out->banksReenabled))
        return bad;
    if (auto bad = kFields.getU64(*object, "fallbackRefreshOps",
                                  &out->fallbackRefreshOps))
        return bad;
    if (auto bad = getArray(*object, "tripsByType", &out->tripsByType))
        return bad;
    if (auto bad = kFields.getDouble(*object, "worstObservedLifetimeSeconds",
                                     &out->worstObservedLifetimeSeconds))
        return bad;
    if (auto bad = kFields.getU64(*object, "redisarms", &out->redisarms))
        return bad;
    if (auto bad = kFields.getU64(*object, "escalations", &out->escalations))
        return bad;
    if (auto bad =
            kFields.getU64(*object, "cleanIntervals", &out->cleanIntervals))
        return bad;
    if (auto bad =
            kFields.getU64(*object, "armedRefreshOps", &out->armedRefreshOps))
        return bad;
    return std::nullopt;
}

// --------------------------------------------------------------------
// The worker body (runs in the forked child).
// --------------------------------------------------------------------

/** The child never returns to main; exit codes are diagnostics. */
constexpr int kWorkerExitOk = 0;
constexpr int kWorkerExitPipe = 10;
constexpr int kWorkerExitChaosKill = 11;

/**
 * Flip payload bytes of an encoded frame *after* its checksum was
 * computed, so the coordinator's checksum verification is the path
 * that catches the corruption.
 */
void
corruptEncodedFrame(std::string &bytes)
{
    const std::size_t header = frameHeaderSize();
    const std::size_t limit =
        std::min(bytes.size(), header + std::size_t{8});
    for (std::size_t i = header; i < limit; ++i)
        bytes[i] = static_cast<char>(bytes[i] ^ 0x5A);
}

int
workerBody(const PreparedSweep &plan, const ShardChaosConfig &chaos,
           unsigned ordinal, int requestFd, int responseFd)
{
    // The forked child inherits the parent's registry contents,
    // trace buffer and flight ring copy-on-write. Reset/baseline
    // them so every telemetry export carries only this incarnation's
    // own activity, never a copy of the coordinator's.
    MetricsRegistry &registry = MetricsRegistry::global();
    TraceRecorder &recorder = TraceRecorder::global();
    FlightRecorder &flight = FlightRecorder::global();
    registry.reset();
    flight.reset();
    std::size_t traceBase = recorder.eventCount();
    std::uint64_t telemetrySeq = 0;

    MetricsRegistry::Counter &cellsDone =
        registry.counter("worker_cells_completed_total");
    MetricsRegistry::Counter &cleanExits =
        registry.counter("worker_clean_exits_total");

    // One telemetry frame: cumulative metrics, the full flight ring
    // (so the last frame before an abrupt death still carries it)
    // and the trace events recorded since the previous export.
    const auto sendTelemetry = [&](bool finalFrame) {
        WorkerTelemetry telemetry;
        telemetry.worker = ordinal;
        telemetry.seq = telemetrySeq;
        telemetry.finalFrame = finalFrame;
        telemetry.metrics = registry.snapshot();
        telemetry.flight = flight.snapshot();
        telemetry.trace = recorder.eventsFrom(traceBase);
        Frame frame;
        frame.type = FrameType::Telemetry;
        frame.cell = ordinal;
        frame.attempt = static_cast<std::uint32_t>(telemetrySeq);
        frame.payload = serializeWorkerTelemetry(telemetry);
        if (!writeFrameBlocking(responseFd, frame))
            return false;
        traceBase += telemetry.trace.size();
        ++telemetrySeq;
        return true;
    };

    Frame hello;
    hello.type = FrameType::Hello;
    hello.cell = ordinal;
    if (!writeFrameBlocking(responseFd, hello))
        return kWorkerExitPipe;
    flight.record("hello", ordinal);
    if (!sendTelemetry(false))
        return kWorkerExitPipe;

    Frame request;
    while (readFrameBlocking(requestFd, request, nullptr)) {
        if (request.type == FrameType::Shutdown) {
            // The clean-exit counter crosses the pipe only inside
            // the final frame: its presence in the merged snapshot
            // is the direct proof the coordinator drained the frame
            // before reaping.
            flight.record("shutdown", ordinal);
            cleanExits.add();
            sendTelemetry(true);
            return kWorkerExitOk;
        }
        if (request.type != FrameType::Assign)
            continue;
        flight.record("assign", request.cell, request.attempt);

        Frame heartbeat;
        heartbeat.type = FrameType::Heartbeat;
        heartbeat.cell = request.cell;
        heartbeat.attempt = request.attempt;
        if (!writeFrameBlocking(responseFd, heartbeat))
            return kWorkerExitPipe;

        // Chaos: die abruptly on the designated cell's first attempt
        // — after the heartbeat, so the coordinator sees a started
        // cell vanish. Retries carry attempt >= 1 and proceed.
        if (chaos.killCell >= 0 &&
            request.cell ==
                static_cast<std::uint32_t>(chaos.killCell) &&
            request.attempt == 0) {
            flight.record("chaos-kill", request.cell,
                          request.attempt);
            return kWorkerExitChaosKill;
        }

        // Chaos: hang the designated cell's first attempt until the
        // coordinator's deadline kills this worker. Retries carry
        // attempt >= 1 and proceed normally.
        if (chaos.stallCell >= 0 &&
            request.cell ==
                static_cast<std::uint32_t>(chaos.stallCell) &&
            request.attempt == 0) {
            flight.record("chaos-stall", request.cell,
                          request.attempt);
            for (;;)
                ::poll(nullptr, 0, 1000);
        }

        // jobs_override=1: the forked child must never touch the
        // inherited thread pool (its worker threads do not exist
        // after fork); the serial path is bit-identical anyway.
        // runCell never simulates: the exposures (and with them the
        // simulateLayersChecked layer fan-out) were computed by
        // prepareSweep before the fork.
        flight.record("run", request.cell, request.attempt);
        Result<FaultCampaignReport> cell =
            plan.runCell(request.cell, /*jobs_override=*/1);

        Frame reply;
        reply.cell = request.cell;
        reply.attempt = request.attempt;
        if (cell.ok()) {
            reply.type = FrameType::CellResult;
            reply.payload = serializeCellReport(cell.value());
            cellsDone.add();
            flight.record("result", request.cell, request.attempt);
        } else {
            reply.type = FrameType::CellError;
            reply.payload = cell.error().describe();
            flight.record("error", request.cell, request.attempt);
        }
        std::string bytes = encodeFrame(reply);
        if (chaos.corruptCell >= 0 &&
            request.cell ==
                static_cast<std::uint32_t>(chaos.corruptCell) &&
            request.attempt == 0) {
            flight.record("chaos-corrupt", request.cell,
                          request.attempt);
            corruptEncodedFrame(bytes);
        }
        if (!writeAllBlocking(responseFd, bytes))
            return kWorkerExitPipe;
        if (!sendTelemetry(false))
            return kWorkerExitPipe;
    }
    // EOF on the request pipe: the coordinator is gone.
    return kWorkerExitOk;
}

// --------------------------------------------------------------------
// The coordinator.
// --------------------------------------------------------------------

/** One pending (cell, attempt) with its backoff eligibility time. */
struct PendingCell
{
    std::uint32_t cell = 0;
    std::uint32_t attempt = 0;
    std::int64_t eligibleAtMs = 0;
};

/** Coordinator-side state of one worker slot. */
struct WorkerSlot
{
    WorkerProcess process;
    FrameDecoder decoder;
    unsigned ordinal = 0;
    bool alive = false;
    bool idle = true;
    std::uint32_t cell = 0;
    std::uint32_t attempt = 0;
    std::int64_t deadlineMs = 0;
    std::int64_t assignedAtMs = 0;
    /** Last telemetry export from this incarnation (if any). */
    WorkerTelemetry lastTelemetry;
    bool haveTelemetry = false;
    /** Telemetry frames received from this incarnation. */
    std::uint64_t telemetryFrames = 0;
};

/** The whole sharded execution of one prepared plan. */
class ShardCoordinator
{
  public:
    ShardCoordinator(const PreparedSweep &plan,
                     const SweepShardConfig &config)
        : plan_(plan), config_(config),
          registry_(MetricsRegistry::global()),
          recorder_(TraceRecorder::global()),
          flight_(FlightRecorder::global())
    {
    }

    Result<std::vector<FaultCampaignReport>>
    run(SweepShardStats *stats)
    {
        const std::size_t cells = plan_.cellCount();
        unsigned workers =
            config_.workers > 0 ? config_.workers : hardwareJobs();
        workers = static_cast<unsigned>(std::min<std::size_t>(
            std::max(1u, workers), cells));

        results_.resize(cells);
        stored_.assign(cells, false);
        remaining_ = cells;
        stats_ = SweepShardStats{};
        stats_.workers = workers;
        stats_.cellsPerWorker.assign(workers, 0);
        fairShare_ = (cells + workers - 1) / workers;
        for (std::size_t cell = 0; cell < cells; ++cell) {
            pending_.push_back(
                {static_cast<std::uint32_t>(cell), 0, nowMs()});
        }

        recorder_.setThreadName(TraceRecorder::kHostPid,
                                kCoordinatorTrack,
                                "shard coordinator");
        workerNamed_.assign(workers, false);
        slots_.resize(workers);
        for (unsigned w = 0; w < workers; ++w) {
            slots_[w].ordinal = w;
            recorder_.setThreadName(
                TraceRecorder::kHostPid, workerTrack(w),
                detail::concat("shard worker ", w));
            spawnSlot(slots_[w]);
        }

        while (remaining_ > 0) {
            respawnDead();
            if (aliveCount() == 0) {
                // No worker could be (re)started: drain everything
                // still pending in-process so no cell is ever lost.
                drainPendingInProcess();
                continue;
            }
            assignIdle();
            waitAndDrain();
            expireDeadlines();
        }
        shutdownWorkers();
        finalizeWorkerMerge();

        stats_.cells = cells;
        exportMetrics();
        *stats = stats_;

        std::vector<FaultCampaignReport> merged;
        merged.reserve(cells);
        for (std::size_t cell = 0; cell < cells; ++cell) {
            RANA_ASSERT(stored_[cell],
                        "sharded sweep lost cell ", cell);
            merged.push_back(std::move(results_[cell]));
        }
        return merged;
    }

  private:
    unsigned aliveCount() const
    {
        unsigned count = 0;
        for (const WorkerSlot &slot : slots_)
            count += slot.alive ? 1 : 0;
        return count;
    }

    void spawnSlot(WorkerSlot &slot)
    {
        const PreparedSweep &plan = plan_;
        const ShardChaosConfig chaos = config_.chaos;
        const unsigned ordinal = slot.ordinal;
        Result<WorkerProcess> spawned = WorkerProcess::spawn(
            [&plan, chaos, ordinal](int requestFd, int responseFd) {
                return workerBody(plan, chaos, ordinal, requestFd,
                                  responseFd);
            });
        if (!spawned.ok()) {
            warn("shard worker ", ordinal,
                 " failed to spawn: ", spawned.error().describe());
            slot.alive = false;
            return;
        }
        slot.process = std::move(spawned).value();
        slot.decoder = FrameDecoder();
        slot.alive = true;
        slot.idle = true;
        slot.lastTelemetry = WorkerTelemetry{};
        slot.haveTelemetry = false;
        slot.telemetryFrames = 0;
    }

    void respawnDead()
    {
        // A dead slot is refilled only while there is queued work it
        // could pick up; tail cells still running elsewhere do not
        // justify a fork.
        for (WorkerSlot &slot : slots_) {
            if (slot.alive || pending_.empty())
                continue;
            spawnSlot(slot);
            if (slot.alive) {
                ++stats_.respawns;
                markInstant(workerTrack(slot.ordinal), "respawn");
            }
        }
    }

    /** The eligible pending entry with the lowest cell index. */
    std::optional<std::size_t> nextEligible(std::int64_t now) const
    {
        std::optional<std::size_t> best;
        for (std::size_t i = 0; i < pending_.size(); ++i) {
            if (pending_[i].eligibleAtMs > now)
                continue;
            if (!best || pending_[i].cell < pending_[*best].cell)
                best = i;
        }
        return best;
    }

    void assignIdle()
    {
        const std::int64_t now = nowMs();
        for (WorkerSlot &slot : slots_) {
            if (!slot.alive || !slot.idle)
                continue;
            std::optional<std::size_t> next = nextEligible(now);
            if (!next)
                break;
            const PendingCell entry = pending_[*next];
            pending_.erase(pending_.begin() +
                           static_cast<std::ptrdiff_t>(*next));
            Frame assign;
            assign.type = FrameType::Assign;
            assign.cell = entry.cell;
            assign.attempt = entry.attempt;
            if (!slot.process.writeFrame(assign)) {
                // The worker died between polls; requeue and let the
                // crash path below reap it.
                pending_.push_back(entry);
                declareCrashed(slot, "write-failure");
                continue;
            }
            flight_.record("assign", entry.cell, entry.attempt);
            slot.idle = false;
            slot.cell = entry.cell;
            slot.attempt = entry.attempt;
            slot.assignedAtMs = now;
            slot.deadlineMs =
                now + static_cast<std::int64_t>(config_.cellTimeoutMs);
        }
    }

    void waitAndDrain()
    {
        const std::int64_t now = nowMs();
        std::int64_t timeout = 100;
        for (const WorkerSlot &slot : slots_) {
            if (slot.alive && !slot.idle)
                timeout = std::min(timeout, slot.deadlineMs - now);
        }
        for (const PendingCell &entry : pending_)
            timeout = std::min(timeout, entry.eligibleAtMs - now);
        timeout = std::max<std::int64_t>(1, timeout);

        std::vector<int> fds;
        fds.reserve(slots_.size());
        for (const WorkerSlot &slot : slots_)
            fds.push_back(slot.alive ? slot.process.readFd() : -1);
        std::vector<bool> readable;
        pollReadable(fds, static_cast<int>(timeout), readable);

        for (std::size_t i = 0; i < slots_.size(); ++i) {
            WorkerSlot &slot = slots_[i];
            if (!slot.alive || !readable[i])
                continue;
            const bool open =
                drainInto(slot.process.readFd(), slot.decoder);
            // Frames already buffered are handled even when the
            // stream just hit EOF: a result that raced the crash
            // still counts.
            while (std::optional<FrameDecoder::Decoded> decoded =
                       slot.decoder.next()) {
                handleFrame(slot, *decoded);
                if (!slot.alive)
                    break;
            }
            if (slot.alive &&
                (!open || slot.decoder.desynchronized())) {
                declareCrashed(slot, slot.decoder.desynchronized()
                                         ? "desync"
                                         : "crash");
            }
        }
    }

    void handleFrame(WorkerSlot &slot,
                     const FrameDecoder::Decoded &decoded)
    {
        const Frame &frame = decoded.frame;
        switch (frame.type) {
          case FrameType::Hello:
            return;
          case FrameType::Heartbeat:
            // The worker started the cell; restart the deadline so
            // slow assignment delivery is not charged to compute.
            if (!slot.idle && frame.cell == slot.cell &&
                frame.attempt == slot.attempt) {
                slot.deadlineMs =
                    nowMs() +
                    static_cast<std::int64_t>(config_.cellTimeoutMs);
            }
            return;
          case FrameType::CellResult: {
            if (slot.idle || frame.cell != slot.cell ||
                frame.attempt != slot.attempt) {
                // Stale frame from a superseded attempt. Counted so
                // the cross-process accounting invariant closes:
                // worker-reported completions = stored + corrupt +
                // stale - degraded.
                ++stats_.staleResults;
                registry_.counter("shard_stale_results_total").add();
                return;
            }
            if (!decoded.checksumOk) {
                ++stats_.corruptFrames;
                registry_.counter("shard_corrupt_frames_total").add();
                markInstant(workerTrack(slot.ordinal),
                            "corrupt frame");
                slot.idle = true;
                requeueFailure(slot.cell, slot.attempt);
                return;
            }
            Result<FaultCampaignReport> report =
                parseCellReport(frame.payload);
            if (!report.ok()) {
                ++stats_.corruptFrames;
                registry_.counter("shard_corrupt_frames_total").add();
                markInstant(workerTrack(slot.ordinal),
                            "unparsable frame");
                slot.idle = true;
                requeueFailure(slot.cell, slot.attempt);
                return;
            }
            storeResult(slot.cell, std::move(report).value());
            ++stats_.cellsPerWorker[slot.ordinal];
            if (stats_.cellsPerWorker[slot.ordinal] > fairShare_) {
                ++stats_.stolenCells;
                registry_.counter("shard_stolen_cells_total").add();
            }
            const std::int64_t now = nowMs();
            recorder_.completeEvent(
                TraceRecorder::kHostPid, workerTrack(slot.ordinal),
                recorder_.nowMicros() -
                    1000.0 *
                        static_cast<double>(now - slot.assignedAtMs),
                1000.0 * static_cast<double>(now - slot.assignedAtMs),
                "shard", detail::concat("cell ", slot.cell));
            slot.idle = true;
            return;
          }
          case FrameType::CellError: {
            if (slot.idle || frame.cell != slot.cell ||
                frame.attempt != slot.attempt)
                return;
            warn("shard worker ", slot.ordinal, " failed cell ",
                 frame.cell, ": ", frame.payload);
            slot.idle = true;
            requeueFailure(slot.cell, slot.attempt);
            return;
          }
          case FrameType::Telemetry:
            acceptTelemetry(slot, decoded);
            return;
          case FrameType::Assign:
          case FrameType::Shutdown:
            return; // coordinator-to-worker kinds; ignore echoes
        }
    }

    /** Merge one worker telemetry export into the coordinator. */
    void acceptTelemetry(WorkerSlot &slot,
                         const FrameDecoder::Decoded &decoded)
    {
        if (!decoded.checksumOk) {
            warn("shard worker ", slot.ordinal,
                 " sent a corrupt telemetry frame; dropped");
            return;
        }
        Result<WorkerTelemetry> parsed =
            parseWorkerTelemetry(decoded.frame.payload);
        if (!parsed.ok()) {
            warn("shard worker ", slot.ordinal,
                 " sent unparsable telemetry: ",
                 parsed.error().describe());
            return;
        }
        WorkerTelemetry telemetry = std::move(parsed).value();
        ++slot.telemetryFrames;
        ++stats_.telemetryFrames;
        registry_.counter("telemetry_frames_total").add();
        flight_.record("telemetry", slot.ordinal,
                       static_cast<std::uint32_t>(telemetry.seq));
        if (recorder_.enabled()) {
            ensureWorkerTracks(slot.ordinal);
            importWorkerTrace(slot.ordinal, telemetry.trace);
            recorder_.counterEvent(
                workerHostPid(slot.ordinal),
                "worker cells completed", recorder_.nowMicros(),
                "cells",
                static_cast<double>(counterValue(
                    telemetry.metrics,
                    "worker_cells_completed_total")));
        }
        slot.lastTelemetry = std::move(telemetry);
        slot.haveTelemetry = true;
    }

    /** Name a worker's merged-trace process group once per run. */
    void ensureWorkerTracks(unsigned ordinal)
    {
        if (workerNamed_[ordinal])
            return;
        workerNamed_[ordinal] = true;
        recorder_.setProcessName(
            workerHostPid(ordinal),
            detail::concat("rana worker ", ordinal));
        recorder_.setProcessName(
            workerSimPid(ordinal),
            detail::concat("rana worker ", ordinal, " sim"));
        recorder_.setThreadName(workerHostPid(ordinal), 0, "main");
    }

    /**
     * Import a worker's exported trace events under its own process
     * ids: host-side events merge under workerHostPid, simulated-
     * timeline events under workerSimPid.
     */
    void
    importWorkerTrace(unsigned ordinal,
                      const std::vector<TraceRecorder::Event> &events)
    {
        std::vector<TraceRecorder::Event> remapped = events;
        for (TraceRecorder::Event &event : remapped) {
            event.pid = event.pid == TraceRecorder::kSimPid
                            ? workerSimPid(ordinal)
                            : workerHostPid(ordinal);
        }
        recorder_.importEvents(remapped);
    }

    void expireDeadlines()
    {
        const std::int64_t now = nowMs();
        for (WorkerSlot &slot : slots_) {
            if (!slot.alive || slot.idle || slot.deadlineMs > now)
                continue;
            ++stats_.timeouts;
            registry_.counter("shard_timeouts_total").add();
            markInstant(workerTrack(slot.ordinal),
                        detail::concat("timeout cell ", slot.cell));
            warn("shard worker ", slot.ordinal, " timed out on cell ",
                 slot.cell, " after ", config_.cellTimeoutMs, " ms");
            declareCrashed(slot, "timeout");
        }
    }

    /** A worker died (EOF, desync, write failure or timeout kill). */
    void declareCrashed(WorkerSlot &slot, const char *reason)
    {
        ++stats_.workerCrashes;
        registry_.counter("shard_worker_crashes_total").add();
        markInstant(workerTrack(slot.ordinal), "crash");
        flight_.record(reason, slot.cell, slot.attempt);
        slot.process.kill();
        int status = 0;
        slot.process.reap(&status, /*block=*/true);
        slot.process.closePipes();
        slot.alive = false;
        writePostmortem(slot, reason, status);
        foldWorkerTelemetry(slot);
        if (!slot.idle) {
            slot.idle = true;
            requeueFailure(slot.cell, slot.attempt);
        }
    }

    /** One postmortem incident dump under config_.postmortemDir. */
    void writePostmortem(const WorkerSlot &slot, const char *reason,
                         int status)
    {
        ++incidents_;
        if (config_.postmortemDir.empty())
            return;
        ::mkdir(config_.postmortemDir.c_str(), 0777);
        PostmortemReport report;
        report.worker = slot.ordinal;
        report.incident = incidents_;
        report.reason = reason;
        report.exited = WIFEXITED(status);
        report.exitCode =
            report.exited ? WEXITSTATUS(status) : 0;
        report.signaled = WIFSIGNALED(status);
        report.termSignal =
            report.signaled ? WTERMSIG(status) : 0;
        report.busy = !slot.idle;
        report.lastCell = slot.cell;
        report.lastAttempt = slot.attempt;
        report.telemetryFrames = slot.telemetryFrames;
        if (slot.haveTelemetry) {
            report.lastMetrics = slot.lastTelemetry.metrics;
            report.flight = slot.lastTelemetry.flight;
        }
        const std::string path = detail::concat(
            config_.postmortemDir, "/postmortem-worker",
            slot.ordinal, "-", incidents_, ".json");
        std::ofstream out(path);
        if (!out) {
            warn("cannot write postmortem dump ", path);
            return;
        }
        out << serializePostmortem(report) << "\n";
        if (!out) {
            warn("failed writing postmortem dump ", path);
            return;
        }
        ++stats_.postmortemDumps;
        registry_.counter("postmortem_dumps_total").add();
        markInstant(workerTrack(slot.ordinal), "postmortem");
    }

    /**
     * Retire a dead (or cleanly shut down) incarnation's last
     * telemetry snapshot into the cross-worker accumulation.
     */
    void foldWorkerTelemetry(WorkerSlot &slot)
    {
        if (!slot.haveTelemetry)
            return;
        workerSnapshots_.push_back(
            std::move(slot.lastTelemetry.metrics));
        slot.lastTelemetry = WorkerTelemetry{};
        slot.haveTelemetry = false;
    }

    /**
     * Publish the merged per-worker instruments into the registry
     * under a "_worker_sum" suffix: counters add across workers,
     * gauges keep the maximum, histograms add bucket-wise.
     */
    void finalizeWorkerMerge()
    {
        const MetricsSnapshot merged =
            mergeSnapshots(workerSnapshots_);
        for (const auto &counter : merged.counters) {
            registry_.counter(counter.name + "_worker_sum")
                .add(counter.value);
        }
        for (const auto &gauge : merged.gauges) {
            registry_.gauge(gauge.name + "_worker_sum")
                .setMax(gauge.value);
        }
        for (const auto &histogram : merged.histograms) {
            if (histogram.bounds.empty())
                continue;
            MetricsRegistry::Histogram &target =
                registry_.histogram(histogram.name + "_worker_sum",
                                    histogram.bounds);
            if (target.bounds() == histogram.bounds)
                target.accumulate(histogram.counts, histogram.sum);
        }
    }

    /**
     * A cell attempt failed: requeue with exponential backoff, or —
     * once its retry budget is spent — run it in-process right here.
     * Either way the cell is never lost.
     */
    void requeueFailure(std::uint32_t cell, std::uint32_t attempt)
    {
        if (attempt >= config_.maxRetries) {
            ++stats_.degradedCells;
            registry_.counter("shard_degraded_cells_total").add();
            markInstant(kCoordinatorTrack,
                        detail::concat("degraded cell ", cell));
            warn("shard cell ", cell, " exhausted ",
                 config_.maxRetries,
                 " retries; degrading to in-process execution");
            runInProcess(cell);
            return;
        }
        ++stats_.retries;
        registry_.counter("shard_retries_total").add();
        flight_.record("requeue", cell, attempt + 1);
        PendingCell entry;
        entry.cell = cell;
        entry.attempt = attempt + 1;
        entry.eligibleAtMs =
            nowMs() + (static_cast<std::int64_t>(config_.backoffBaseMs)
                       << attempt);
        pending_.push_back(entry);
    }

    /** In-process (coordinator) execution of one cell. */
    void runInProcess(std::uint32_t cell)
    {
        Result<FaultCampaignReport> report = plan_.runCell(cell);
        if (!report.ok()) {
            // The cell is deterministic, so an in-process failure is
            // a configuration-level error every attempt shared;
            // surfacing it via panic would lose the merged grid.
            panic("sharded sweep cell ", cell,
                  " failed in-process: ", report.error().describe());
        }
        storeResult(cell, std::move(report).value());
    }

    void storeResult(std::uint32_t cell, FaultCampaignReport report)
    {
        RANA_ASSERT(!stored_[cell],
                    "sharded sweep stored cell twice: ", cell);
        results_[cell] = std::move(report);
        stored_[cell] = true;
        --remaining_;
        registry_.counter("shard_cells_completed_total").add();
        flight_.record("store", cell);
    }

    /** No workers left and none spawnable: finish alone. */
    void drainPendingInProcess()
    {
        warn("sharded sweep has no live workers; running ",
             pending_.size() + remainingAssigned(),
             " remaining cells in-process");
        while (!pending_.empty()) {
            const PendingCell entry = pending_.back();
            pending_.pop_back();
            ++stats_.degradedCells;
            registry_.counter("shard_degraded_cells_total").add();
            runInProcess(entry.cell);
        }
    }

    std::size_t remainingAssigned() const
    {
        std::size_t count = 0;
        for (const WorkerSlot &slot : slots_)
            count += (slot.alive && !slot.idle) ? 1 : 0;
        return count;
    }

    void shutdownWorkers()
    {
        // Broadcast Shutdown first so every worker serializes its
        // final telemetry concurrently rather than one at a time.
        Frame shutdown;
        shutdown.type = FrameType::Shutdown;
        for (WorkerSlot &slot : slots_) {
            if (!slot.alive)
                continue;
            if (!slot.process.writeFrame(shutdown))
                declareCrashed(slot, "write-failure");
        }
        // Then drain each response stream to EOF before reaping:
        // the final telemetry frame (carrying the worker's clean-
        // exit counter and flight ring) is still in the pipe, and
        // closing first would discard it. A worker that neither
        // exits nor keeps the pipe open past the deadline is killed.
        const std::int64_t deadlineMs = nowMs() + 10000;
        for (WorkerSlot &slot : slots_) {
            if (!slot.alive)
                continue;
            bool open = true;
            while (open && nowMs() < deadlineMs) {
                std::vector<int> fds{slot.process.readFd()};
                std::vector<bool> readable;
                pollReadable(fds, 50, readable);
                if (!readable[0])
                    continue;
                open = drainInto(slot.process.readFd(),
                                 slot.decoder);
                while (std::optional<FrameDecoder::Decoded>
                           decoded = slot.decoder.next()) {
                    handleFrame(slot, *decoded);
                }
                if (slot.decoder.desynchronized())
                    break;
            }
            if (open)
                slot.process.kill();
            slot.process.closePipes();
            slot.process.reap(nullptr, /*block=*/true);
            slot.alive = false;
            foldWorkerTelemetry(slot);
        }
    }

    void markInstant(int track, const std::string &name)
    {
        recorder_.instantEvent(TraceRecorder::kHostPid, track,
                               recorder_.nowMicros(), "shard", name);
    }

    void exportMetrics()
    {
        registry_.gauge("shard_workers").set(stats_.workers);
    }

    const PreparedSweep &plan_;
    const SweepShardConfig &config_;
    MetricsRegistry &registry_;
    TraceRecorder &recorder_;
    FlightRecorder &flight_;

    std::vector<WorkerSlot> slots_;
    std::vector<PendingCell> pending_;
    std::vector<FaultCampaignReport> results_;
    std::vector<bool> stored_;
    std::size_t remaining_ = 0;
    std::size_t fairShare_ = 0;
    SweepShardStats stats_;
    /** Retired incarnation snapshots awaiting the final merge. */
    std::vector<MetricsSnapshot> workerSnapshots_;
    /** Whether worker ordinal's trace process group is named yet. */
    std::vector<bool> workerNamed_;
    /** Incident counter (postmortem file numbering). */
    std::uint64_t incidents_ = 0;
};

Result<std::vector<FaultCampaignReport>>
runShardedCells(const PreparedSweep &plan,
                const SweepShardConfig &config, SweepShardStats *stats)
{
    ShardCoordinator coordinator(plan, config);
    return coordinator.run(stats);
}

} // namespace

std::string
SweepShardStats::describe() const
{
    std::ostringstream oss;
    oss << cells << " cells over " << workers << " workers ("
        << stolenCells << " stolen, " << retries << " retries, "
        << timeouts << " timeouts, " << corruptFrames
        << " corrupt frames, " << staleResults << " stale, "
        << workerCrashes << " crashes, " << respawns
        << " respawns, " << degradedCells << " degraded, "
        << telemetryFrames << " telemetry frames, "
        << postmortemDumps << " postmortems)";
    return oss.str();
}

Result<ShardedSweepResult>
runShardedCampaignSweep(const DesignPoint &design,
                        const NetworkModel &network,
                        const CampaignSweepConfig &config,
                        const SweepShardConfig &shard)
{
    ScopedSpan span("shard", "sharded_campaign_sweep");
    Result<PreparedSweep> prepared =
        PreparedSweep::prepareSweep(design, network, config);
    if (!prepared.ok())
        return prepared.error();
    ShardedSweepResult result;
    Result<std::vector<FaultCampaignReport>> cells =
        runShardedCells(prepared.value(), shard, &result.stats);
    if (!cells.ok())
        return cells.error();
    result.report =
        prepared.value().assembleSweep(std::move(cells).value());
    return result;
}

Result<ShardedComparisonResult>
runShardedGuardPolicyComparison(const DesignPoint &design,
                                const NetworkModel &network,
                                const CampaignSweepConfig &config,
                                const SweepShardConfig &shard)
{
    ScopedSpan span("shard", "sharded_guard_policy_comparison");
    Result<PreparedSweep> prepared =
        PreparedSweep::prepareComparison(design, network, config);
    if (!prepared.ok())
        return prepared.error();
    ShardedComparisonResult result;
    Result<std::vector<FaultCampaignReport>> cells =
        runShardedCells(prepared.value(), shard, &result.stats);
    if (!cells.ok())
        return cells.error();
    result.report =
        prepared.value().assembleComparison(std::move(cells).value());
    return result;
}

std::string
serializeCellReport(const FaultCampaignReport &report)
{
    JsonWriter json;
    json.beginObject();
    writeCellReportFields(json, report, /*timing=*/true);
    json.endObject();
    return json.str();
}

Result<FaultCampaignReport>
parseCellReport(const std::string &text)
{
    Result<JsonValue> parsed = JsonValue::parse(text);
    if (!parsed.ok())
        return parsed.error();
    const JsonValue &object = parsed.value();
    if (!object.isObject()) {
        return makeError(ErrorCode::ParseError,
                         "cell report is not a JSON object");
    }

    FaultCampaignReport report;
    if (auto bad = kFields.getString(object, "designName", &report.designName))
        return *bad;
    if (auto bad =
            kFields.getString(object, "networkName", &report.networkName))
        return *bad;
    if (auto bad = kFields.getString(object, "modelName", &report.modelName))
        return *bad;
    if (auto bad = kFields.getDouble(object, "baselineAccuracy",
                                     &report.baselineAccuracy))
        return *bad;
    if (auto bad = kFields.getDouble(object, "operatingFailureRate",
                                     &report.operatingFailureRate))
        return *bad;

    const JsonValue *trials = object.find("trials");
    if (trials == nullptr || !trials->isArray())
        return *kFields.missing("trials");
    report.trials.resize(trials->items().size());
    for (std::size_t i = 0; i < report.trials.size(); ++i) {
        if (auto bad =
                parseTrial(trials->items()[i], &report.trials[i]))
            return *bad;
    }

    const JsonValue *exposures = object.find("exposures");
    if (exposures == nullptr || !exposures->isArray())
        return *kFields.missing("exposures");
    report.exposures.resize(exposures->items().size());
    for (std::size_t i = 0; i < report.exposures.size(); ++i) {
        if (auto bad = parseExposure(exposures->items()[i],
                                     &report.exposures[i]))
            return *bad;
    }

    if (auto bad =
            kFields.getDouble(object, "meanAccuracy", &report.meanAccuracy))
        return *bad;
    if (auto bad =
            kFields.getDouble(object, "worstAccuracy", &report.worstAccuracy))
        return *bad;
    if (auto bad = kFields.getDouble(object, "meanRelativeAccuracy",
                                     &report.meanRelativeAccuracy))
        return *bad;
    if (auto bad = kFields.getDouble(object, "worstRelativeAccuracy",
                                     &report.worstRelativeAccuracy))
        return *bad;
    if (auto bad = kFields.getDouble(object, "p5Accuracy", &report.p5Accuracy))
        return *bad;
    if (auto bad =
            kFields.getDouble(object, "p50Accuracy", &report.p50Accuracy))
        return *bad;
    if (auto bad =
            kFields.getDouble(object, "p95Accuracy", &report.p95Accuracy))
        return *bad;
    if (auto bad = kFields.getDouble(object, "p5RelativeAccuracy",
                                     &report.p5RelativeAccuracy))
        return *bad;
    if (auto bad = kFields.getDouble(object, "p50RelativeAccuracy",
                                     &report.p50RelativeAccuracy))
        return *bad;
    if (auto bad = kFields.getDouble(object, "p95RelativeAccuracy",
                                     &report.p95RelativeAccuracy))
        return *bad;
    if (auto bad = kFields.getDouble(object, "meanWeightFailureRate",
                                     &report.meanWeightFailureRate))
        return *bad;
    if (auto bad = kFields.getDouble(object, "meanActivationFailureRate",
                                     &report.meanActivationFailureRate))
        return *bad;
    if (auto bad = kFields.getDouble(object, "executionSeconds",
                                     &report.executionSeconds))
        return *bad;
    if (auto bad = kFields.getU64(object, "retentionViolations",
                                  &report.retentionViolations))
        return *bad;
    if (auto bad = kFields.getU64(object, "refreshOps", &report.refreshOps))
        return *bad;
    if (auto bad =
            kFields.getDouble(object, "trialSeconds", &report.trialSeconds))
        return *bad;
    if (auto bad = kFields.getDouble(object, "trialsPerSecond",
                                     &report.trialsPerSecond))
        return *bad;
    if (auto bad = kFields.getBool(object, "guarded", &report.guarded))
        return *bad;
    if (auto bad = kFields.getString(object, "guardPolicyName",
                                     &report.guardPolicyName))
        return *bad;
    if (auto bad = parseGuardStats(object, &report.guardStats))
        return *bad;
    return report;
}

std::string
canonicalSweepJson(const CampaignSweepReport &report)
{
    JsonWriter json;
    json.beginObject();
    json.field("designName", report.designName);
    json.field("networkName", report.networkName);
    json.field("modelName", report.modelName);
    json.field("baselineAccuracy", report.baselineAccuracy);
    json.beginArray("failureRates");
    for (double rate : report.failureRates)
        json.element(rate);
    json.endArray();
    json.beginArray("refreshIntervals");
    for (double interval : report.refreshIntervals)
        json.element(interval);
    json.endArray();
    json.beginArray("cells");
    for (const SweepCell &cell : report.cells) {
        json.beginObject();
        json.field("failureRate", cell.failureRate);
        json.field("refreshIntervalSeconds",
                   cell.refreshIntervalSeconds);
        json.beginObject("report");
        writeCellReportFields(json, cell.report, /*timing=*/false);
        json.endObject();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.str();
}

std::string
canonicalComparisonJson(const GuardPolicyComparisonReport &report)
{
    JsonWriter json;
    json.beginObject();
    json.field("designName", report.designName);
    json.field("networkName", report.networkName);
    json.field("modelName", report.modelName);
    json.field("baselineAccuracy", report.baselineAccuracy);
    // JsonWriter arrays hold numbers only; the name axis is one
    // joined string (names never contain '|').
    std::string policies;
    for (const std::string &name : report.policyNames) {
        if (!policies.empty())
            policies += "|";
        policies += name;
    }
    json.field("policyNames", policies);
    json.beginArray("failureRates");
    for (double rate : report.failureRates)
        json.element(rate);
    json.endArray();
    json.beginArray("refreshIntervals");
    for (double interval : report.refreshIntervals)
        json.element(interval);
    json.endArray();
    json.beginArray("cells");
    for (const GuardPolicyComparisonCell &cell : report.cells) {
        json.beginObject();
        json.field("policyName", cell.policyName);
        json.field("failureRate", cell.failureRate);
        json.field("refreshIntervalSeconds",
                   cell.refreshIntervalSeconds);
        json.beginObject("report");
        writeCellReportFields(json, cell.report, /*timing=*/false);
        json.endObject();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.str();
}

} // namespace rana
