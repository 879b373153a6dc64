/**
 * @file
 * rana_obs: load, merge, diff and pretty-print the observability
 * artifacts the pipeline emits — "rana-metrics-1" snapshots
 * (--metrics-json), "rana-postmortem-1" incident dumps
 * (--postmortem-dir) and the merged multi-process documents the
 * sharded sweep coordinator produces.
 *
 * Usage:
 *   rana_obs show FILE
 *       Pretty-print a metrics snapshot or a postmortem dump
 *       (schema-detected), including the flight-recorder ring.
 *   rana_obs top FILE [--by=counter|gauge|histogram] [-n N]
 *       The N largest instruments of one snapshot (default 10
 *       counters).
 *   rana_obs diff A B [--counters-only] [--ignore SUBSTR]...
 *       Instrument-level differences between two snapshots.
 *       Missing instruments read as 0; --ignore skips any
 *       instrument whose name contains SUBSTR (repeatable).
 *       Exit 0 when identical, 1 when they differ.
 *   rana_obs merge FILE...
 *       Merge snapshots (counters add, gauges keep the max,
 *       histograms add bucket-wise) and print the merged
 *       "rana-metrics-1" document to stdout.
 *   rana_obs check FILE
 *       Verify the cross-process accounting invariant of a merged
 *       sharded-sweep snapshot:
 *         worker_cells_completed_total_worker_sum ==
 *             shard_cells_completed_total
 *             - shard_degraded_cells_total
 *             + shard_corrupt_frames_total
 *             + shard_stale_results_total
 *       and that at least one telemetry frame arrived. Exit 0 when
 *       the invariant holds, 1 when violated.
 *
 * Postmortem dumps are accepted wherever a snapshot is: their
 * embedded last-known metrics are used. Exit code 2 is any usage,
 * I/O or parse error.
 */

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_options.hh"
#include "obs/telemetry.hh"
#include "util/json_reader.hh"

namespace {

using namespace rana;

int
fail(const std::string &message)
{
    std::cerr << "rana_obs: " << message << "\n";
    return 2;
}

Result<std::string>
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return makeError(ErrorCode::IoError, "cannot open ", path);
    std::ostringstream text;
    text << in.rdbuf();
    if (in.bad())
        return makeError(ErrorCode::IoError, "failed reading ", path);
    return text.str();
}

/** The document's "schema" member ("" when absent). */
std::string
documentSchema(const std::string &text)
{
    Result<JsonValue> parsed = JsonValue::parse(text);
    if (!parsed.ok() || !parsed.value().isObject())
        return "";
    const JsonValue *schema = parsed.value().find("schema");
    if (schema == nullptr || !schema->isString())
        return "";
    return schema->asString();
}

/**
 * Load FILE as a snapshot: a metrics document directly, a
 * postmortem dump through its embedded last-known metrics.
 */
Result<MetricsSnapshot>
loadSnapshot(const std::string &path)
{
    Result<std::string> text = readFile(path);
    if (!text.ok())
        return text.error();
    if (documentSchema(text.value()) == "rana-postmortem-1") {
        Result<PostmortemReport> report =
            parsePostmortem(text.value());
        if (!report.ok())
            return report.error();
        return std::move(report).value().lastMetrics;
    }
    return parseMetricsDocument(text.value());
}

void
printSnapshot(const MetricsSnapshot &snap)
{
    std::cout << "counters (" << snap.counters.size() << "):\n";
    for (const auto &counter : snap.counters) {
        std::cout << "  " << counter.name << " = " << counter.value
                  << "\n";
    }
    std::cout << "gauges (" << snap.gauges.size() << "):\n";
    for (const auto &gauge : snap.gauges) {
        std::cout << "  " << gauge.name << " = " << gauge.value
                  << "\n";
    }
    std::cout << "histograms (" << snap.histograms.size() << "):\n";
    for (const auto &histogram : snap.histograms) {
        std::cout << "  " << histogram.name
                  << " count=" << histogram.count
                  << " sum=" << histogram.sum << "\n";
    }
}

void
printFlight(const std::vector<FlightEvent> &flight)
{
    std::cout << "flight ring (" << flight.size() << " events):\n";
    for (const FlightEvent &event : flight) {
        std::cout << "  #" << event.seq << " t=" << event.tsMicros
                  << "us " << event.phase << " cell=" << event.cell
                  << " attempt=" << event.attempt
                  << " frame=" << event.frameSeq << "\n";
    }
}

int
cmdShow(const std::vector<std::string> &args)
{
    if (args.size() != 1)
        return fail("show expects exactly one FILE");
    Result<std::string> text = readFile(args[0]);
    if (!text.ok())
        return fail(text.error().describe());
    const std::string schema = documentSchema(text.value());
    if (schema == "rana-postmortem-1") {
        Result<PostmortemReport> parsed =
            parsePostmortem(text.value());
        if (!parsed.ok())
            return fail(parsed.error().describe());
        const PostmortemReport &report = parsed.value();
        std::cout << "postmortem: worker " << report.worker
                  << " incident " << report.incident << " ("
                  << report.reason << ")\n";
        if (report.exited) {
            std::cout << "  exited with code " << report.exitCode
                      << "\n";
        }
        if (report.signaled) {
            std::cout << "  killed by signal " << report.termSignal
                      << "\n";
        }
        if (report.busy) {
            std::cout << "  busy on cell " << report.lastCell
                      << " attempt " << report.lastAttempt << "\n";
        } else {
            std::cout << "  idle at death\n";
        }
        std::cout << "  telemetry frames received: "
                  << report.telemetryFrames << "\n";
        printFlight(report.flight);
        printSnapshot(report.lastMetrics);
        return 0;
    }
    if (schema == "rana-metrics-1") {
        Result<MetricsSnapshot> snap =
            parseMetricsDocument(text.value());
        if (!snap.ok())
            return fail(snap.error().describe());
        printSnapshot(snap.value());
        return 0;
    }
    return fail("unrecognized document schema in " + args[0]);
}

int
cmdTop(const std::vector<std::string> &args)
{
    std::string path;
    std::string by = "counter";
    std::size_t limit = 10;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg.rfind("--by=", 0) == 0) {
            by = arg.substr(5);
        } else if (arg == "-n") {
            if (i + 1 >= args.size())
                return fail("missing value after -n");
            const Result<std::size_t> count =
                cli::parseCount<std::size_t>(arg, args[++i]);
            if (!count.ok())
                return fail(count.error().describe());
            limit = count.value();
        } else if (path.empty()) {
            path = arg;
        } else {
            return fail("unknown top argument " + arg);
        }
    }
    if (path.empty())
        return fail("top expects a FILE");
    if (by != "counter" && by != "gauge" && by != "histogram")
        return fail("--by expects counter, gauge or histogram");
    Result<MetricsSnapshot> loaded = loadSnapshot(path);
    if (!loaded.ok())
        return fail(loaded.error().describe());
    const MetricsSnapshot &snap = loaded.value();

    struct Row
    {
        std::string name;
        double value = 0.0;
    };
    std::vector<Row> rows;
    if (by == "counter") {
        for (const auto &counter : snap.counters) {
            rows.push_back(
                {counter.name, static_cast<double>(counter.value)});
        }
    } else if (by == "gauge") {
        for (const auto &gauge : snap.gauges)
            rows.push_back({gauge.name, gauge.value});
    } else {
        for (const auto &histogram : snap.histograms) {
            rows.push_back(
                {histogram.name,
                 static_cast<double>(histogram.count)});
        }
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const Row &a, const Row &b) {
                         return a.value > b.value;
                     });
    if (rows.size() > limit)
        rows.resize(limit);
    for (const Row &row : rows)
        std::cout << row.value << "  " << row.name << "\n";
    return 0;
}

int
cmdDiff(const std::vector<std::string> &args)
{
    std::vector<std::string> paths;
    std::vector<std::string> ignores;
    bool countersOnly = false;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--counters-only") {
            countersOnly = true;
        } else if (arg == "--ignore") {
            if (i + 1 >= args.size())
                return fail("missing value after --ignore");
            ignores.push_back(args[++i]);
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.size() != 2)
        return fail("diff expects exactly two FILEs");
    Result<MetricsSnapshot> a = loadSnapshot(paths[0]);
    if (!a.ok())
        return fail(a.error().describe());
    Result<MetricsSnapshot> b = loadSnapshot(paths[1]);
    if (!b.ok())
        return fail(b.error().describe());
    const std::vector<SnapshotDiffEntry> entries =
        diffSnapshots(a.value(), b.value(), countersOnly, ignores);
    for (const SnapshotDiffEntry &entry : entries) {
        std::cout << entry.kind << " " << entry.name << ": "
                  << entry.a << " != " << entry.b << "\n";
    }
    if (entries.empty()) {
        std::cout << "identical\n";
        return 0;
    }
    std::cout << entries.size() << " difference"
              << (entries.size() == 1 ? "" : "s") << "\n";
    return 1;
}

int
cmdMerge(const std::vector<std::string> &args)
{
    if (args.empty())
        return fail("merge expects at least one FILE");
    std::vector<MetricsSnapshot> snapshots;
    for (const std::string &path : args) {
        Result<MetricsSnapshot> snap = loadSnapshot(path);
        if (!snap.ok())
            return fail(snap.error().describe());
        snapshots.push_back(std::move(snap).value());
    }
    std::cout << metricsDocumentFromSnapshot(
                     mergeSnapshots(snapshots))
              << "\n";
    return 0;
}

int
cmdCheck(const std::vector<std::string> &args)
{
    if (args.size() != 1)
        return fail("check expects exactly one FILE");
    Result<MetricsSnapshot> loaded = loadSnapshot(args[0]);
    if (!loaded.ok())
        return fail(loaded.error().describe());
    const MetricsSnapshot &snap = loaded.value();
    if (!hasCounter(snap, "worker_cells_completed_total_worker_sum")) {
        return fail("no worker_cells_completed_total_worker_sum "
                    "counter: not a merged sharded-sweep snapshot");
    }
    const std::uint64_t workerSum =
        counterValue(snap, "worker_cells_completed_total_worker_sum");
    const std::uint64_t completed =
        counterValue(snap, "shard_cells_completed_total");
    const std::uint64_t degraded =
        counterValue(snap, "shard_degraded_cells_total");
    const std::uint64_t corrupt =
        counterValue(snap, "shard_corrupt_frames_total");
    const std::uint64_t stale =
        counterValue(snap, "shard_stale_results_total");
    const std::uint64_t telemetryFrames =
        counterValue(snap, "telemetry_frames_total");
    bool good = true;
    if (telemetryFrames == 0) {
        std::cout << "FAIL: no telemetry frames were received\n";
        good = false;
    }
    const std::uint64_t expected =
        completed - degraded + corrupt + stale;
    if (workerSum != expected) {
        std::cout << "FAIL: worker-reported completions ("
                  << workerSum << ") != stored - degraded + corrupt"
                  << " + stale (" << completed << " - " << degraded
                  << " + " << corrupt << " + " << stale << " = "
                  << expected << ")\n";
        good = false;
    }
    if (!good)
        return 1;
    std::cout << "ok: " << workerSum
              << " worker-reported completions match ("
              << completed << " stored, " << degraded
              << " degraded, " << corrupt << " corrupt, " << stale
              << " stale; " << telemetryFrames
              << " telemetry frames)\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr
            << "usage: rana_obs <show|top|diff|merge|check> ...\n";
        return 2;
    }
    const std::string command = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    if (command == "show")
        return cmdShow(args);
    if (command == "top")
        return cmdTop(args);
    if (command == "diff")
        return cmdDiff(args);
    if (command == "merge")
        return cmdMerge(args);
    if (command == "check")
        return cmdCheck(args);
    return fail("unknown command " + command);
}
