/**
 * @file
 * Implementation of the cross-process telemetry schemas and the
 * snapshot algebra.
 */

#include "obs/telemetry.hh"

#include <algorithm>
#include <map>
#include <optional>

#include "util/json_reader.hh"
#include "util/json_writer.hh"

namespace rana {

namespace {

constexpr const char *kTelemetrySchema = "rana-telemetry-1";
constexpr const char *kPostmortemSchema = "rana-postmortem-1";
constexpr const char *kMetricsSchema = "rana-metrics-1";

constexpr JsonFieldReader kFields("telemetry");

/** Require `schema` to name the expected document kind. */
std::optional<Error>
checkSchema(const JsonValue &object, const char *expected)
{
    std::string schema;
    if (auto bad = kFields.getString(object, "schema", &schema))
        return bad;
    if (schema != expected) {
        return makeError(ErrorCode::ParseError, "not a ", expected,
                         " document: schema=", schema);
    }
    return std::nullopt;
}

// --------------------------------------------------------------------
// Flight events.
// --------------------------------------------------------------------

void
writeFlightEvents(JsonWriter &json,
                  const std::vector<FlightEvent> &events)
{
    json.beginArray("flight");
    for (const FlightEvent &event : events) {
        json.beginObject();
        json.field("seq", event.seq);
        json.field("ts_micros", event.tsMicros);
        json.field("phase", event.phase);
        json.field("cell", static_cast<std::uint64_t>(event.cell));
        json.field("attempt",
                   static_cast<std::uint64_t>(event.attempt));
        json.field("frame_seq", event.frameSeq);
        json.endObject();
    }
    json.endArray();
}

std::optional<Error>
parseFlightEvents(const JsonValue &parent,
                  std::vector<FlightEvent> *out)
{
    const JsonValue *array = parent.find("flight");
    if (array == nullptr || !array->isArray())
        return kFields.missing("flight");
    out->clear();
    out->reserve(array->items().size());
    for (const JsonValue &item : array->items()) {
        if (!item.isObject())
            return kFields.missing("flight[]");
        FlightEvent event;
        if (auto bad = kFields.getU64(item, "seq", &event.seq))
            return bad;
        if (auto bad = kFields.getDouble(item, "ts_micros", &event.tsMicros))
            return bad;
        if (auto bad = kFields.getString(item, "phase", &event.phase))
            return bad;
        std::uint64_t cell = 0;
        if (auto bad = kFields.getU64(item, "cell", &cell))
            return bad;
        event.cell = static_cast<std::uint32_t>(cell);
        std::uint64_t attempt = 0;
        if (auto bad = kFields.getU64(item, "attempt", &attempt))
            return bad;
        event.attempt = static_cast<std::uint32_t>(attempt);
        if (auto bad = kFields.getU64(item, "frame_seq", &event.frameSeq))
            return bad;
        out->push_back(std::move(event));
    }
    return std::nullopt;
}

// --------------------------------------------------------------------
// Trace events.
// --------------------------------------------------------------------

void
writeTraceEvents(JsonWriter &json,
                 const std::vector<TraceRecorder::Event> &events)
{
    json.beginArray("trace");
    for (const TraceRecorder::Event &event : events) {
        json.beginObject();
        json.field("ph", std::string(1, event.phase));
        json.field("pid", static_cast<std::uint64_t>(event.pid));
        json.field("tid", static_cast<std::uint64_t>(event.tid));
        json.field("ts", event.tsMicros);
        json.field("dur", event.durMicros);
        json.field("name", event.name);
        json.field("cat", event.category);
        json.field("arg_key", event.argKey);
        json.field("arg_value", event.argValue);
        json.field("arg_text", event.argText);
        json.endObject();
    }
    json.endArray();
}

std::optional<Error>
parseTraceEvents(const JsonValue &parent,
                 std::vector<TraceRecorder::Event> *out)
{
    const JsonValue *array = parent.find("trace");
    if (array == nullptr || !array->isArray())
        return kFields.missing("trace");
    out->clear();
    out->reserve(array->items().size());
    for (const JsonValue &item : array->items()) {
        if (!item.isObject())
            return kFields.missing("trace[]");
        TraceRecorder::Event event;
        std::string phase;
        if (auto bad = kFields.getString(item, "ph", &phase))
            return bad;
        if (phase.size() != 1)
            return kFields.missing("trace[].ph");
        event.phase = phase[0];
        std::uint64_t pid = 0;
        if (auto bad = kFields.getU64(item, "pid", &pid))
            return bad;
        event.pid = static_cast<int>(pid);
        std::uint64_t tid = 0;
        if (auto bad = kFields.getU64(item, "tid", &tid))
            return bad;
        event.tid = static_cast<int>(tid);
        if (auto bad = kFields.getDouble(item, "ts", &event.tsMicros))
            return bad;
        if (auto bad = kFields.getDouble(item, "dur", &event.durMicros))
            return bad;
        if (auto bad = kFields.getString(item, "name", &event.name))
            return bad;
        if (auto bad = kFields.getString(item, "cat", &event.category))
            return bad;
        if (auto bad = kFields.getString(item, "arg_key", &event.argKey))
            return bad;
        if (auto bad = kFields.getDouble(item, "arg_value", &event.argValue))
            return bad;
        if (auto bad = kFields.getString(item, "arg_text", &event.argText))
            return bad;
        out->push_back(std::move(event));
    }
    return std::nullopt;
}

template <typename Vector>
void
sortByName(Vector &values)
{
    std::sort(values.begin(), values.end(),
              [](const auto &a, const auto &b) {
                  return a.name < b.name;
              });
}

} // namespace

// --------------------------------------------------------------------
// Metrics snapshot members.
// --------------------------------------------------------------------

Result<MetricsSnapshot>
parseSnapshotMembers(const JsonValue &object)
{
    MetricsSnapshot snap;
    const JsonValue *counters = object.find("counters");
    if (counters == nullptr || !counters->isObject())
        return *kFields.missing("counters");
    for (const auto &[name, value] : counters->members()) {
        std::uint64_t out = 0;
        if (!value.asUint(&out))
            return *kFields.missing("counters[]");
        snap.counters.push_back({name, out});
    }
    const JsonValue *gauges = object.find("gauges");
    if (gauges == nullptr || !gauges->isObject())
        return *kFields.missing("gauges");
    for (const auto &[name, value] : gauges->members()) {
        double out = 0.0;
        if (!value.numberOrSentinel(&out))
            return *kFields.missing("gauges[]");
        snap.gauges.push_back({name, out});
    }
    const JsonValue *histograms = object.find("histograms");
    if (histograms == nullptr || !histograms->isObject())
        return *kFields.missing("histograms");
    for (const auto &[name, value] : histograms->members()) {
        if (!value.isObject())
            return *kFields.missing("histograms[]");
        MetricsSnapshot::HistogramValue histogram;
        histogram.name = name;
        const JsonValue *bounds = value.find("bounds");
        if (bounds == nullptr || !bounds->isArray())
            return *kFields.missing("bounds");
        for (const JsonValue &bound : bounds->items()) {
            double out = 0.0;
            if (!bound.numberOrSentinel(&out))
                return *kFields.missing("bounds[]");
            histogram.bounds.push_back(out);
        }
        const JsonValue *bucketCounts = value.find("counts");
        if (bucketCounts == nullptr || !bucketCounts->isArray())
            return *kFields.missing("counts");
        for (const JsonValue &count : bucketCounts->items()) {
            double out = 0.0;
            if (!count.numberOrSentinel(&out) || out < 0.0)
                return *kFields.missing("counts[]");
            histogram.counts.push_back(
                static_cast<std::uint64_t>(out));
        }
        if (histogram.counts.size() != histogram.bounds.size() + 1)
            return *kFields.missing("counts (bucket arity)");
        if (auto bad = kFields.getDouble(value, "sum", &histogram.sum))
            return *bad;
        if (auto bad = kFields.getU64(value, "count", &histogram.count))
            return *bad;
        snap.histograms.push_back(std::move(histogram));
    }
    sortByName(snap.counters);
    sortByName(snap.gauges);
    sortByName(snap.histograms);
    return snap;
}

Result<MetricsSnapshot>
parseMetricsDocument(const std::string &text)
{
    Result<JsonValue> parsed = JsonValue::parse(text);
    if (!parsed.ok())
        return parsed.error();
    const JsonValue &object = parsed.value();
    if (!object.isObject())
        return *kFields.missing("(document root)");
    if (auto bad = checkSchema(object, kMetricsSchema))
        return *bad;
    return parseSnapshotMembers(object);
}

std::string
metricsDocumentFromSnapshot(const MetricsSnapshot &snap)
{
    JsonWriter json;
    json.beginObject();
    json.field("schema", kMetricsSchema);
    writeSnapshotMembers(json, snap);
    json.endObject();
    return json.str();
}

// --------------------------------------------------------------------
// Telemetry frame payload.
// --------------------------------------------------------------------

std::string
serializeWorkerTelemetry(const WorkerTelemetry &telemetry)
{
    JsonWriter json;
    json.beginObject();
    json.field("schema", kTelemetrySchema);
    json.field("worker",
               static_cast<std::uint64_t>(telemetry.worker));
    json.field("seq", telemetry.seq);
    json.field("final", telemetry.finalFrame);
    json.beginObject("metrics");
    writeSnapshotMembers(json, telemetry.metrics);
    json.endObject();
    writeFlightEvents(json, telemetry.flight);
    writeTraceEvents(json, telemetry.trace);
    json.endObject();
    return json.str();
}

Result<WorkerTelemetry>
parseWorkerTelemetry(const std::string &text)
{
    Result<JsonValue> parsed = JsonValue::parse(text);
    if (!parsed.ok())
        return parsed.error();
    const JsonValue &object = parsed.value();
    if (!object.isObject())
        return *kFields.missing("(telemetry root)");
    if (auto bad = checkSchema(object, kTelemetrySchema))
        return *bad;
    WorkerTelemetry telemetry;
    std::uint64_t worker = 0;
    if (auto bad = kFields.getU64(object, "worker", &worker))
        return *bad;
    telemetry.worker = static_cast<std::uint32_t>(worker);
    if (auto bad = kFields.getU64(object, "seq", &telemetry.seq))
        return *bad;
    if (auto bad = kFields.getBool(object, "final", &telemetry.finalFrame))
        return *bad;
    const JsonValue *metrics = object.find("metrics");
    if (metrics == nullptr || !metrics->isObject())
        return *kFields.missing("metrics");
    Result<MetricsSnapshot> snap = parseSnapshotMembers(*metrics);
    if (!snap.ok())
        return snap.error();
    telemetry.metrics = std::move(snap).value();
    if (auto bad = parseFlightEvents(object, &telemetry.flight))
        return *bad;
    if (auto bad = parseTraceEvents(object, &telemetry.trace))
        return *bad;
    return telemetry;
}

// --------------------------------------------------------------------
// Postmortem dumps.
// --------------------------------------------------------------------

std::string
serializePostmortem(const PostmortemReport &report)
{
    JsonWriter json;
    json.beginObject();
    json.field("schema", kPostmortemSchema);
    json.field("worker", static_cast<std::uint64_t>(report.worker));
    json.field("incident", report.incident);
    json.field("reason", report.reason);
    json.field("exited", report.exited);
    json.field("exit_code",
               static_cast<std::uint64_t>(report.exitCode));
    json.field("signaled", report.signaled);
    json.field("term_signal",
               static_cast<std::uint64_t>(report.termSignal));
    json.field("busy", report.busy);
    json.field("last_cell", report.lastCell);
    json.field("last_attempt", report.lastAttempt);
    json.field("telemetry_frames", report.telemetryFrames);
    json.beginObject("metrics");
    writeSnapshotMembers(json, report.lastMetrics);
    json.endObject();
    writeFlightEvents(json, report.flight);
    json.endObject();
    return json.str();
}

Result<PostmortemReport>
parsePostmortem(const std::string &text)
{
    Result<JsonValue> parsed = JsonValue::parse(text);
    if (!parsed.ok())
        return parsed.error();
    const JsonValue &object = parsed.value();
    if (!object.isObject())
        return *kFields.missing("(postmortem root)");
    if (auto bad = checkSchema(object, kPostmortemSchema))
        return *bad;
    PostmortemReport report;
    std::uint64_t worker = 0;
    if (auto bad = kFields.getU64(object, "worker", &worker))
        return *bad;
    report.worker = static_cast<std::uint32_t>(worker);
    if (auto bad = kFields.getU64(object, "incident", &report.incident))
        return *bad;
    if (auto bad = kFields.getString(object, "reason", &report.reason))
        return *bad;
    if (auto bad = kFields.getBool(object, "exited", &report.exited))
        return *bad;
    std::uint64_t exitCode = 0;
    if (auto bad = kFields.getU64(object, "exit_code", &exitCode))
        return *bad;
    report.exitCode = static_cast<int>(exitCode);
    if (auto bad = kFields.getBool(object, "signaled", &report.signaled))
        return *bad;
    std::uint64_t termSignal = 0;
    if (auto bad = kFields.getU64(object, "term_signal", &termSignal))
        return *bad;
    report.termSignal = static_cast<int>(termSignal);
    if (auto bad = kFields.getBool(object, "busy", &report.busy))
        return *bad;
    if (auto bad = kFields.getU64(object, "last_cell", &report.lastCell))
        return *bad;
    if (auto bad = kFields.getU64(object, "last_attempt", &report.lastAttempt))
        return *bad;
    if (auto bad = kFields.getU64(object, "telemetry_frames",
                                  &report.telemetryFrames))
        return *bad;
    const JsonValue *metrics = object.find("metrics");
    if (metrics == nullptr || !metrics->isObject())
        return *kFields.missing("metrics");
    Result<MetricsSnapshot> snap = parseSnapshotMembers(*metrics);
    if (!snap.ok())
        return snap.error();
    report.lastMetrics = std::move(snap).value();
    if (auto bad = parseFlightEvents(object, &report.flight))
        return *bad;
    return report;
}

// --------------------------------------------------------------------
// Snapshot algebra.
// --------------------------------------------------------------------

MetricsSnapshot
mergeSnapshots(const std::vector<MetricsSnapshot> &snapshots)
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, MetricsSnapshot::HistogramValue>
        histograms;
    for (const MetricsSnapshot &snap : snapshots) {
        for (const auto &counter : snap.counters)
            counters[counter.name] += counter.value;
        for (const auto &gauge : snap.gauges) {
            auto [it, inserted] =
                gauges.emplace(gauge.name, gauge.value);
            if (!inserted)
                it->second = std::max(it->second, gauge.value);
        }
        for (const auto &histogram : snap.histograms) {
            auto [it, inserted] =
                histograms.emplace(histogram.name, histogram);
            if (inserted)
                continue;
            MetricsSnapshot::HistogramValue &merged = it->second;
            if (merged.bounds != histogram.bounds)
                continue; // incompatible buckets: first wins
            for (std::size_t i = 0; i < merged.counts.size(); ++i)
                merged.counts[i] += histogram.counts[i];
            merged.sum += histogram.sum;
            merged.count += histogram.count;
        }
    }
    MetricsSnapshot merged;
    for (const auto &[name, value] : counters)
        merged.counters.push_back({name, value});
    for (const auto &[name, value] : gauges)
        merged.gauges.push_back({name, value});
    for (const auto &[name, value] : histograms)
        merged.histograms.push_back(value);
    return merged;
}

namespace {

bool
ignored(const std::string &name,
        const std::vector<std::string> &ignoreSubstrings)
{
    for (const std::string &needle : ignoreSubstrings) {
        if (name.find(needle) != std::string::npos)
            return true;
    }
    return false;
}

template <typename Value, typename Extract>
void
diffByName(const std::vector<Value> &a, const std::vector<Value> &b,
           const std::string &kind,
           const std::vector<std::string> &ignoreSubstrings,
           const Extract &extract,
           std::vector<SnapshotDiffEntry> *out)
{
    std::map<std::string, double> left;
    std::map<std::string, double> right;
    for (const Value &value : a)
        left[value.name] = extract(value);
    for (const Value &value : b)
        right[value.name] = extract(value);
    for (const auto &[name, valueA] : left) {
        if (ignored(name, ignoreSubstrings))
            continue;
        const auto it = right.find(name);
        const double valueB = it == right.end() ? 0.0 : it->second;
        if (valueA != valueB)
            out->push_back({kind, name, valueA, valueB});
    }
    for (const auto &[name, valueB] : right) {
        if (ignored(name, ignoreSubstrings))
            continue;
        if (left.find(name) == left.end() && valueB != 0.0)
            out->push_back({kind, name, 0.0, valueB});
    }
}

} // namespace

std::vector<SnapshotDiffEntry>
diffSnapshots(const MetricsSnapshot &a, const MetricsSnapshot &b,
              bool countersOnly,
              const std::vector<std::string> &ignoreSubstrings)
{
    std::vector<SnapshotDiffEntry> entries;
    diffByName(
        a.counters, b.counters, "counter", ignoreSubstrings,
        [](const MetricsSnapshot::CounterValue &value) {
            return static_cast<double>(value.value);
        },
        &entries);
    if (!countersOnly) {
        diffByName(
            a.gauges, b.gauges, "gauge", ignoreSubstrings,
            [](const MetricsSnapshot::GaugeValue &value) {
                return value.value;
            },
            &entries);
        diffByName(
            a.histograms, b.histograms, "histogram_count",
            ignoreSubstrings,
            [](const MetricsSnapshot::HistogramValue &value) {
                return static_cast<double>(value.count);
            },
            &entries);
        diffByName(
            a.histograms, b.histograms, "histogram_sum",
            ignoreSubstrings,
            [](const MetricsSnapshot::HistogramValue &value) {
                return value.sum;
            },
            &entries);
    }
    std::sort(entries.begin(), entries.end(),
              [](const SnapshotDiffEntry &x,
                 const SnapshotDiffEntry &y) {
                  if (x.name != y.name)
                      return x.name < y.name;
                  return x.kind < y.kind;
              });
    return entries;
}

std::uint64_t
counterValue(const MetricsSnapshot &snap, const std::string &name)
{
    for (const auto &counter : snap.counters) {
        if (counter.name == name)
            return counter.value;
    }
    return 0;
}

bool
hasCounter(const MetricsSnapshot &snap, const std::string &name)
{
    for (const auto &counter : snap.counters) {
        if (counter.name == name)
            return true;
    }
    return false;
}

} // namespace rana
