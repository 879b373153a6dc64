/**
 * @file
 * The `compile` workload: every paper network compiled for every
 * Table-IV design, as `rana_compile` does it. Each (network, design)
 * compile starts from a cleared evaluation cache and runs the search
 * (scheduleNetwork), the trace simulation (executeScheduleChecked)
 * and the config round trip (writeConfigString, readConfigChecked,
 * rebuildScheduleChecked). All host time is in the scheduler and the
 * simulator; none is in training, fault trials or serving, so a
 * kernel or trainer change predicts no change here.
 */

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "common.hh"
#include "rana.hh"
#include "sim/trace_export.hh"

namespace perfbench {

namespace {

using namespace rana;

/**
 * Stamps host time when the simulator starts each layer and counts
 * the layer's simulated events: the per-layer simulation table of
 * the traced run.
 */
class LayerClockSink : public TraceSink
{
  public:
    struct Layer
    {
        std::string name;
        Clock::time_point start;
        std::uint64_t events = 0;
        double seconds = 0.0;
    };

    void onLayerBegin(const std::string &name) override
    {
        layers_.push_back({name, Clock::now(), 0, 0.0});
    }

    void onEvent(const TraceEvent &) override
    {
        if (!layers_.empty())
            ++layers_.back().events;
    }

    /** Close the last layer at `end`; returns and clears the log. */
    std::vector<Layer> finish(Clock::time_point end)
    {
        for (std::size_t i = 0; i < layers_.size(); ++i) {
            const Clock::time_point stop =
                i + 1 < layers_.size() ? layers_[i + 1].start : end;
            layers_[i].seconds =
                std::chrono::duration<double>(stop - layers_[i].start)
                    .count();
        }
        return std::exchange(layers_, {});
    }

  private:
    std::vector<Layer> layers_;
};

struct CompileInputs
{
    std::vector<NetworkModel> networks;
    std::vector<DesignPoint> designs;
};

bool
isRanaStar(const DesignPoint &design)
{
    return design.name == designKindName(DesignKind::RanaStarE5);
}

bool
isRana(const DesignPoint &design)
{
    return design.name.rfind("RANA", 0) == 0;
}

/**
 * The workload's set-up: the paper networks and the six Table-IV
 * designs, configured as `rana_compile` runs them (scheduler jobs =
 * lanes; RANA*(E-5) searches all six dataflows).
 */
CompileInputs
buildInputs(bool smallest, unsigned lanes, Checks &checks)
{
    CompileInputs inputs;
    const std::vector<std::string> names =
        smallest ? std::vector<std::string>{"AlexNet"}
                 : std::vector<std::string>{"AlexNet", "VGG",
                                            "GoogLeNet", "ResNet"};
    for (const std::string &name : names) {
        Result<NetworkModel> network = makeBenchmarkChecked(name);
        if (checks.ok("makeBenchmarkChecked " + name, network))
            inputs.networks.push_back(std::move(network).value());
    }
    for (DesignPoint design :
         tableIvDesigns(RetentionDistribution::typical65nm())) {
        if (smallest && design.name != "S+ID" && !isRanaStar(design))
            continue;
        design.options.jobs = lanes;
        if (isRanaStar(design)) {
            design.options.dataflows.assign(allDataflows().begin(),
                                            allDataflows().end());
        }
        inputs.designs.push_back(std::move(design));
    }
    return inputs;
}

std::string
scheduleText(const NetworkSchedule &schedule)
{
    return writeConfigString(toConfigRecord(schedule));
}

std::string
executionText(const ExecutionResult &executed)
{
    std::ostringstream out;
    out << executed.counts.macOps << " " << executed.counts.bufferAccesses
        << " " << executed.counts.refreshOps << " "
        << executed.counts.ddrAccesses << " "
        << exact(executed.energy.total()) << " "
        << exact(executed.seconds) << " " << executed.violations << "\n";
    return out.str();
}

/** Host timings and modelled outputs of one (network, design). */
struct CompileItem
{
    bool ok = false;
    double seconds = 0.0;
    std::string schedule;
    std::string execution;
    NetworkSchedule rebuilt;
    ExecutionResult executed;
    EvalCache::Stats cache;
    std::vector<LayerClockSink::Layer> simLayers;
};

CompileItem
compileOne(const DesignPoint &design, const NetworkModel &network,
           Tracer &tracer, Checks &checks)
{
    const std::string label = network.name() + " on " + design.name;
    CompileItem item;
    Timed span(tracer, "item");
    EvalCache::global().clear();

    std::optional<Result<NetworkSchedule>> schedule;
    {
        Timed phase(tracer, "sched.search");
        schedule.emplace(
            scheduleNetwork(design.config, network, design.options));
    }
    if (!checks.ok("scheduleNetwork " + label, *schedule))
        return item;

    LayerClockSink sink;
    std::optional<Result<ExecutionResult>> executed;
    {
        Timed phase(tracer, "sim.execute");
        executed.emplace(executeScheduleChecked(
            design, network, schedule->value(), TimingFaults{}, nullptr,
            tracer.enabled() ? &sink : nullptr));
        item.simLayers = sink.finish(Clock::now());
    }
    if (!checks.ok("executeScheduleChecked " + label, *executed))
        return item;

    std::optional<Result<NetworkConfigRecord>> record;
    std::optional<Result<NetworkSchedule>> rebuilt;
    {
        Timed phase(tracer, "sched.rebuild");
        item.schedule = scheduleText(schedule->value());
        std::istringstream in(item.schedule);
        record.emplace(readConfigChecked(in));
        if (record->ok())
            rebuilt.emplace(rebuildScheduleChecked(
                design.config, network, record->value()));
    }
    if (!checks.ok("readConfigChecked " + label, *record) ||
        !checks.ok("rebuildScheduleChecked " + label, *rebuilt))
        return item;
    item.ok = checks.check("config round trip " + label,
                           scheduleText(rebuilt->value()) == item.schedule);
    item.rebuilt = std::move(*rebuilt).value();
    item.executed = executed->value();
    item.execution = executionText(item.executed);
    item.cache = EvalCache::global().stats();
    item.seconds = span.stop();
    return item;
}

/** One row of the per-CNN-layer table, summed over the designs. */
struct LayerRow
{
    std::string network;
    std::string layer;
    double scheduleSeconds = 0.0;
    double simulateSeconds = 0.0;
    std::uint64_t events = 0;
};

} // namespace

WorkloadReport
runCompileWorkload(const RunOptions &options, Checks &checks,
                   Tracer &tracer)
{
    const unsigned lanes = rana::hardwareJobs();
    WorkloadReport report;
    report.lanes = lanes;

    // Set-up is cheap, so it is repeated until its median is steady.
    CompileInputs inputs;
    std::vector<double> setups;
    {
        Timed span(tracer, "setup");
        const Clock::time_point start = Clock::now();
        while (setups.size() < 5 ||
               (secondsSince(start) < 0.5 && setups.size() < 2000)) {
            // Only the first set-up's calls count as operations.
            Checks repeat;
            const Clock::time_point one = Clock::now();
            inputs = buildInputs(options.smallest, lanes,
                                 setups.empty() ? checks : repeat);
            setups.push_back(secondsSince(one));
        }
    }

    PassDigests digests(checks, options.injectFault);
    CallTimes compile_times;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t traced_events = 0;
    std::uint64_t refresh_ops = 0;
    double energy = 0.0;
    std::uint64_t violations = 0;
    std::uint64_t layers_per_pass = 0;
    std::map<std::string, LayerRow> layer_rows;
    std::vector<std::string> layer_order;
    struct Rebuilt
    {
        const DesignPoint *design;
        const NetworkModel *network;
        NetworkSchedule schedule;
    };
    std::vector<Rebuilt> rana_rebuilt;
    auto row_for = [&](const std::string &network,
                       const std::string &layer) -> LayerRow & {
        const std::string key = network + "/" + layer;
        auto [it, inserted] = layer_rows.try_emplace(key);
        if (inserted) {
            layer_order.push_back(key);
            it->second.network = network;
            it->second.layer = layer;
        }
        return it->second;
    };

    auto pass = [&](std::size_t index) {
        // The warm-up pass 0 and traced passes are not samples.
        const bool sample = index > 0 && !tracer.enabled();
        std::string schedules;
        std::string executions;
        std::uint64_t layers = 0;
        std::uint64_t pass_refresh = 0;
        double pass_energy = 0.0;
        std::uint64_t pass_violations = 0;
        for (const NetworkModel &network : inputs.networks) {
            for (const DesignPoint &design : inputs.designs) {
                CompileItem item =
                    compileOne(design, network, tracer, checks);
                schedules += item.schedule;
                executions += item.execution;
                if (!item.ok)
                    continue;
                layers += network.size();
                pass_refresh += item.executed.counts.refreshOps;
                pass_energy += item.executed.energy.total();
                pass_violations += item.executed.violations;
                if (sample)
                    compile_times.add(network.name() + " on " + design.name,
                                      item.seconds);
                if (tracer.enabled()) {
                    hits += item.cache.hits;
                    misses += item.cache.misses;
                    for (const LayerClockSink::Layer &layer :
                         item.simLayers) {
                        LayerRow &row = row_for(network.name(), layer.name);
                        row.simulateSeconds += layer.seconds;
                        row.events += layer.events;
                        traced_events += layer.events;
                    }
                }
                if (index == 0 && isRana(design))
                    rana_rebuilt.push_back(
                        {&design, &network, std::move(item.rebuilt)});
            }
        }
        layers_per_pass = layers;
        refresh_ops = pass_refresh;
        energy = pass_energy;
        violations = pass_violations;
        digests.add("compile.schedules", index, schedules);
        digests.add("compile.executions", index, executions);
    };

    // Traced replay: every layer searched on its own through the
    // public scheduleLayer, for the per-layer schedule table; the
    // replayed schedules must equal the passes' scheduleNetwork ones.
    auto post = [&]() {
        Timed replay(tracer, "sched.layer_replay");
        for (const NetworkModel &network : inputs.networks) {
            for (const DesignPoint &design : inputs.designs) {
                EvalCache::global().clear();
                Timed item(tracer, "item");
                NetworkSchedule schedule;
                schedule.networkName = network.name();
                schedule.refreshIntervalSeconds =
                    design.options.refreshIntervalSeconds;
                schedule.policy = design.options.policy;
                bool ok = true;
                for (std::size_t i = 0; i < network.size() && ok; ++i) {
                    Timed layer(tracer, "sched.layer");
                    Result<LayerSchedule> one = scheduleLayer(
                        design.config, network.layer(i), design.options);
                    row_for(network.name(), network.layer(i).name)
                        .scheduleSeconds += layer.stop();
                    ok = checks.ok("scheduleLayer " + network.name() +
                                       "/" + network.layer(i).name,
                                   one);
                    if (ok)
                        schedule.layers.push_back(std::move(one).value());
                }
                Result<NetworkSchedule> whole = scheduleNetwork(
                    design.config, network, design.options);
                if (ok && checks.ok("scheduleNetwork " + network.name(),
                                    whole)) {
                    checks.check("scheduleLayer replay equals "
                                 "scheduleNetwork for " +
                                     network.name() + " on " + design.name,
                                 scheduleText(schedule) ==
                                     scheduleText(whole.value()));
                }
            }
        }
    };

    const PassLog log =
        runPassSchedule(options, tracer, lanes, pass, post);
    report.threads = processThreads();
    report.passes = log;

    // Contract checks, outside the timed region.
    for (const NetworkModel &network : inputs.networks) {
        for (const DesignPoint &design : inputs.designs) {
            if (!isRanaStar(design))
                continue;
            std::string serial;
            std::string parallel;
            for (unsigned jobs : {1u, lanes}) {
                DesignPoint point = design;
                point.options.jobs = jobs;
                EvalCache::global().clear();
                Result<NetworkSchedule> schedule = scheduleNetwork(
                    point.config, network, point.options);
                if (checks.ok("scheduleNetwork jobs=" +
                                  std::to_string(jobs),
                              schedule))
                    (jobs == 1 ? serial : parallel) =
                        scheduleText(schedule.value());
            }
            checks.check("jobs=1 and jobs=" + std::to_string(lanes) +
                             " schedules of " + network.name() +
                             " are byte-identical",
                         !serial.empty() && serial == parallel);
        }
    }
    for (const Rebuilt &rebuilt : rana_rebuilt) {
        const std::string label =
            rebuilt.network->name() + " on " + rebuilt.design->name;
        Result<ExecutionResult> executed = executeScheduleChecked(
            *rebuilt.design, *rebuilt.network, rebuilt.schedule);
        if (checks.ok("execute round-tripped " + label, executed)) {
            checks.check("round-tripped " + label +
                             " has no retention violations",
                         executed.value().violations == 0,
                         std::to_string(executed.value().violations) +
                             " violations");
        }
    }

    const double setup_s = median(setups);
    const double pass_seconds = compile_times.sumOfMedians();
    const double throughput =
        pass_seconds > 0.0
            ? static_cast<double>(layers_per_pass) / pass_seconds
            : 0.0;
    const double p50 = compile_times.percentileOfMedians(50) * 1e3;
    const double p90 = compile_times.percentileOfMedians(90) * 1e3;
    report.endToEnd = {{"setup_s", setup_s, "s"},
                       {"throughput_per_s", throughput, "1/s"},
                       {"item_p50_ms", p50, "ms"},
                       {"item_p90_ms", p90, "ms"},
                       {"peak_rss_mb", peakRssMb(), "MB"}};
    report.named = {{"layers_per_s", throughput, "1/s"},
                    {"compile_p50_ms", p50, "ms"},
                    {"compile_p90_ms", p90, "ms"},
                    {"compiles_measured",
                     static_cast<double>(compile_times.samples()), "count"},
                    {"layer_schedules_per_pass",
                     static_cast<double>(layers_per_pass), "count"},
                    {"cpu_util", log.cpuUtil, "ratio"}};
    report.modelled = {{"energy_per_pass", energy, "J"},
                       {"refresh_ops_per_pass",
                        static_cast<double>(refresh_ops), "count"},
                       {"retention_violations_per_pass",
                        static_cast<double>(violations), "count"}};
    report.digests = digests.digests();

    if (options.trace) {
        const double passes = static_cast<double>(log.traced.size());
        auto &m = report.perLayer;
        commonPerLayer(log, tracer, m);
        m["sched.search_s"] = tracer.totalSeconds("sched.search") / passes;
        m["sched.rebuild_s"] =
            tracer.totalSeconds("sched.rebuild") / passes;
        m["sched.cache_hit_ratio"] =
            hits + misses > 0
                ? static_cast<double>(hits) /
                      static_cast<double>(hits + misses)
                : 0.0;
        std::vector<double> layer_ms = tracer.durations("sched.layer");
        for (double &value : layer_ms)
            value *= 1e3;
        m["sched.layer_p50_ms"] = percentile(layer_ms, 50);
        m["sched.layer_p90_ms"] = percentile(layer_ms, 90);
        const double execute = tracer.totalSeconds("sim.execute");
        m["sim.execute_s"] = execute / passes;
        m["sim.events"] = static_cast<double>(traced_events) / passes;
        m["sim.ns_per_event"] =
            traced_events > 0
                ? execute * 1e9 / static_cast<double>(traced_events)
                : 0.0;
        m["edram.refresh_ops"] = static_cast<double>(refresh_ops);
    }

    // Per (network, design) median compile latency of the untraced
    // passes; per CNN layer host times and events of the traced ones.
    std::vector<LayerRow> rows;
    for (const std::string &key : layer_order) {
        LayerRow row = layer_rows[key];
        row.simulateSeconds /= static_cast<double>(log.traced.size());
        row.events /= log.traced.size();
        rows.push_back(row);
    }
    report.tables = [compiles = compile_times.medians(),
                     rows](JsonWriter &json) {
        json.beginArray("compiles");
        for (const auto &[label, seconds] : compiles) {
            json.beginObject();
            json.field("compile", label);
            json.field("median_ms", seconds * 1e3);
            json.endObject();
        }
        json.endArray();
        json.beginArray("cnn_layers");
        for (const LayerRow &row : rows) {
            json.beginObject();
            json.field("network", row.network);
            json.field("layer", row.layer);
            json.field("schedule_ms_all_designs",
                       row.scheduleSeconds * 1e3);
            json.field("simulate_ms_all_designs",
                       row.simulateSeconds * 1e3);
            json.field("simulated_events_all_designs", row.events);
            json.endObject();
        }
        json.endArray();
    };
    return report;
}

} // namespace perfbench
