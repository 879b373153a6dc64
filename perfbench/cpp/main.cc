/**
 * @file
 * perfbench — the repository benchmark program.
 *
 *   perfbench --workload compile|campaign|serve --seed N --seconds S
 *             --trace 0|1 [--result PATH] [--source-id ID]
 *             [--git-commit SHA] [--smallest] [--inject-fault]
 *
 * Runs one workload in this process, on at most one thread per
 * hardware thread, checks its outputs and prints every metric by
 * name with its unit. The last line of standard output is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}, where the
 * metrics are the end-to-end ones (--trace 0) or the per-layer ones
 * (--trace 1). The full result, with provenance, the modelled-output
 * digests, the self-time table and the per-layer tables, goes to
 * --result. --smallest and --inject-fault exist for the benchmark's
 * own tests (perfbench/tests).
 *
 * Exit codes: 0 the run completed (correct or not, as its JSON
 * says), 2 bad usage.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "build_info.hh"
#include "common.hh"
#include "util/thread_pool.hh"

namespace {

using namespace perfbench;

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** The contract's end-to-end metrics (BENCHMARK.json end_to_end). */
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"item_p50_ms", "ms"},
    {"item_p90_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

/**
 * The contract's per-layer metrics (BENCHMARK.json per_layer). A
 * workload that never calls a layer reports 0 for it.
 */
const MetricSpec kPerLayer[] = {
    {"sched.search_s", "s"},
    {"sched.layer_p50_ms", "ms"},
    {"sched.layer_p90_ms", "ms"},
    {"sched.rebuild_s", "s"},
    {"sched.cache_hit_ratio", "ratio"},
    {"sim.execute_s", "s"},
    {"sim.ns_per_event", "ns"},
    {"sim.events", "count"},
    {"edram.refresh_ops", "count"},
    {"train.pretrain_s", "s"},
    {"train.retrain_s", "s"},
    {"train.conv_l16_gmacs", "GMAC/s"},
    {"train.dense_l16_gmacs", "GMAC/s"},
    {"train.pool_l16_gbs", "GB/s"},
    {"train.conv_l8_gmacs", "GMAC/s"},
    {"train.conv_l1_gmacs", "GMAC/s"},
    {"train.conv_scalar_gmacs", "GMAC/s"},
    {"robust.simulate_exposures_s", "s"},
    {"robust.trials_s", "s"},
    {"robust.trials_per_s", "1/s"},
    {"robust.copy_on_corrupt_ratio", "ratio"},
    {"serving.run_s", "s"},
    {"serving.control_plane_s", "s"},
    {"serving.mean_batch_lanes", "lanes"},
    {"serving.shed_ratio", "ratio"},
    {"pool.cpu_util", "ratio"},
    {"obs.trace_overhead", "ratio"},
    {"obs.span_coverage", "ratio"},
};

int
usage(const std::string &message)
{
    std::cerr << "perfbench: " << message
              << "\nusage: perfbench --workload compile|campaign|serve "
                 "--seed N --seconds S --trace 0|1 [--result PATH] "
                 "[--source-id ID] [--git-commit SHA] [--smallest] "
                 "[--inject-fault]\n";
    return 2;
}

bool
parseNumber(const std::string &text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return end != text.c_str() && *end == '\0' && std::isfinite(out);
}

/** JSON string literal (the names and units here need no escapes). */
std::string
quoted(const std::string &text)
{
    return "\"" + text + "\"";
}

void
writeMetricList(rana::JsonWriter &json, const std::string &key,
                const std::vector<Metric> &metrics)
{
    json.beginObject(key);
    for (const Metric &metric : metrics) {
        json.beginObject(metric.name);
        json.field("value", metric.value);
        json.field("unit", metric.unit);
        json.endObject();
    }
    json.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions options;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](std::string &out) {
            if (i + 1 >= argc)
                return false;
            out = argv[++i];
            return true;
        };
        std::string text;
        double number = 0.0;
        if (arg == "--smallest") {
            options.smallest = true;
        } else if (arg == "--inject-fault") {
            options.injectFault = true;
        } else if (!value(text)) {
            return usage("missing value after " + arg);
        } else if (arg == "--workload") {
            options.workload = text;
        } else if (arg == "--seed") {
            if (!parseNumber(text, number) || number < 0 ||
                number != std::floor(number))
                return usage("--seed expects a whole number");
            options.seed = static_cast<std::uint64_t>(number);
            have_seed = true;
        } else if (arg == "--seconds") {
            if (!parseNumber(text, number) || number <= 0 || number > 120)
                return usage("--seconds expects a number in (0, 120]");
            options.seconds = number;
            have_seconds = true;
        } else if (arg == "--trace") {
            if (text != "0" && text != "1")
                return usage("--trace expects 0 or 1");
            options.trace = text == "1";
            have_trace = true;
        } else if (arg == "--result") {
            options.resultPath = text;
        } else if (arg == "--source-id") {
            options.sourceId = text;
        } else if (arg == "--git-commit") {
            options.gitCommit = text;
        } else {
            return usage("unknown option " + arg);
        }
    }
    if (!have_seed || !have_seconds || !have_trace)
        return usage("--seed, --seconds and --trace are required");

    Checks checks;
    Tracer tracer(options.trace);
    WorkloadReport report;
    if (options.workload == "compile")
        report = runCompileWorkload(options, checks, tracer);
    else if (options.workload == "campaign")
        report = runCampaignWorkload(options, checks, tracer);
    else if (options.workload == "serve")
        report = runServeWorkload(options, checks, tracer);
    else
        return usage("unknown workload '" + options.workload + "'");

    // The contract's metric set, in BENCHMARK.json order.
    std::vector<Metric> metrics;
    if (options.trace) {
        for (const MetricSpec &spec : kPerLayer) {
            const auto it = report.perLayer.find(spec.name);
            metrics.push_back({spec.name,
                               it == report.perLayer.end() ? 0.0
                                                           : it->second,
                               spec.unit});
        }
    } else {
        for (const MetricSpec &spec : kEndToEnd) {
            double value = 0.0;
            for (const Metric &metric : report.endToEnd) {
                if (metric.name == spec.name)
                    value = metric.value;
            }
            metrics.push_back({spec.name, value, spec.unit});
        }
    }
    for (const Metric &metric : metrics) {
        checks.check("metric " + metric.name + " is a finite number",
                     std::isfinite(metric.value));
        if (!options.trace) {
            checks.check("end-to-end metric " + metric.name +
                             " is positive",
                         metric.value > 0.0);
        }
    }
    const bool correct = checks.failed() == 0;
    const bool avx2 = __builtin_cpu_supports("avx2");
    const bool avx512f = __builtin_cpu_supports("avx512f");
    const std::vector<Tracer::Row> self_times = tracer.selfTimes();

    // Human-readable report.
    std::cout << "perfbench " << options.workload
              << " seed=" << options.seed
              << " seconds=" << options.seconds
              << " trace=" << (options.trace ? 1 : 0)
              << " lanes=" << report.lanes << " nproc=" << rana::hardwareJobs()
              << " threads=" << report.threads << "\n"
              << "build: " << PERFBENCH_COMPILER << ", "
              << PERFBENCH_BUILD_TYPE << ", " << PERFBENCH_CXX_FLAGS
              << "; isa avx2=" << avx2 << " avx512f=" << avx512f << "\n";
    for (const Metric &metric : metrics)
        std::cout << "metric " << metric.name << " = "
                  << exact(metric.value) << " " << metric.unit << "\n";
    for (const Metric &metric : report.named)
        std::cout << "named " << metric.name << " = "
                  << exact(metric.value) << " " << metric.unit << "\n";
    for (const Metric &metric : report.modelled)
        std::cout << "modelled " << metric.name << " = "
                  << exact(metric.value) << " " << metric.unit
                  << " (not a performance metric)\n";
    for (const auto &[label, hex] : report.digests)
        std::cout << "digest " << label << " = " << hex << "\n";
    for (const Tracer::Row &row : self_times) {
        char line[256];
        std::snprintf(line, sizeof(line),
                      "span %-56s n=%-6llu total=%10.4fs self=%10.4fs",
                      row.path.c_str(),
                      static_cast<unsigned long long>(row.count),
                      row.totalSeconds, row.selfSeconds);
        std::cout << line << "\n";
    }
    for (const std::string &failure : checks.failures())
        std::cout << "FAILED " << failure << "\n";
    std::cout << "ops attempted=" << checks.attempted()
              << " failed=" << checks.failed() << "\n";

    if (!options.resultPath.empty()) {
        rana::JsonWriter json;
        json.beginObject();
        json.field("schema", "perfbench-result-1");
        json.field("workload", options.workload);
        json.field("seed", options.seed);
        json.field("seconds", options.seconds);
        json.field("trace", options.trace);
        json.field("smallest", options.smallest);
        json.beginObject("provenance");
        json.field("git_commit", options.gitCommit);
        json.field("source_id", options.sourceId);
        json.field("compiler", PERFBENCH_COMPILER);
        json.field("cxx_flags", PERFBENCH_CXX_FLAGS);
        json.field("build_type", PERFBENCH_BUILD_TYPE);
        json.field("isa_avx2", avx2);
        json.field("isa_avx512f", avx512f);
        json.field("nproc", static_cast<std::uint64_t>(rana::hardwareJobs()));
        json.field("lanes", static_cast<std::uint64_t>(report.lanes));
        json.field("threads",
                   static_cast<std::uint64_t>(report.threads));
        json.endObject();
        json.field("correct", correct);
        json.field("attempted", checks.attempted());
        json.field("failed", checks.failed());
        json.beginArray("failures");
        for (const std::string &failure : checks.failures()) {
            json.beginObject();
            json.field("check", failure);
            json.endObject();
        }
        json.endArray();
        json.beginArray("untraced_pass_seconds");
        for (double seconds : report.passes.untraced)
            json.element(seconds);
        json.endArray();
        json.beginArray("traced_pass_seconds");
        for (double seconds : report.passes.traced)
            json.element(seconds);
        json.endArray();
        writeMetricList(json, "metrics", metrics);
        writeMetricList(json, "named", report.named);
        writeMetricList(json, "modelled", report.modelled);
        json.beginObject("digests");
        for (const auto &[label, hex] : report.digests)
            json.field(label, hex);
        json.endObject();
        json.beginArray("self_times");
        for (const Tracer::Row &row : self_times) {
            json.beginObject();
            json.field("span", row.path);
            json.field("count", row.count);
            json.field("total_s", row.totalSeconds);
            json.field("self_s", row.selfSeconds);
            json.endObject();
        }
        json.endArray();
        if (report.tables)
            report.tables(json);
        json.endObject();
        std::ofstream out(options.resultPath);
        out << json.str() << "\n";
        if (!out)
            std::cerr << "perfbench: cannot write " << options.resultPath
                      << "\n";
    }

    // The contract line, last on stdout.
    std::string line = "{\"correct\": " +
                       std::string(correct ? "true" : "false") +
                       ", \"attempted\": " +
                       std::to_string(checks.attempted()) +
                       ", \"failed\": " + std::to_string(checks.failed()) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double value =
            std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        line += (i > 0 ? ", " : "") + quoted(metrics[i].name) +
                ": {\"value\": " + exact(value) +
                ", \"unit\": " + quoted(metrics[i].unit) + "}";
    }
    line += "}}";
    std::cout << line << std::endl;
    return 0;
}
