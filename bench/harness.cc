/**
 * @file
 * Registry and driver loop behind the unified rana_bench binary.
 */

#include "harness.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <regex>

#include "../tools/cli_options.hh"
#include "obs/metrics_registry.hh"
#include "util/json_writer.hh"
#include "util/logging.hh"

namespace rana {
namespace bench {

namespace {

/** Registration-order store; lookups sort on demand. */
std::vector<BenchHarness> &
registry()
{
    static std::vector<BenchHarness> harnesses;
    return harnesses;
}

void
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0
        << " [--list] [--match=REGEX] [--mode=correctness|perf]\n"
        << "       [--trials=N] [--repeat=N] [--fast] "
        << cli::commonOptionsUsage() << "\n\n"
        << "Runs the registered benchmark harnesses (all by default)\n"
        << "and writes one BENCH_<harness>.json artifact per run.\n";
}

} // namespace

void
BenchContext::perf(const std::string &metric, double value,
                   const std::string &unit)
{
    samples_.push_back({metric, value, unit});
}

void
emitPerfTemplate(const BenchHarness &harness, BenchContext &ctx)
{
    for (const PerfSample &sample : ctx.samples()) {
        std::printf(
            "RANA_BENCH_PERF harness=%s metric=%s value=%.9g "
            "unit=%s\n",
            harness.name.c_str(), sample.metric.c_str(), sample.value,
            sample.unit.c_str());
    }
}

void
registerBench(BenchHarness harness)
{
    RANA_ASSERT(!harness.name.empty(), "harness name must be set");
    RANA_ASSERT(harness.run != nullptr, "harness run must be set");
    RANA_ASSERT(findBench(harness.name) == nullptr,
                "duplicate harness registration");
    registry().push_back(std::move(harness));
}

std::vector<BenchHarness>
benchRegistry()
{
    std::vector<BenchHarness> sorted = registry();
    std::sort(sorted.begin(), sorted.end(),
              [](const BenchHarness &a, const BenchHarness &b) {
                  return a.name < b.name;
              });
    return sorted;
}

const BenchHarness *
findBench(const std::string &name)
{
    for (const BenchHarness &harness : registry()) {
        if (harness.name == name)
            return &harness;
    }
    return nullptr;
}

std::vector<std::string>
matchBenches(const std::string &pattern, std::string *error)
{
    std::vector<std::string> names;
    std::regex re;
    try {
        re = std::regex(pattern, std::regex::ECMAScript);
    } catch (const std::regex_error &bad) {
        if (error != nullptr)
            *error = bad.what();
        return names;
    }
    for (const BenchHarness &harness : benchRegistry()) {
        if (std::regex_search(harness.name, re))
            names.push_back(harness.name);
    }
    return names;
}

BenchRegistration::BenchRegistration(BenchHarness harness)
{
    registerBench(std::move(harness));
}

int
benchMain(int argc, char **argv)
{
    BenchMode mode = BenchMode::Correctness;
    std::string match;
    bool list = false;
    cli::CommonOptions options;
    std::uint32_t trials = 0;
    std::uint32_t repeat = 0;
    bool fast = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const Result<bool> common =
            cli::consumeCommonOption(argc, argv, i, options);
        if (!common.ok())
            return cli::fail("rana_bench", common.error());
        if (common.value())
            continue;
        if (arg == "--list") {
            list = true;
        } else if (arg.rfind("--match=", 0) == 0) {
            match = arg.substr(8);
        } else if (arg.rfind("--mode=", 0) == 0) {
            const std::string value = arg.substr(7);
            if (value == "correctness") {
                mode = BenchMode::Correctness;
            } else if (value == "perf") {
                mode = BenchMode::Perf;
            } else {
                std::cerr << "rana_bench: unknown mode '" << value
                          << "' (use correctness or perf)\n";
                return 1;
            }
        } else if (arg.rfind("--trials=", 0) == 0) {
            const Result<std::uint32_t> count =
                cli::parseCount<std::uint32_t>("--trials", arg.substr(9));
            if (!count.ok())
                return cli::fail("rana_bench", count.error());
            trials = count.value();
        } else if (arg.rfind("--repeat=", 0) == 0) {
            const Result<std::uint32_t> count =
                cli::parseCount<std::uint32_t>("--repeat", arg.substr(9));
            if (!count.ok())
                return cli::fail("rana_bench", count.error());
            repeat = count.value();
        } else if (arg == "--fast") {
            fast = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::cerr << "rana_bench: unknown argument '" << arg
                      << "'\n";
            usage(argv[0]);
            return 1;
        }
    }

    if (list) {
        const std::vector<BenchHarness> all = benchRegistry();
        for (const BenchHarness &harness : all) {
            std::printf("%-22s %s\n", harness.name.c_str(),
                        harness.description.c_str());
        }
        std::printf("%zu harnesses\n", all.size());
        return 0;
    }

    std::vector<std::string> selected;
    if (match.empty()) {
        for (const BenchHarness &harness : benchRegistry())
            selected.push_back(harness.name);
    } else {
        std::string error;
        selected = matchBenches(match, &error);
        if (!error.empty()) {
            std::cerr << "rana_bench: bad --match regex: " << error
                      << "\n";
            return 1;
        }
        if (selected.empty()) {
            std::cerr << "rana_bench: --match='" << match
                      << "' selects no harness; available:\n";
            for (const BenchHarness &harness : benchRegistry())
                std::cerr << "  " << harness.name << "\n";
            return 1;
        }
    }

    for (const std::string &name : selected) {
        const BenchHarness *harness = findBench(name);
        banner(harness->description);

        JsonWriter json;
        json.beginObject();
        json.field("harness", harness->name);
        json.field("mode", mode == BenchMode::Perf ? "perf"
                                                   : "correctness");

        BenchContext ctx;
        ctx.mode = mode;
        ctx.options = &options;
        ctx.json = &json;
        ctx.trials = trials;
        ctx.repeat = repeat;
        ctx.fast = fast;

        if (harness->setup)
            harness->setup(ctx);
        const auto start = std::chrono::steady_clock::now();
        harness->run(ctx);
        const double wall = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() -
                                start)
                                .count();
        ctx.perf("wall_seconds", wall, "s");
        if (ctx.perfMode()) {
            if (harness->emitPerf)
                harness->emitPerf(ctx);
            else
                emitPerfTemplate(*harness, ctx);
        }

        json.beginArray("samples");
        for (const PerfSample &sample : ctx.samples()) {
            json.beginObject();
            json.field("metric", sample.metric);
            json.field("value", sample.value);
            json.field("unit", sample.unit);
            json.endObject();
        }
        json.endArray();
        writeMetricsObject(json, "metrics",
                           MetricsRegistry::global());
        json.endObject();

        const std::string artifact = json.str();
        const std::string path = "BENCH_" + harness->name + ".json";
        std::ofstream out(path);
        out << artifact;
        out.close();
        std::cout << "\nwrote " << path << " (" << artifact.size()
                  << " bytes)\n\n";
    }

    if (options.wantsObservability()) {
        const Result<int> written = cli::writeObservability(options);
        if (!written.ok())
            return cli::fail("rana_bench", written.error());
    }
    return 0;
}

} // namespace bench
} // namespace rana
