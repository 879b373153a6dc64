/**
 * @file
 * Benchmark-harness registry behind the unified `rana_bench` driver.
 *
 * Each paper table/figure reproduction registers itself as a named
 * BenchHarness (name, setup, run, perf-template emitter) instead of
 * compiling to its own main(). One driver binary selects harnesses
 * with --match=<regex>, runs them in --mode=correctness or
 * --mode=perf, and writes one unified BENCH_<harness>.json artifact
 * per harness (harness name, mode, the harness's legacy fields, a
 * "samples" array of perf measurements and the metrics-registry
 * snapshot).
 *
 * The shared perf-template line format (one line per sample, emitted
 * in perf mode) is:
 *
 *   RANA_BENCH_PERF harness=<name> metric=<metric> value=<v> unit=<u>
 *
 * This header also carries the shared helpers that used to live in
 * bench_common.hh (paper-unit formatting, the benchmark networks and
 * the shared retention distribution).
 */

#ifndef RANA_BENCH_HARNESS_HH_
#define RANA_BENCH_HARNESS_HH_

#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "core/design_point.hh"
#include "core/experiments.hh"
#include "nn/model_zoo.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/units.hh"

namespace rana {

class JsonWriter;

namespace cli {
struct CommonOptions;
}

namespace bench {

/** How a harness run is driven and reported. */
enum class BenchMode {
    /** Validate outputs; perf samples recorded but not printed. */
    Correctness,
    /** Also emit the shared perf-template lines for every sample. */
    Perf,
};

/** One perf measurement recorded by a harness run. */
struct PerfSample
{
    std::string metric;
    double value = 0.0;
    std::string unit;
};

/**
 * Per-run state handed to a harness: the selected mode, the shared
 * command-line options, the driver-owned JSON artifact (an open
 * top-level object the harness adds its fields to) and the perf
 * sample accumulator.
 */
class BenchContext
{
  public:
    BenchMode mode = BenchMode::Correctness;
    /** Shared guard/metrics/trace flags (never null in the driver). */
    const cli::CommonOptions *options = nullptr;
    /** Open top-level artifact object (never null in the driver). */
    JsonWriter *json = nullptr;
    /** --trials override; 0 keeps the harness default. */
    std::uint32_t trials = 0;
    /** --repeat override; 0 keeps the harness default. */
    std::uint32_t repeat = 0;
    /** --fast: low-fidelity run where the harness supports one. */
    bool fast = false;

    bool perfMode() const { return mode == BenchMode::Perf; }

    /** Record one perf sample (printed later by the emitter). */
    void perf(const std::string &metric, double value,
              const std::string &unit);

    const std::vector<PerfSample> &samples() const { return samples_; }

  private:
    std::vector<PerfSample> samples_;
};

/** One registered benchmark harness. */
struct BenchHarness
{
    /** Registry key, e.g. "table1_storage" (--match=<name>). */
    std::string name;
    /** One-line description; the driver prints it as the banner. */
    std::string description;
    /** Optional pre-run hook (cache warmup, dataset preparation). */
    std::function<void(BenchContext &)> setup;
    /** The harness body; validation failures call fatal(). */
    std::function<void(BenchContext &)> run;
    /**
     * Perf-template emitter: prints the shared template line for
     * every recorded sample (and may derive extra samples first).
     * Null selects emitPerfTemplate().
     */
    std::function<void(BenchContext &)> emitPerf;
};

/** Default emitter: one shared template line per recorded sample. */
void emitPerfTemplate(const BenchHarness &harness, BenchContext &ctx);

/** Register a harness (called from static initializers). */
void registerBench(BenchHarness harness);

/** All registered harnesses, sorted by name. */
std::vector<BenchHarness> benchRegistry();

/** Look up one harness by exact name (null when absent). */
const BenchHarness *findBench(const std::string &name);

/**
 * Registry names matching an ECMAScript regex (unanchored search,
 * like grep). An invalid pattern returns an empty list and sets
 * `error`.
 */
std::vector<std::string> matchBenches(const std::string &pattern,
                                      std::string *error);

/** Static-initializer hook behind RANA_BENCH(). */
struct BenchRegistration
{
    explicit BenchRegistration(BenchHarness harness);
};

/**
 * Register a harness: RANA_BENCH(name, description, runFn). The run
 * function has signature void(BenchContext &).
 */
#define RANA_BENCH(name, description, fn)                             \
    static const ::rana::bench::BenchRegistration                     \
        rana_bench_registration_##fn                                  \
    {                                                                 \
        ::rana::bench::BenchHarness                                   \
        {                                                             \
            name, description, nullptr, fn, nullptr                   \
        }                                                             \
    }

/** The rana_bench driver entry point. */
int benchMain(int argc, char **argv);

// ---------------------------------------------------------------
// Shared helpers (formerly bench_common.hh).
// ---------------------------------------------------------------

/** Format a words count in the paper's "MB" (bytes / 1,024,000). */
inline std::string
paperMb(std::uint64_t words)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2fMB",
                  static_cast<double>(wordsToBytes(words)) / 1024000.0);
    return buf;
}

/** Format a ratio with three decimals. */
inline std::string
ratio(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", value);
    return buf;
}

/** Print a standard header naming the reproduced artifact. */
inline void
banner(const std::string &what)
{
    std::cout << "==================================================\n"
              << "RANA reproduction: " << what << "\n"
              << "==================================================\n\n";
}

/** The four benchmark networks in paper order. */
inline const std::vector<NetworkModel> &
networks()
{
    static const std::vector<NetworkModel> nets = makeBenchmarkSuite();
    return nets;
}

/** The shared retention distribution. */
inline const RetentionDistribution &
retention()
{
    static const RetentionDistribution dist =
        RetentionDistribution::typical65nm();
    return dist;
}

} // namespace bench
} // namespace rana

#endif // RANA_BENCH_HARNESS_HH_
