/**
 * @file
 * Scheduler scaling harness: wall-clock time of the parallel
 * scheduling engine vs. worker lanes, plus the effect of the
 * evaluation memoization cache.
 *
 * Schedules VGG-16 (the heaviest design-space search of the four
 * benchmark networks) on the eDRAM test accelerator with
 * jobs = 1, 2, 4, ..., hardware width, asserting along the way that
 * every parallel schedule is byte-identical to the serial one. The
 * speedup column is the headline number: on an N-core host the
 * search should scale to roughly N until candidate evaluation is no
 * longer the bottleneck.
 *
 * An ungated "execute" row times the trace simulation of one
 * compiled schedule (ResNet-50 on RANA(0)) at jobs = 1 and at the
 * hardware width, as a same-run ratio, and asserts that both runs
 * produce the identical ExecutionResult.
 *
 * --repeat overrides the per-point repetition count (default 3,
 * best-of is reported).
 */

#include "harness.hh"

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "rana.hh"
#include "util/json_writer.hh"

namespace {

using namespace rana;

/** Best-of-N wall-clock seconds of one scheduleNetwork call. */
double
timeSchedule(const AcceleratorConfig &config, const NetworkModel &net,
             const SchedulerOptions &options, std::uint32_t repeat)
{
    double best = 1e300;
    for (std::uint32_t i = 0; i < repeat; ++i) {
        const auto start = std::chrono::steady_clock::now();
        const NetworkSchedule schedule =
            scheduleNetwork(config, net, options).valueOrDie();
        const auto stop = std::chrono::steady_clock::now();
        best = std::min(
            best,
            std::chrono::duration<double>(stop - start).count());
        if (schedule.layers.size() != net.size())
            fatal("scheduler dropped layers");
    }
    return best;
}

/** Best-of-N wall-clock seconds of one executeScheduleChecked call. */
double
timeExecute(const DesignPoint &design, const NetworkModel &net,
            const NetworkSchedule &schedule, std::uint32_t repeat,
            ExecutionResult &result)
{
    double best = 1e300;
    for (std::uint32_t i = 0; i < repeat; ++i) {
        const auto start = std::chrono::steady_clock::now();
        result =
            executeScheduleChecked(design, net, schedule).valueOrDie();
        const auto stop = std::chrono::steady_clock::now();
        best = std::min(
            best,
            std::chrono::duration<double>(stop - start).count());
    }
    return best;
}

/** Every field equal, doubles compared exactly. */
bool
sameExecution(const ExecutionResult &a, const ExecutionResult &b)
{
    return a.counts.macOps == b.counts.macOps &&
           a.counts.bufferAccesses == b.counts.bufferAccesses &&
           a.counts.refreshOps == b.counts.refreshOps &&
           a.counts.ddrAccesses == b.counts.ddrAccesses &&
           a.energy.computing == b.energy.computing &&
           a.energy.bufferAccess == b.energy.bufferAccess &&
           a.energy.refresh == b.energy.refresh &&
           a.energy.offChipAccess == b.energy.offChipAccess &&
           a.seconds == b.seconds && a.violations == b.violations &&
           a.guardTrips == b.guardTrips;
}

std::string
seconds(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3fs", value);
    return buf;
}

std::string
times(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2fx", value);
    return buf;
}

void
runSchedScaling(rana::bench::BenchContext &ctx)
{
    using namespace rana::bench;

    const AcceleratorConfig config = testAcceleratorEdram();
    const NetworkModel net = makeVgg16();
    const std::uint32_t repeat = ctx.repeat > 0 ? ctx.repeat : 3;

    std::vector<unsigned> lanes = {1, 2, 4};
    const unsigned hw = hardwareJobs();
    if (std::find(lanes.begin(), lanes.end(), hw) == lanes.end() &&
        hw > 4)
        lanes.push_back(hw);

    const SchedulerOptions serial_options =
        SchedulerOptionsBuilder().jobs(1).memoize(false).build();
    const std::string serial_bytes = writeConfigString(toConfigRecord(
        scheduleNetwork(config, net, serial_options).valueOrDie()));

    std::cout << "host: " << hw << " hardware thread(s); "
              << net.name() << ", " << net.size()
              << " layers; best of " << repeat << "\n\n";

    TextTable table("scheduleNetwork wall-clock vs. jobs");
    table.header({"jobs", "wall-clock", "speedup", "identical"});
    JsonWriter &json = *ctx.json;
    json.field("bench", "sched_scaling");
    json.field("network", net.name());
    json.field("hardware_jobs", static_cast<std::uint64_t>(hw));
    json.field("repeat", static_cast<std::uint64_t>(repeat));
    json.beginArray("points");
    double serial_seconds = 0.0;
    double best_speedup = 0.0;
    for (unsigned jobs : lanes) {
        const SchedulerOptions options = SchedulerOptionsBuilder()
                                             .jobs(jobs)
                                             .memoize(false)
                                             .build();
        const double best = timeSchedule(config, net, options, repeat);
        if (jobs == 1)
            serial_seconds = best;
        best_speedup = std::max(best_speedup, serial_seconds / best);
        const std::string bytes = writeConfigString(toConfigRecord(
            scheduleNetwork(config, net, options).valueOrDie()));
        table.row({std::to_string(jobs), seconds(best),
                   times(serial_seconds / best),
                   bytes == serial_bytes ? "yes" : "NO"});
        json.beginObject();
        json.field("jobs", static_cast<std::uint64_t>(jobs));
        json.field("seconds", best);
        json.field("speedup", serial_seconds / best);
        json.field("identical", bytes == serial_bytes);
        json.endObject();
        if (bytes != serial_bytes)
            fatal("jobs=", jobs,
                  " schedule differs from the serial schedule");
    }
    json.endArray();
    table.print(std::cout);

    // The memoization cache: a second compile of the same design
    // point replays the per-layer search results.
    EvalCache::global().clear();
    const SchedulerOptions cached_options =
        SchedulerOptionsBuilder().jobs(hw).memoize(true).build();
    const double cold =
        timeSchedule(config, net, cached_options, 1);
    const double warm =
        timeSchedule(config, net, cached_options, 1);
    const EvalCache::Stats stats = EvalCache::global().stats();

    std::cout << "\nEvaluation cache (jobs=" << hw << "):\n"
              << "  cold compile: " << seconds(cold) << "\n"
              << "  warm compile: " << seconds(warm) << " ("
              << times(cold / std::max(warm, 1e-9)) << ")\n"
              << "  " << stats.hits << " hits / " << stats.misses
              << " misses, " << stats.entries << " entries\n";

    json.beginObject("cache");
    json.field("cold_seconds", cold);
    json.field("warm_seconds", warm);
    json.field("hits", stats.hits);
    json.field("misses", stats.misses);
    json.field("entries", static_cast<std::uint64_t>(stats.entries));
    json.endObject();

    // The trace simulation fans the schedule's layers across the
    // same lanes; one layer per simulator, so the result must not
    // depend on the lane count.
    DesignPoint design = makeDesignPoint(
        DesignKind::Rana0, RetentionDistribution::typical65nm());
    design.options.jobs = hw;
    const NetworkModel resnet = makeResNet50();
    const NetworkSchedule schedule =
        scheduleNetwork(design.config, resnet, design.options).valueOrDie();
    ExecutionResult serial_result;
    ExecutionResult parallel_result;
    design.options.jobs = 1;
    const double execute_serial =
        timeExecute(design, resnet, schedule, repeat, serial_result);
    design.options.jobs = hw;
    const double execute_parallel =
        timeExecute(design, resnet, schedule, repeat, parallel_result);
    const bool execute_identical =
        sameExecution(serial_result, parallel_result);
    const double execute_speedup =
        execute_serial / std::max(execute_parallel, 1e-9);

    std::cout << "\nexecuteScheduleChecked (" << resnet.name() << " on "
              << design.name << ", " << resnet.size() << " layers):\n"
              << "  jobs=1: " << seconds(execute_serial) << "\n"
              << "  jobs=" << hw << ": " << seconds(execute_parallel)
              << " (" << times(execute_speedup) << ")\n"
              << "  identical: " << (execute_identical ? "yes" : "NO")
              << "\n";

    json.beginObject("execute");
    json.field("network", resnet.name());
    json.field("design", design.name);
    json.field("jobs", static_cast<std::uint64_t>(hw));
    json.field("serial_seconds", execute_serial);
    json.field("parallel_seconds", execute_parallel);
    json.field("speedup", execute_speedup);
    json.field("identical", execute_identical);
    json.endObject();
    if (!execute_identical)
        fatal("jobs=", hw, " execution differs from the serial one");

    ctx.perf("serial_seconds", serial_seconds, "s");
    ctx.perf("parallel_speedup", best_speedup, "x");
    ctx.perf("cache_warm_speedup", cold / std::max(warm, 1e-9), "x");
    ctx.perf("execute_speedup", execute_speedup, "x");
}

} // namespace

RANA_BENCH("sched_scaling",
           "Scheduler scaling - parallel engine vs. worker lanes",
           runSchedScaling);
