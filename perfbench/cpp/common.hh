/**
 * @file
 * Shared plumbing of the benchmark program: run options, operation
 * accounting, the in-memory span tracer, pass repetition, modelled-
 * output digests and host measurements (CPU time, peak RSS).
 *
 * Everything here is the benchmark's own code. It times the calls the
 * workloads make into the library's public functions; it never
 * reaches into the library's internals.
 */

#ifndef PERFBENCH_COMMON_HH_
#define PERFBENCH_COMMON_HH_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/json_writer.hh"
#include "util/result.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Wall seconds elapsed since `start`. */
double secondsSince(Clock::time_point start);

/** Settings of one run, from the command line. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Measured time of the run's passes. */
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Smallest inputs, for the benchmark's own tests. */
    bool smallest = false;
    /** Corrupt the second pass's modelled output (own tests). */
    bool injectFault = false;
    /** Where the full result file goes ("" = none). */
    std::string resultPath;
    /** Content hash of the sources the program was built from. */
    std::string sourceId;
    /** Git commit of the checkout, when it is a git checkout. */
    std::string gitCommit;
};

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Operations attempted and failed. An operation is one public call
 * whose Result is checked, or one correctness check; the first few
 * failure messages are kept for the report.
 */
class Checks
{
  public:
    /** Count one operation; returns `ok`. */
    bool check(const std::string &what, bool ok,
               const std::string &detail = std::string());

    /** Count one call by its Result. */
    template <typename T>
    bool ok(const std::string &what, const rana::Result<T> &result)
    {
        return check(what, result.ok(),
                     result.ok() ? std::string()
                                 : result.error().message);
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string> &failures() const
    {
        return failures_;
    }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

/**
 * In-memory span recorder of the traced run. Spans nest by call
 * order on the main thread (workload > pass > item > phase); they
 * are kept in a vector and summarised when the run ends. When
 * disabled it records nothing, so untraced runs pay only the clock
 * reads their own metrics need.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Start or stop recording (a traced run's untraced passes). */
    void setEnabled(bool enabled) { enabled_ = enabled; }

    /** Open a span under the innermost open one; -1 if disabled. */
    int open(const std::string &name);

    /** Close span `id` (a no-op for -1). */
    void close(int id);

    /** Self time of every span name path, summed over its spans. */
    struct Row
    {
        std::string path;
        std::uint64_t count = 0;
        double totalSeconds = 0.0;
        double selfSeconds = 0.0;
    };
    std::vector<Row> selfTimes() const;

    /** Summed duration of every span called `name`. */
    double totalSeconds(const std::string &name) const;

    /** Durations of every span called `name`, in record order. */
    std::vector<double> durations(const std::string &name) const;

    /**
     * Share of the root spans called `root` covered by their child
     * spans: 1 - root self time / root wall time.
     */
    double coverage(const std::string &root) const;

  private:
    struct Span
    {
        std::string name;
        int parent = -1;
        Clock::time_point start;
        Clock::time_point end;
    };

    std::string pathOf(int id) const;

    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/**
 * Times one call boundary. Always measures wall time (the untraced
 * metrics need it); records a span only when the tracer is enabled.
 */
class Timed
{
  public:
    Timed(Tracer &tracer, const std::string &name);
    ~Timed();
    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

    /** End the span now; returns its wall seconds. */
    double stop();

  private:
    Tracer &tracer_;
    int id_;
    Clock::time_point start_;
    double seconds_ = -1.0;
};

/**
 * Modelled-output digests across passes. Every pass hands in the
 * canonical text of what it modelled; the digest of each later pass
 * must equal the warm-up pass's, else the pass counts as a failed
 * operation. Values are compared, never scored.
 */
class PassDigests
{
  public:
    PassDigests(Checks &checks, bool inject_fault)
        : checks_(checks), injectFault_(inject_fault)
    {
    }

    /** Digest `text` as pass `pass` of output `label`. */
    void add(const std::string &label, std::size_t pass,
             std::string text);

    /** Warm-up pass digest (hex) per label, in first-use order. */
    const std::vector<std::pair<std::string, std::string>> &
    digests() const
    {
        return digests_;
    }

  private:
    Checks &checks_;
    bool injectFault_;
    std::vector<std::pair<std::string, std::string>> digests_;
};

/** %.17g: a double with all its digits. */
std::string exact(double value);

/** Per-pass callback; receives the pass index. */
using PassFn = std::function<void(std::size_t)>;

/** Wall seconds of a run's passes and the CPU use over them. */
struct PassLog
{
    /** Untraced passes: the measured ones (a traced run's baseline). */
    std::vector<double> untraced;
    /** Traced passes (traced runs only). */
    std::vector<double> traced;
    /**
     * Process CPU seconds / (pass wall seconds x lanes) over the
     * untraced passes, or over the traced ones in a traced run.
     */
    double cpuUtil = 0.0;
};

/**
 * The pass schedule shared by every workload. Pass 0 is an untimed,
 * untraced warm-up (first-use allocations, the thread pool, cold
 * caches); its modelled outputs are the reference the later passes
 * must match. Untraced run: passes for options.seconds, at least two.
 * Traced run: untraced passes for half the time (the overhead
 * baseline), then recording starts, a root span "workload" opens and
 * traced passes run for the other half, each in a "pass" span,
 * followed by `post` (the per-layer replay tables) inside the same
 * root. Pass indices run on across both halves. `before` is a
 * per-pass set-up, outside the pass (a "setup" span in the traced
 * half).
 */
PassLog runPassSchedule(const RunOptions &options, Tracer &tracer,
                        unsigned lanes, const PassFn &pass,
                        const std::function<void()> &post,
                        const PassFn &before = PassFn());

/** Fill the per-layer metrics every workload reports from `log`. */
void commonPerLayer(const PassLog &log, const Tracer &tracer,
                    std::map<std::string, double> &per_layer);

/**
 * Host seconds of the same call across passes, keyed by what it did
 * ("VGG on RANA*(E-5)", "retrain 1e-05", ...). Every pass repeats the
 * same calls, so the sum of each call's median is the pass time with
 * host-noise bursts filtered out per call rather than per pass.
 */
class CallTimes
{
  public:
    void add(const std::string &call, double seconds)
    {
        samples_[call].push_back(seconds);
    }

    /** Sum over calls of each call's median seconds. */
    double sumOfMedians() const;

    /** Nearest-rank percentile over the calls' median seconds. */
    double percentileOfMedians(double p) const;

    /** Samples recorded over all calls. */
    std::size_t samples() const;

    /** Median seconds per call, in key order. */
    std::vector<std::pair<std::string, double>> medians() const;

  private:
    std::map<std::string, std::vector<double>> samples_;
};

/** Median (the mean of the middle two for even counts). */
double median(std::vector<double> values);

/** Nearest-rank percentile, p in [0, 100]. */
double percentile(std::vector<double> values, double p);

/** Process user + system CPU seconds so far. */
double processCpuSeconds();

/** Peak resident set size of the process, in MiB. */
double peakRssMb();

/** Current thread count of the process (0 if unknown). */
unsigned processThreads();

/** What a workload hands back to main(). */
struct WorkloadReport
{
    /** Threads the workload's library calls were given. */
    unsigned lanes = 0;
    /** The contract's end-to-end metrics (untraced runs). */
    std::vector<Metric> endToEnd;
    /** The same figures under their workload-specific names. */
    std::vector<Metric> named;
    /** Per-layer metrics measured by this workload (traced runs). */
    std::map<std::string, double> perLayer;
    /** Modelled headline values: reported, never scored. */
    std::vector<Metric> modelled;
    /** Modelled-output digests of the warm-up pass. */
    std::vector<std::pair<std::string, std::string>> digests;
    /** Thread count of the process after its passes. */
    unsigned threads = 0;
    /** Wall seconds of every pass, untraced then traced. */
    PassLog passes;
    /** Extra result-file sections (per-layer tables). */
    std::function<void(rana::JsonWriter &)> tables;
};

/** Workload entry points. */
WorkloadReport runCompileWorkload(const RunOptions &options,
                                  Checks &checks, Tracer &tracer);
WorkloadReport runCampaignWorkload(const RunOptions &options,
                                   Checks &checks, Tracer &tracer);
WorkloadReport runServeWorkload(const RunOptions &options,
                                Checks &checks, Tracer &tracer);

/**
 * Kernel table of the traced campaign/serve runs: the mini models'
 * layer shapes replayed through the public lane-major kernels at
 * `lanes` lanes and through the scalar Conv2dLayer::forward. Fills
 * the train.*_gmacs / train.pool_l16_gbs metrics it measures and
 * writes its rows with `write`.
 */
struct KernelRow
{
    std::string model;
    std::string layer;
    std::string kernel;
    std::uint32_t lanes = 0;
    std::uint32_t batch = 0;
    std::uint64_t macs = 0;
    std::uint64_t bytes = 0;
    std::uint64_t calls = 0;
    double seconds = 0.0;
};
std::vector<KernelRow> runKernelTable(Tracer &tracer,
                                      std::uint32_t image_size,
                                      std::uint32_t num_classes,
                                      std::uint32_t campaign_batch,
                                      bool smallest);

/** Aggregate kernel rows into the per-layer rate metrics. */
void kernelMetrics(const std::vector<KernelRow> &rows,
                   std::map<std::string, double> &per_layer);

/** Write kernel rows as a JSON array called `key`. */
void writeKernelRows(rana::JsonWriter &json, const std::string &key,
                     const std::vector<KernelRow> &rows);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH_
