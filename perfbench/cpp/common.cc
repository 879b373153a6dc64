#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>

namespace perfbench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

bool
Checks::check(const std::string &what, bool ok, const std::string &detail)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        // Keep the report bounded when one check fails every pass.
        if (failures_.size() < 16)
            failures_.push_back(detail.empty() ? what
                                               : what + ": " + detail);
    }
    return ok;
}

int
Tracer::open(const std::string &name)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.start = Clock::now();
    spans_.push_back(std::move(span));
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    if (id < 0)
        return;
    spans_[static_cast<std::size_t>(id)].end = Clock::now();
    // Spans close innermost first; tolerate a child left open by an
    // early return by closing everything above `id` at the same time.
    while (!stack_.empty()) {
        const int top = stack_.back();
        stack_.pop_back();
        if (top == id)
            break;
        spans_[static_cast<std::size_t>(top)].end =
            spans_[static_cast<std::size_t>(id)].end;
    }
}

std::string
Tracer::pathOf(int id) const
{
    std::string path;
    for (int at = id; at >= 0;
         at = spans_[static_cast<std::size_t>(at)].parent) {
        const std::string &name =
            spans_[static_cast<std::size_t>(at)].name;
        path = path.empty() ? name : name + "/" + path;
    }
    return path;
}

namespace {

double
spanSeconds(Clock::time_point start, Clock::time_point end)
{
    return std::chrono::duration<double>(end - start).count();
}

} // namespace

std::vector<Tracer::Row>
Tracer::selfTimes() const
{
    std::vector<double> child_seconds(spans_.size(), 0.0);
    for (const Span &span : spans_) {
        if (span.parent >= 0)
            child_seconds[static_cast<std::size_t>(span.parent)] +=
                spanSeconds(span.start, span.end);
    }
    std::map<std::string, Row> rows;
    std::vector<std::string> order;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const std::string path = pathOf(static_cast<int>(i));
        auto [it, inserted] = rows.try_emplace(path);
        if (inserted)
            order.push_back(path);
        Row &row = it->second;
        row.path = path;
        const double total = spanSeconds(spans_[i].start, spans_[i].end);
        row.count += 1;
        row.totalSeconds += total;
        row.selfSeconds += total - child_seconds[i];
    }
    std::vector<Row> out;
    out.reserve(order.size());
    for (const std::string &path : order)
        out.push_back(rows[path]);
    return out;
}

double
Tracer::totalSeconds(const std::string &name) const
{
    double total = 0.0;
    for (double seconds : durations(name))
        total += seconds;
    return total;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &span : spans_) {
        if (span.name == name)
            out.push_back(spanSeconds(span.start, span.end));
    }
    return out;
}

double
Tracer::coverage(const std::string &root) const
{
    double wall = 0.0;
    double covered = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].parent >= 0 || spans_[i].name != root)
            continue;
        wall += spanSeconds(spans_[i].start, spans_[i].end);
        for (const Span &child : spans_) {
            if (child.parent == static_cast<int>(i))
                covered += spanSeconds(child.start, child.end);
        }
    }
    return wall > 0.0 ? covered / wall : 0.0;
}

Timed::Timed(Tracer &tracer, const std::string &name)
    : tracer_(tracer), id_(tracer.open(name)), start_(Clock::now())
{
}

Timed::~Timed()
{
    stop();
}

double
Timed::stop()
{
    if (seconds_ < 0.0) {
        seconds_ = secondsSince(start_);
        tracer_.close(id_);
    }
    return seconds_;
}

namespace {

/** 64-bit FNV-1a of `text`, as 16 hex digits. */
std::string
digestHex(const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char byte : text) {
        hash ^= byte;
        hash *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

} // namespace

std::string
exact(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

void
PassDigests::add(const std::string &label, std::size_t pass,
                 std::string text)
{
    // The benchmark's own tests flip one byte of the second pass to
    // prove a modelled-output mismatch is reported as a failure.
    if (injectFault_ && pass == 1 && !text.empty())
        text[0] = static_cast<char>(text[0] ^ 1);
    const std::string hex = digestHex(text);
    auto it = std::find_if(digests_.begin(), digests_.end(),
                           [&](const auto &entry) {
                               return entry.first == label;
                           });
    if (it == digests_.end()) {
        digests_.emplace_back(label, hex);
        return;
    }
    checks_.check("pass " + std::to_string(pass) + " " + label +
                      " matches pass 0",
                  hex == it->second, hex + " != " + it->second);
}

namespace {

/** Wall seconds of each pass and the process CPU seconds they used. */
struct PassTimes
{
    std::vector<double> walls;
    double cpuSeconds = 0.0;
};

/**
 * Run `pass(index)` back to back until `seconds` of pass time have
 * gone and at least `min_passes` ran. `before(index)`, when set, runs
 * ahead of each pass and counts neither in the pass's times nor in
 * `seconds`.
 */
PassTimes
repeatPasses(double seconds, std::size_t min_passes, const PassFn &pass,
             const PassFn &before)
{
    PassTimes times;
    double total = 0.0;
    while (times.walls.size() < min_passes || total < seconds) {
        if (before)
            before(times.walls.size());
        const double cpu = processCpuSeconds();
        const Clock::time_point start = Clock::now();
        pass(times.walls.size());
        times.walls.push_back(secondsSince(start));
        times.cpuSeconds += processCpuSeconds() - cpu;
        total += times.walls.back();
    }
    return times;
}

} // namespace

PassLog
runPassSchedule(const RunOptions &options, Tracer &tracer,
                unsigned lanes, const PassFn &pass,
                const std::function<void()> &post, const PassFn &before)
{
    auto cpu_util = [lanes](const PassTimes &times) {
        double wall = 0.0;
        for (double seconds : times.walls)
            wall += seconds;
        return wall > 0.0 ? times.cpuSeconds / (wall * lanes) : 0.0;
    };
    PassLog log;
    tracer.setEnabled(false);
    if (before)
        before(0);
    pass(0);
    auto shifted = [](const PassFn &fn, std::size_t by) {
        return fn ? PassFn([&fn, by](std::size_t index) {
            fn(index + by);
        })
                  : PassFn();
    };
    const PassTimes untraced =
        repeatPasses(options.trace ? options.seconds / 2 : options.seconds,
                     options.trace ? 1 : 2, shifted(pass, 1),
                     shifted(before, 1));
    log.untraced = untraced.walls;
    if (!options.trace) {
        log.cpuUtil = cpu_util(untraced);
        return log;
    }

    tracer.setEnabled(true);
    const std::size_t offset = 1 + log.untraced.size();
    {
        Timed root(tracer, "workload");
        PassFn traced_before;
        if (before) {
            traced_before = [&](std::size_t index) {
                Timed span(tracer, "setup");
                before(offset + index);
            };
        }
        const PassTimes traced = repeatPasses(
            options.seconds / 2, 1,
            [&](std::size_t index) {
                Timed span(tracer, "pass");
                pass(offset + index);
            },
            traced_before);
        log.traced = traced.walls;
        log.cpuUtil = cpu_util(traced);
        post();
    }
    tracer.setEnabled(false);
    return log;
}

void
commonPerLayer(const PassLog &log, const Tracer &tracer,
               std::map<std::string, double> &per_layer)
{
    per_layer["pool.cpu_util"] = log.cpuUtil;
    per_layer["obs.trace_overhead"] =
        median(log.traced) / median(log.untraced);
    per_layer["obs.span_coverage"] = tracer.coverage("workload");
}

double
CallTimes::sumOfMedians() const
{
    double total = 0.0;
    for (const auto &[call, seconds] : medians())
        total += seconds;
    return total;
}

double
CallTimes::percentileOfMedians(double p) const
{
    std::vector<double> values;
    for (const auto &[call, seconds] : medians())
        values.push_back(seconds);
    return percentile(values, p);
}

std::size_t
CallTimes::samples() const
{
    std::size_t total = 0;
    for (const auto &[call, samples] : samples_)
        total += samples.size();
    return total;
}

std::vector<std::pair<std::string, double>>
CallTimes::medians() const
{
    std::vector<std::pair<std::string, double>> out;
    for (const auto &[call, samples] : samples_)
        out.emplace_back(call, median(samples));
    return out;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1
               ? values[mid]
               : 0.5 * (values[mid - 1] + values[mid]);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        std::ceil(p / 100.0 * static_cast<double>(values.size()));
    const std::size_t index = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(values.size())));
    return values[index - 1];
}

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

unsigned
processThreads()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("Threads:", 0) == 0)
            return static_cast<unsigned>(
                std::strtoul(line.c_str() + 8, nullptr, 10));
    }
    return 0;
}

} // namespace perfbench
