/**
 * @file
 * google-benchmark microbenchmarks of the framework's hot paths:
 * layer analysis, tiling search, trace simulation, refresh
 * accounting, error injection, the training kernels and the
 * lane-block scorer.
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "harness.hh"
#include "nn/model_zoo.hh"
#include "sched/layer_scheduler.hh"
#include "sim/loopnest_simulator.hh"
#include "sim/pattern_analytics.hh"
#include "train/lane_scorer.hh"
#include "train/layers.hh"
#include "train/loss.hh"
#include "train/trainer.hh"
#include "train/trial_batch.hh"
#include "util/logging.hh"

namespace {

using namespace rana;

void
BM_AnalyzeLayer(benchmark::State &state)
{
    const AcceleratorConfig config = testAcceleratorEdram();
    const ConvLayerSpec layer = makeVgg16().findLayer("conv4_2");
    for (auto _ : state) {
        benchmark::DoNotOptimize(analyzeLayer(
            config, layer, dataflowSpec(DataflowKind::OD), {16, 16, 7, 7}));
    }
}
BENCHMARK(BM_AnalyzeLayer);

void
BM_ScheduleLayer(benchmark::State &state)
{
    const AcceleratorConfig config = testAcceleratorEdram();
    const ConvLayerSpec layer = makeVgg16().findLayer("conv4_2");
    SchedulerOptions options;
    options.policy = RefreshPolicy::PerBank;
    options.refreshIntervalSeconds = 734e-6;
    for (auto _ : state)
        benchmark::DoNotOptimize(scheduleLayerOrDie(config, layer, options));
}
BENCHMARK(BM_ScheduleLayer);

void
BM_ScheduleResNet(benchmark::State &state)
{
    const AcceleratorConfig config = testAcceleratorEdram();
    const NetworkModel net = makeResNet50();
    SchedulerOptions options;
    options.policy = RefreshPolicy::PerBank;
    options.refreshIntervalSeconds = 734e-6;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            scheduleNetworkOrDie(config, net, options));
    }
}
BENCHMARK(BM_ScheduleResNet)->Unit(benchmark::kMillisecond);

void
BM_TraceSimulateLayer(benchmark::State &state)
{
    const AcceleratorConfig config = testAcceleratorEdram();
    const ConvLayerSpec layer = makeVgg16().findLayer("conv4_2");
    const LayerAnalysis analysis = analyzeLayer(
        config, layer, dataflowSpec(DataflowKind::OD), {16, 16, 7, 7});
    std::uint64_t tiles = 0;
    for (auto _ : state) {
        LoopNestSimulator sim(config, RefreshPolicy::PerBank, 734e-6);
        benchmark::DoNotOptimize(sim.runLayer(layer, analysis));
        tiles += tripCounts(layer, analysis.tiling).total();
    }
    state.counters["tiles/s"] = benchmark::Counter(
        static_cast<double>(tiles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraceSimulateLayer)->Unit(benchmark::kMillisecond);

void
BM_RefreshAccounting(benchmark::State &state)
{
    const AcceleratorConfig config = testAcceleratorEdram();
    const ConvLayerSpec layer = makeVgg16().findLayer("conv4_2");
    const LayerAnalysis analysis = analyzeLayer(
        config, layer, dataflowSpec(DataflowKind::OD), {16, 16, 7, 7});
    const LayerRefreshDemand demand = refreshDemand(config, analysis);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            refreshOpsForLayer(RefreshPolicy::PerBank, config.buffer,
                               demand, 45e-6));
    }
}
BENCHMARK(BM_RefreshAccounting);

void
BM_ErrorInjectionSparse(benchmark::State &state)
{
    const FixedPointFormat format{12};
    Tensor tensor({1u << 16});
    tensor.fill(0.5f);
    BitErrorInjector injector(1e-5, 7);
    for (auto _ : state) {
        Tensor copy = tensor;
        benchmark::DoNotOptimize(
            injector.corruptTensor(copy, format));
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(tensor.size() * 2));
}
BENCHMARK(BM_ErrorInjectionSparse);

void
BM_ErrorInjectionDense(benchmark::State &state)
{
    const FixedPointFormat format{12};
    Tensor tensor({1u << 14});
    tensor.fill(0.5f);
    BitErrorInjector injector(1e-2, 7);
    for (auto _ : state) {
        Tensor copy = tensor;
        benchmark::DoNotOptimize(
            injector.corruptTensor(copy, format));
    }
}
BENCHMARK(BM_ErrorInjectionDense);

void
BM_ConvForward(benchmark::State &state)
{
    Rng rng(3);
    Conv2dLayer conv(8, 16, 3, 1, 1, rng);
    Tensor input({8, 8, 16, 16});
    for (std::size_t i = 0; i < input.size(); ++i)
        input[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    ForwardContext ctx;
    ctx.training = false;
    std::uint64_t macs = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(conv.forward(input, ctx));
        macs += 8ull * 16 * 16 * 16 * 8 * 9;
    }
    state.counters["MACs/s"] = benchmark::Counter(
        static_cast<double>(macs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ConvForward);

/** A conv layer shape of the mini models at the campaign's 12x12 images. */
struct LaneConvShape
{
    const char *name;
    std::uint32_t inChannels;
    std::uint32_t outChannels;
    std::uint32_t size;
    std::uint32_t kernel;
    std::uint32_t pad;
};

const LaneConvShape kLaneConvShapes[] = {
    {"MiniVgg/conv1", 1, 8, 12, 3, 1},  {"MiniVgg/conv2", 8, 8, 12, 3, 1},
    {"MiniVgg/conv3", 8, 16, 6, 3, 1},  {"MiniVgg/conv4", 16, 16, 6, 3, 1},
    {"MiniAlex/conv1", 1, 8, 12, 5, 2}, {"MiniAlex/conv2", 8, 16, 6, 5, 2},
};

/**
 * The lane-major conv forward (convolveTrialLanes) on one mini-model
 * layer at 16 lanes. Args: the shape index and the batch: 128 is a
 * campaign trial block over the test batch, 1 a serving block of 16
 * one-sample requests.
 */
void
BM_ConvLanes(benchmark::State &state)
{
    const LaneConvShape &shape = kLaneConvShapes[state.range(0)];
    const auto batch = static_cast<std::uint32_t>(state.range(1));
    const std::uint32_t lanes = 16;
    const std::size_t n = shape.inChannels;
    const std::size_t m = shape.outChannels;
    const std::size_t s = shape.size;
    const std::size_t k = shape.kernel;
    Rng rng(9);
    auto values = [&](std::size_t count) {
        std::vector<float> data(count * lanes);
        for (float &v : data)
            v = static_cast<float>(rng.uniform(-1.0, 1.0));
        return data;
    };
    const std::vector<float> in = values(batch * n * s * s);
    const std::vector<float> wt = values(m * n * k * k);
    const std::vector<float> bias = values(m);
    std::vector<float> out(batch * m * s * s * lanes);
    for (auto _ : state) {
        convolveTrialLanes(in.data(), wt.data(), bias.data(), out.data(),
                           batch, shape.inChannels, shape.size, shape.size,
                           shape.outChannels, shape.size, shape.size,
                           shape.kernel, 1, shape.pad, lanes);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    const double macs =
        static_cast<double>(batch * m * s * s * n * k * k * lanes);
    state.SetLabel(std::string(shape.name) + " " +
                   laneIsaName(hostLaneIsas().front()));
    state.counters["MACs/s"] = benchmark::Counter(
        macs * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ConvLanes)->ArgsProduct({{0, 1, 2, 3, 4, 5}, {128, 1}});

/**
 * One scoreLanes block of 16 lanes of MiniVgg at the campaign scale
 * (12x12 images, 4 classes, weights bound pre-quantized). Args: the
 * samples per lane and both per-bit rates in units of 1e-4: 128 is a
 * campaign trial block (every lane reads the whole test batch, in
 * sample tiles), 1 a serving block of 16 one-sample requests.
 */
void
BM_ScoreLanes(benchmark::State &state)
{
    const auto samples = static_cast<std::uint32_t>(state.range(0));
    const double rate = static_cast<double>(state.range(1)) * 1e-4;
    const std::uint32_t lanes = 16;
    const FixedPointFormat format{12};
    Rng rng(21);
    const auto owner = makeMiniModel(MiniModelKind::MiniVgg, 12, 4, rng);
    std::vector<Tensor> store;
    for (const Param &param : owner->params()) {
        store.push_back(*param.value);
        quantizeTensor(store.back(), format);
    }
    const auto skeleton =
        makeMiniModel(MiniModelKind::MiniVgg, 12, 4, rng);
    bindSharedWeights(*skeleton, store);
    DatasetConfig config;
    config.imageSize = 12;
    config.numClasses = 4;
    config.trainSamples = 16;
    config.testSamples = 128;
    const Batch test = SyntheticDataset(config).testBatch();
    std::vector<ScoredLane> block;
    for (std::uint32_t l = 0; l < lanes; ++l)
        block.push_back({samples == 1 ? l * 8 : 0,
                         {rate, 2 * l + 1},
                         {rate, 2 * l + 2}});
    for (auto _ : state)
        benchmark::DoNotOptimize(
            scoreLanes(*skeleton, format, test, samples, block));
    state.counters["samples/s"] = benchmark::Counter(
        static_cast<double>(lanes * samples) *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ScoreLanes)
    ->Args({128, 0})
    ->Args({128, 10})
    ->Args({1, 0})
    ->Unit(benchmark::kMillisecond);

void
BM_TrainingStep(benchmark::State &state)
{
    Rng rng(5);
    auto model = makeMiniModel(MiniModelKind::MiniVgg, 16, 8, rng);
    SgdOptimizer optimizer(model->params(), 0.05);
    DatasetConfig config;
    config.trainSamples = 64;
    config.testSamples = 8;
    SyntheticDataset dataset(config);
    const Batch batch = dataset.trainBatch(0, 32);
    const FixedPointFormat format{12};
    BitErrorInjector injector(1e-5, 11);
    ForwardContext ctx;
    ctx.quant = &format;
    ctx.injectors = {&injector};
    ctx.weightInjectors = {&injector};
    for (auto _ : state) {
        optimizer.zeroGrad();
        const Tensor logits = model->forward(batch.images, ctx);
        const LossResult loss =
            softmaxCrossEntropy(logits, batch.labels);
        model->backward(loss.gradLogits);
        optimizer.step();
    }
}
BENCHMARK(BM_TrainingStep)->Unit(benchmark::kMillisecond);

/**
 * Runs the registered BM_* functions through google-benchmark's own
 * runner. Correctness mode caps the per-benchmark measurement time:
 * it only has to prove the hot paths still run, not produce stable
 * timings. google-benchmark's Initialize() is once-only per process,
 * so repeated runs (e.g. rana_bench with a broad --match) reuse the
 * first call's flags.
 */
void
runMicro(rana::bench::BenchContext &ctx)
{
    static bool initialized = false;
    if (!initialized) {
        initialized = true;
        std::vector<const char *> argv = {"bench_micro"};
        if (!ctx.perfMode())
            argv.push_back("--benchmark_min_time=0.01");
        int argc = static_cast<int>(argv.size());
        benchmark::Initialize(&argc,
                              const_cast<char **>(argv.data()));
    }
    const std::size_t ran = benchmark::RunSpecifiedBenchmarks();
    if (ran == 0)
        fatal("no microbenchmarks ran");
    ctx.perf("benchmarks_run", static_cast<double>(ran), "count");
}

} // namespace

RANA_BENCH("micro",
           "google-benchmark microbenchmarks of the framework hot "
           "paths",
           runMicro);
