/**
 * @file
 * Tests for the memory-trace export: event counts and word totals
 * from the counting sink must match the analytic traffic, and the
 * CSV writer must produce one well-formed row per event.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "nn/model_zoo.hh"
#include "sim/loopnest_simulator.hh"
#include "sim/trace_export.hh"

namespace rana {
namespace {

struct TracedRun
{
    LayerAnalysis analysis;
    LayerSimResult result;
    CountingTraceSink sink;
};

TracedRun
runTraced(DataflowKind pattern)
{
    const AcceleratorConfig config = testAcceleratorEdram();
    const ConvLayerSpec layer = makeConv("c", 32, 28, 32, 3, 1, 1);
    TracedRun run;
    run.analysis =
        analyzeLayer(config, layer, dataflowSpec(pattern), {16, 16, 7, 7});
    EXPECT_TRUE(run.analysis.feasible);
    LoopNestSimulator sim(config, RefreshPolicy::PerBank, 734e-6);
    sim.setTraceSink(&run.sink);
    run.result = sim.runLayerChecked(layer, run.analysis).valueOrDie();
    return run;
}

TEST(TraceExport, TileComputeCountMatchesTrips)
{
    const TracedRun run = runTraced(DataflowKind::OD);
    const ConvLayerSpec layer = makeConv("c", 32, 28, 32, 3, 1, 1);
    const TripCounts trips = tripCounts(layer, run.analysis.tiling);
    EXPECT_EQ(run.sink.count(TraceEventKind::TileCompute),
              trips.total());
    EXPECT_EQ(run.sink.count(TraceEventKind::LayerBegin), 1u);
    EXPECT_EQ(run.sink.count(TraceEventKind::LayerEnd), 1u);
    EXPECT_EQ(run.sink.layers(), 1u);
}

TEST(TraceExport, CoreLoadWordsMatchAnalytics)
{
    for (DataflowKind pattern : {DataflowKind::ID,
                                       DataflowKind::OD,
                                       DataflowKind::WD}) {
        const TracedRun run = runTraced(pattern);
        const double analytic_loads =
            run.analysis.of(DataType::Input).coreLoadWords +
            run.analysis.of(DataType::Weight).coreLoadWords;
        EXPECT_NEAR(static_cast<double>(
                        run.sink.wordsOf(TraceEventKind::CoreLoad)),
                    analytic_loads, analytic_loads * 1e-9)
            << dataflowName(pattern);
    }
}

TEST(TraceExport, StoreAndReloadWordsMatchAnalytics)
{
    const TracedRun run = runTraced(DataflowKind::OD);
    EXPECT_NEAR(static_cast<double>(
                    run.sink.wordsOf(TraceEventKind::CoreStore)),
                run.analysis.of(DataType::Output).coreStoreWords,
                1.0);
    EXPECT_NEAR(
        static_cast<double>(
            run.sink.wordsOf(TraceEventKind::PartialReload)),
        run.analysis.of(DataType::Output).coreLoadWords, 1.0);
}

TEST(TraceExport, NoReloadsOutsideOd)
{
    const TracedRun id = runTraced(DataflowKind::ID);
    EXPECT_EQ(id.sink.count(TraceEventKind::PartialReload), 0u);
    const TracedRun wd = runTraced(DataflowKind::WD);
    EXPECT_EQ(wd.sink.count(TraceEventKind::PartialReload), 0u);
}

TEST(TraceExport, CsvWriterProducesRows)
{
    const AcceleratorConfig config = testAcceleratorEdram();
    const ConvLayerSpec layer = makeConv("c", 8, 8, 8, 3, 1, 1);
    const auto analysis = analyzeLayer(config, layer,
                                       dataflowSpec(DataflowKind::OD),
                                       {8, 8, 8, 8});
    ASSERT_TRUE(analysis.feasible);
    std::ostringstream oss;
    CsvTraceWriter writer(oss);
    LoopNestSimulator sim(config, RefreshPolicy::PerBank, 734e-6);
    sim.setTraceSink(&writer);
    sim.runLayerChecked(layer, analysis).valueOrDie();
    const std::string csv = oss.str();
    // Header plus one line per row.
    std::size_t lines = 0;
    for (char c : csv)
        lines += c == '\n';
    EXPECT_EQ(lines, writer.rowsWritten() + 1);
    EXPECT_NE(csv.find("layer,kind,seconds,type,words,tile"),
              std::string::npos);
    EXPECT_NE(csv.find("tile_compute"), std::string::npos);
    EXPECT_NE(csv.find("core_store"), std::string::npos);
}

TEST(TraceExport, DetachedSinkCostsNothing)
{
    const AcceleratorConfig config = testAcceleratorEdram();
    const ConvLayerSpec layer = makeConv("c", 32, 28, 32, 3, 1, 1);
    const auto analysis = analyzeLayer(config, layer,
                                       dataflowSpec(DataflowKind::OD),
                                       {16, 16, 7, 7});
    ASSERT_TRUE(analysis.feasible);
    LoopNestSimulator sim(config, RefreshPolicy::PerBank, 734e-6);
    CountingTraceSink sink;
    sim.setTraceSink(&sink);
    sim.setTraceSink(nullptr);
    sim.runLayerChecked(layer, analysis).valueOrDie();
    EXPECT_EQ(sink.layers(), 0u);
    EXPECT_EQ(sink.count(TraceEventKind::TileCompute), 0u);
}

TEST(TraceExport, KindNames)
{
    EXPECT_STREQ(traceEventKindName(TraceEventKind::LayerBegin),
                 "layer_begin");
    EXPECT_STREQ(traceEventKindName(TraceEventKind::PartialReload),
                 "partial_reload");
}

} // namespace
} // namespace rana
