/**
 * @file
 * Memory-trace analysis: run one layer through the loop-nest
 * simulator with a CSV trace attached, write the trace to a file,
 * and summarize the event stream — the workflow the paper's
 * evaluation platform used for "memory access tracing".
 *
 * Usage: trace_analysis [output.csv]
 */

#include <fstream>
#include <iostream>

#include "nn/model_zoo.hh"
#include "sim/loopnest_simulator.hh"
#include "sim/trace_export.hh"
#include "util/table.hh"
#include "util/units.hh"

int
main(int argc, char **argv)
{
    using namespace rana;

    const std::string path = argc > 1 ? argv[1] : "layer_trace.csv";
    const AcceleratorConfig config = testAcceleratorEdram();
    const ConvLayerSpec layer = makeVgg16().findLayer("conv4_2");

    // The paper's Layer-B under OD with Tn = 16.
    const LayerAnalysis analysis = analyzeLayer(
        config, layer, dataflowSpec(DataflowKind::OD), {16, 16, 7, 7});
    if (!analysis.feasible) {
        std::cerr << "layer configuration infeasible\n";
        return 1;
    }

    std::ofstream csv(path);
    if (!csv) {
        std::cerr << "cannot write " << path << "\n";
        return 1;
    }
    CsvTraceWriter writer(csv);
    CountingTraceSink counter;

    LoopNestSimulator sim(config, RefreshPolicy::PerBank, 734e-6);
    sim.setTraceSink(&writer);
    const LayerSimResult with_csv =
        sim.runLayerChecked(layer, analysis).valueOrDie();

    LoopNestSimulator counting_sim(config, RefreshPolicy::PerBank,
                                   734e-6);
    counting_sim.setTraceSink(&counter);
    counting_sim.runLayerChecked(layer, analysis).valueOrDie();

    std::cout << "Traced " << layer.describe() << " under "
              << dataflowName(analysis.dataflow)
              << analysis.tiling.describe() << "\n"
              << "Wrote " << writer.rowsWritten() << " events to "
              << path << "\n\n";

    TextTable table("Event summary");
    table.header({"Event", "Count", "Words"});
    for (TraceEventKind kind : {TraceEventKind::TileCompute,
                                TraceEventKind::CoreLoad,
                                TraceEventKind::CoreStore,
                                TraceEventKind::PartialReload}) {
        table.row({traceEventKindName(kind),
                   std::to_string(counter.count(kind)),
                   std::to_string(counter.wordsOf(kind))});
    }
    table.print(std::cout);

    std::cout << "\nLayer runtime "
              << formatTime(with_csv.layerSeconds)
              << ", refresh ops " << with_csv.refreshOps
              << ", retention violations " << with_csv.violations
              << "\nObserved lifetimes (in/out/w): "
              << formatTime(with_csv.observedLifetime[0]) << " / "
              << formatTime(with_csv.observedLifetime[1]) << " / "
              << formatTime(with_csv.observedLifetime[2]) << "\n";
    return 0;
}
