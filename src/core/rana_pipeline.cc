/**
 * @file
 * Implementation of the RANA pipeline facade.
 */

#include "core/rana_pipeline.hh"

#include "util/logging.hh"

namespace rana {

PipelineResult
runRanaPipeline(const NetworkModel &network, const PipelineInputs &inputs)
{
    return runRanaPipeline(network, testAcceleratorEdram(), inputs);
}

PipelineResult
runRanaPipeline(const NetworkModel &network,
                const AcceleratorConfig &config,
                const PipelineInputs &inputs)
{
    RANA_ASSERT(inputs.tolerableFailureRate >= 0.0,
                "failure rate must be non-negative");

    PipelineResult result;
    result.tolerableRetentionSeconds =
        inputs.tolerableFailureRate > 0.0
            ? inputs.retention.retentionTimeFor(
                  inputs.tolerableFailureRate)
            : inputs.retention.worstCaseRetention();

    result.design.name = "RANA pipeline";
    result.design.config = config;
    result.design.failureRate = inputs.tolerableFailureRate;
    result.design.options.dataflows = hybridDataflows();
    result.design.options.policy = inputs.policy;
    result.design.options.refreshIntervalSeconds =
        result.tolerableRetentionSeconds;

    result.schedule =
        scheduleNetwork(config, network, result.design.options)
            .valueOrDie();
    result.scheduledEnergy = result.schedule.totalEnergy();

    if (inputs.execute) {
        result.executed = executeScheduleChecked(result.design, network,
                                                 result.schedule)
                              .valueOrDie();
        result.executedPhase = true;
        if (result.executed.violations > 0) {
            warn("execution phase observed ",
                 result.executed.violations,
                 " retention violations; the schedule is unsafe for "
                 "the programmed retention time");
        }
    }
    return result;
}

} // namespace rana
