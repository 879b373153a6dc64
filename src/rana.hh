/**
 * @file
 * Umbrella header for the RANA library: configure hardware, schedule
 * a network, simulate the schedule and report the results with one
 * include, instead of reaching into five subdirectory headers.
 *
 *   #include "rana.hh"
 *
 *   auto options = rana::SchedulerOptionsBuilder()
 *                      .policy(rana::RefreshPolicy::PerBank)
 *                      .refreshInterval(734e-6)
 *                      .jobs(0) // one lane per hardware thread
 *                      .build();
 *   auto schedule = rana::scheduleNetwork(
 *       rana::testAcceleratorEdram(), rana::makeVgg16(), options);
 *   if (!schedule.ok())
 *       handle(schedule.error());
 *
 * The facade only aggregates; every declaration still lives in its
 * subsystem header, which remains the include of choice inside the
 * library itself.
 */

#ifndef RANA_RANA_HH_
#define RANA_RANA_HH_

// Hardware configuration.
#include "edram/refresh_controller.hh"
#include "edram/retention_distribution.hh"
#include "sim/accelerator_config.hh"

// Networks.
#include "nn/model_zoo.hh"
#include "nn/network_model.hh"

// Scheduling.
#include "sched/config_io.hh"
#include "sched/eval_cache.hh"
#include "sched/layer_scheduler.hh"
#include "sched/schedule_types.hh"
#include "sched/tiling_search.hh"

// Simulation and the full pipeline.
#include "core/design_point.hh"
#include "core/experiments.hh"
#include "core/rana_pipeline.hh"
#include "sim/dataflow.hh"
#include "sim/loopnest_simulator.hh"
#include "sim/performance_model.hh"

// Robustness: fault campaigns, the campaign sweep, retention
// binning and the runtime reliability guard with its policies.
#include "edram/guard_policy.hh"
#include "edram/reliability_guard.hh"
#include "edram/retention_binning.hh"
#include "robust/campaign_sweep.hh"
#include "robust/fault_campaign.hh"

// Multi-tenant serving: admission control, per-tenant bank
// sharding and the virtual-time serving simulation.
#include "edram/bank_sharding.hh"
#include "serving/admission.hh"
#include "serving/serving.hh"

// Reporting, observability and infrastructure.
#include "core/report.hh"
#include "obs/metrics_registry.hh"
#include "util/result.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"
#include "util/units.hh"

namespace rana {

/**
 * Fluent builder for SchedulerOptions, for call sites that configure
 * several fields at once (quickstarts, service endpoints):
 * every setter returns *this, build() yields the finished options.
 */
class SchedulerOptionsBuilder
{
  public:
    /** Dataflows explored per layer (see sim/dataflow.hh). */
    SchedulerOptionsBuilder &dataflows(std::vector<DataflowKind> value)
    {
        options_.dataflows = std::move(value);
        return *this;
    }

    /** Refresh policy of the target design's controller. */
    SchedulerOptionsBuilder &policy(RefreshPolicy value)
    {
        options_.policy = value;
        return *this;
    }

    /** Programmed refresh interval in seconds. */
    SchedulerOptionsBuilder &refreshInterval(double seconds)
    {
        options_.refreshIntervalSeconds = seconds;
        return *this;
    }

    /** Fix the tiling instead of exploring the space. */
    SchedulerOptionsBuilder &fixedTiling(const Tiling &value)
    {
        options_.fixedTiling = value;
        return *this;
    }

    /** Worker lanes for the search (0 = hardware width, 1 = serial). */
    SchedulerOptionsBuilder &jobs(unsigned value)
    {
        options_.jobs = value;
        return *this;
    }

    /** Toggle the process-wide evaluation memoization cache. */
    SchedulerOptionsBuilder &memoize(bool value)
    {
        options_.memoize = value;
        return *this;
    }

    /** The assembled options. */
    SchedulerOptions build() const { return options_; }

  private:
    SchedulerOptions options_;
};

} // namespace rana

#endif // RANA_RANA_HH_
