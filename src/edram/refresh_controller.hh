/**
 * @file
 * eDRAM refresh controllers (Section IV-D2, Figure 14).
 *
 * Three refresh policies are modelled, plus "no refresh" for SRAM:
 *
 *  - ConventionalAll: every bank is refreshed at the programmed
 *    interval for the whole run, whether it stores data or not.
 *    This is the classic pessimistic eDRAM controller.
 *  - GatedGlobal: the controller has a single on/off refresh gate
 *    per layer. RANA's compilation stage sets the gate off when all
 *    of the layer's data lifetimes are below the refresh interval
 *    (the "Data Lifetime < Retention Time" condition), otherwise
 *    every bank refreshes at the interval. Used by the eD+ID,
 *    eD+OD, RANA(0) and RANA(E-5) design points.
 *  - PerBank: the refresh-optimized controller. Each bank has a
 *    refresh flag from the layerwise configuration; only banks whose
 *    own data's lifetime reaches the interval are refreshed, and
 *    unused banks are never refreshed. Used by RANA*(E-5).
 *
 * A refresh operation is counted per 16-bit word refreshed, matching
 * Table III's 48.1pJ per-word refresh energy (0.788uJ per 32KB bank).
 *
 * Two implementations are provided: a closed-form counter used by
 * the scheduler's energy model, and an event-driven simulator
 * (RefreshControllerSim) used by the loop-nest trace simulator,
 * which also detects retention violations (reads of data older than
 * the tolerable retention time without an intervening refresh).
 */

#ifndef RANA_EDRAM_REFRESH_CONTROLLER_HH_
#define RANA_EDRAM_REFRESH_CONTROLLER_HH_

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "edram/buffer_system.hh"
#include "edram/clock_divider.hh"
#include "edram/reliability_guard.hh"

namespace rana {

/** Refresh policy of the buffer controller. */
enum class RefreshPolicy {
    /** SRAM: no refresh at all. */
    None,
    /** Refresh all banks at the interval, always. */
    ConventionalAll,
    /** Refresh all banks, gated off for layers that need none. */
    GatedGlobal,
    /** Refresh only flagged banks (refresh-optimized controller). */
    PerBank,
};

/** Name string for a RefreshPolicy. */
const char *refreshPolicyName(RefreshPolicy policy);

/** Per-layer inputs to the refresh-op computation. */
struct LayerRefreshDemand
{
    /** Layer execution time in seconds. */
    double layerSeconds = 0.0;
    /** Data lifetime per data type in seconds (Section III-B2). */
    std::array<double, numDataTypes> lifetimeSeconds = {0.0, 0.0, 0.0};
    /** Bank allocation of the layer. */
    BankAllocation allocation;
};

/**
 * Whether a data type's banks require refresh under the given
 * interval: they hold data, and the data's lifetime reaches the
 * interval.
 */
bool dataNeedsRefresh(const LayerRefreshDemand &demand, DataType type,
                      double interval_seconds);

/**
 * Refresh pulses of period `interval_seconds` during
 * `duration_seconds`: the floor of their quotient, with a slack that
 * absorbs floating-point quotient jitter so exact multiples of the
 * interval count their final pulse (matching the event-driven
 * controller). 0 for a non-positive interval.
 */
std::uint64_t refreshPulses(double duration_seconds,
                            double interval_seconds);

/**
 * Closed-form refresh operation count (16-bit words refreshed) for
 * one layer under the given policy and refresh interval.
 */
std::uint64_t refreshOpsForLayer(RefreshPolicy policy,
                                 const BufferGeometry &geometry,
                                 const LayerRefreshDemand &demand,
                                 double interval_seconds);

/**
 * Per-bank refresh flags for one layer (the layerwise configuration
 * bits loaded into the refresh-optimized controller): one flag per
 * data type, true when that type's banks must refresh.
 */
std::array<bool, numDataTypes>
refreshFlagsForLayer(const LayerRefreshDemand &demand,
                     double interval_seconds);

/**
 * Event-driven bank-state simulator used by the trace simulator.
 *
 * Banks are owned by data types per layer; writes recharge the
 * owner's banks, refresh pulses recharge flagged banks, and reads
 * verify that the read data is younger than the tolerable retention
 * time (otherwise a retention violation is recorded). Recharge
 * granularity is one data type's bank group, matching the lifetime
 * model's per-type resolution.
 */
class RefreshControllerSim
{
  public:
    /**
     * @param geometry          buffer geometry
     * @param policy            refresh policy
     * @param reference_hz      reference clock for the divider
     * @param interval_seconds  programmed refresh interval
     */
    RefreshControllerSim(const BufferGeometry &geometry,
                         RefreshPolicy policy, double reference_hz,
                         double interval_seconds);

    /**
     * Attach a reliability guard (nullptr detaches; not owned).
     *
     * With a guard attached, a read of data that aged past the
     * tolerable retention time with refresh disabled is covered by
     * the per-bank watchdog fallback instead of counted as a
     * violation: the guard re-enables the type's refresh flag, the
     * watchdog refresh pulses that kept the data within tolerance
     * are charged to the refresh-op counter, and the trip is
     * recorded in the guard's counters. What happens *after* the
     * covering trip is the guard policy's decision: KeepArmed leaves
     * the group refreshing at the programmed interval (the
     * historical per-bank controller fallback), Escalate puts the
     * group on its own divider-bin pulse train, and a later clean
     * refresh interval may answer Redisarm, returning the group to
     * refresh-free coasting.
     */
    void attachGuard(ReliabilityGuard *guard) { guard_ = guard; }

    /**
     * Set a fresh controller's clock to `seconds` without issuing
     * the pulses a run from time 0 would have issued before it. A
     * layer simulated on its own controller starts here: beginLayer
     * resets every bank group and restarts the divider, so the
     * layer's pulses and counters match a walk that reached
     * `seconds` through the earlier layers.
     */
    void startAt(double seconds);

    /**
     * Start a layer at time `now`: install the bank allocation and
     * refresh flags, and mark freshly loaded data as recharged.
     *
     * @param gate_on for GatedGlobal, whether this layer refreshes.
     */
    void beginLayer(const BankAllocation &allocation,
                    const std::array<bool, numDataTypes> &flags,
                    bool gate_on, double now);

    /** Record a (re)write of one data type's banks at time `now`. */
    void onWrite(DataType type, double now);

    /**
     * Record a read at time `now` of data written at
     * `data_write_time`. The data is stale (a retention violation)
     * if it has aged beyond the tolerable retention time since its
     * last recharge, i.e. since the later of its write and the last
     * refresh pulse that covered its banks. The write time is
     * supplied by the caller because recharge granularity is per
     * datum, not per data type (OD's cyclically rewritten partial
     * sums age a full Loop-N pass between their own writes even
     * though the type's banks are written continuously).
     */
    void onRead(DataType type, double now, double data_write_time);

    /**
     * Observer of refresh pulses: called at each divider tick with
     * the simulated time and the words actually refreshed (0 when
     * the pulse was gated off / found no flagged banks). Used by the
     * timeline exporter to draw refresh activity on the simulated-
     * time axis.
     */
    using PulseListener =
        std::function<void(double now, std::uint64_t words)>;

    /** Install the pulse observer (empty function detaches). */
    void setPulseListener(PulseListener listener)
    {
        pulseListener_ = std::move(listener);
    }

    /** Advance simulated time, issuing due refresh pulses. */
    void advanceTo(double now);

    /** Total refresh operations issued (16-bit words). */
    std::uint64_t refreshOps() const { return refreshOps_; }

    /** Total retention violations observed on reads. */
    std::uint64_t violations() const { return violations_; }

    /** The programmed refresh interval realized by the divider. */
    double pulsePeriod() const { return divider_.pulsePeriod(); }

  private:
    struct TypeState
    {
        /** Time of the last refresh pulse covering this type. */
        double lastRefresh = 0.0;
        /** Whether any refresh pulse covered this type yet. */
        bool refreshed = false;
        std::uint32_t banks = 0;
        bool refreshFlag = false;
        bool holdsData = false;
        /** Whether the guard (not the layer config) armed the flag. */
        bool guardArmed = false;
        /** Escalated refresh period (0 = global pulse train). */
        double ownInterval = 0.0;
        /** Next due pulse of the escalated train. */
        double nextOwnPulse = 0.0;
        /** No overage since the last pulse covering this group. */
        bool cleanSinceRefresh = true;
    };

    void issuePulse();
    void issueOwnPulse(std::size_t index);
    std::uint64_t refreshFlaggedType(TypeState &state, DataType type);
    void consultCleanInterval(TypeState &state, DataType type);

    BufferGeometry geometry_;
    RefreshPolicy policy_;
    ProgrammableClockDivider divider_;
    double now_ = 0.0;
    double nextPulse_ = 0.0;
    bool gateOn_ = false;
    std::uint32_t unusedBanks_ = 0;
    std::array<TypeState, numDataTypes> types_;
    std::uint64_t refreshOps_ = 0;
    std::uint64_t violations_ = 0;
    ReliabilityGuard *guard_ = nullptr;
    PulseListener pulseListener_;
};

} // namespace rana

#endif // RANA_EDRAM_REFRESH_CONTROLLER_HH_
