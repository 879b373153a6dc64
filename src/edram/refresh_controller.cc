/**
 * @file
 * Implementation of the refresh controllers.
 */

#include "edram/refresh_controller.hh"

#include <algorithm>
#include <cmath>

#include "obs/metrics_registry.hh"
#include "util/logging.hh"

namespace rana {

namespace {

/** Registry instruments for refresh activity (created once). */
struct RefreshMetrics
{
    MetricsRegistry::Counter &pulsesIssued;
    MetricsRegistry::Counter &pulsesSuppressed;
    MetricsRegistry::Counter &words;

    static RefreshMetrics &
    get()
    {
        static RefreshMetrics *metrics = new RefreshMetrics{
            MetricsRegistry::global().counter(
                "edram_refresh_pulses_issued_total"),
            MetricsRegistry::global().counter(
                "edram_refresh_pulses_suppressed_total"),
            MetricsRegistry::global().counter(
                "edram_refresh_words_total"),
        };
        return *metrics;
    }
};

} // namespace

const char *
refreshPolicyName(RefreshPolicy policy)
{
    switch (policy) {
      case RefreshPolicy::None:
        return "none";
      case RefreshPolicy::ConventionalAll:
        return "conventional";
      case RefreshPolicy::GatedGlobal:
        return "gated-global";
      case RefreshPolicy::PerBank:
        return "per-bank";
    }
    panic("unreachable refresh policy");
}

bool
dataNeedsRefresh(const LayerRefreshDemand &demand, DataType type,
                 double interval_seconds)
{
    const auto index = static_cast<std::size_t>(type);
    return demand.allocation.words[index] > 0 &&
           demand.lifetimeSeconds[index] >= interval_seconds;
}

std::uint64_t
refreshPulses(double duration_seconds, double interval_seconds)
{
    if (interval_seconds <= 0.0)
        return 0;
    return static_cast<std::uint64_t>(std::floor(
        duration_seconds / interval_seconds * (1.0 + 1e-12) + 1e-12));
}

std::uint64_t
refreshOpsForLayer(RefreshPolicy policy, const BufferGeometry &geometry,
                   const LayerRefreshDemand &demand,
                   double interval_seconds)
{
    if (policy == RefreshPolicy::None ||
        !macroParams(geometry.technology).needsRefresh) {
        return 0;
    }
    RANA_ASSERT(interval_seconds > 0.0,
                "refresh interval must be positive");

    const std::uint64_t pulses =
        refreshPulses(demand.layerSeconds, interval_seconds);
    if (pulses == 0)
        return 0;

    const std::uint64_t bank_words = geometry.bankWords();
    switch (policy) {
      case RefreshPolicy::ConventionalAll:
        return geometry.capacityWords() * pulses;
      case RefreshPolicy::GatedGlobal: {
        bool any_needed = false;
        for (std::size_t i = 0; i < numDataTypes; ++i) {
            any_needed |= dataNeedsRefresh(
                demand, static_cast<DataType>(i), interval_seconds);
        }
        return any_needed ? geometry.capacityWords() * pulses : 0;
      }
      case RefreshPolicy::PerBank: {
        std::uint64_t words = 0;
        for (std::size_t i = 0; i < numDataTypes; ++i) {
            if (dataNeedsRefresh(demand, static_cast<DataType>(i),
                                 interval_seconds)) {
                words += static_cast<std::uint64_t>(
                             demand.allocation.banks[i]) *
                         bank_words;
            }
        }
        return words * pulses;
      }
      case RefreshPolicy::None:
        break;
    }
    panic("unreachable refresh policy in refreshOpsForLayer");
}

std::array<bool, numDataTypes>
refreshFlagsForLayer(const LayerRefreshDemand &demand,
                     double interval_seconds)
{
    std::array<bool, numDataTypes> flags = {false, false, false};
    for (std::size_t i = 0; i < numDataTypes; ++i) {
        flags[i] = dataNeedsRefresh(demand, static_cast<DataType>(i),
                                    interval_seconds);
    }
    return flags;
}

RefreshControllerSim::RefreshControllerSim(const BufferGeometry &geometry,
                                           RefreshPolicy policy,
                                           double reference_hz,
                                           double interval_seconds)
    : geometry_(geometry),
      policy_(policy),
      divider_(reference_hz)
{
    if (policy_ != RefreshPolicy::None)
        divider_.setInterval(interval_seconds);
    unusedBanks_ = geometry.numBanks;
    nextPulse_ = divider_.pulsePeriod();
}

void
RefreshControllerSim::startAt(double seconds)
{
    RANA_ASSERT(now_ == 0.0 && refreshOps_ == 0 && violations_ == 0,
                "startAt needs a fresh controller");
    now_ = seconds;
    nextPulse_ = seconds + divider_.pulsePeriod();
}

void
RefreshControllerSim::beginLayer(const BankAllocation &allocation,
                                 const std::array<bool, numDataTypes> &flags,
                                 bool gate_on, double now)
{
    advanceTo(now);
    for (std::size_t i = 0; i < numDataTypes; ++i) {
        types_[i].banks = allocation.banks[i];
        types_[i].refreshFlag = flags[i];
        types_[i].holdsData = false;
        types_[i].lastRefresh = now;
        types_[i].refreshed = false;
        types_[i].guardArmed = false;
        types_[i].ownInterval = 0.0;
        types_[i].nextOwnPulse = 0.0;
        types_[i].cleanSinceRefresh = true;
    }
    unusedBanks_ = allocation.unusedBanks;
    if (guard_ != nullptr)
        guard_->beginLayer();
    gateOn_ = gate_on;
    // The controller restarts its pulse counter when a layer's
    // configuration is loaded.
    nextPulse_ = now + divider_.pulsePeriod();
}

void
RefreshControllerSim::onWrite(DataType type, double now)
{
    advanceTo(now);
    types_[static_cast<std::size_t>(type)].holdsData = true;
}

void
RefreshControllerSim::onRead(DataType type, double now,
                             double data_write_time)
{
    advanceTo(now);
    if (policy_ == RefreshPolicy::None)
        return;
    auto &state = types_[static_cast<std::size_t>(type)];
    if (!state.holdsData)
        return;
    // The data's last recharge is the later of its own write and the
    // last refresh pulse covering its banks. Reading it older than
    // the tolerable retention time (= the programmed interval) would
    // observe retention failures beyond the tolerated rate.
    double last_recharge = data_write_time;
    if (state.refreshed)
        last_recharge = std::max(last_recharge, state.lastRefresh);
    const double period = divider_.pulsePeriod();
    if (now - last_recharge > period * (1.0 + 1e-9)) {
        if (guard_ != nullptr) {
            // Watchdog fallback: a per-bank watchdog armed at the
            // data's last recharge would have refreshed the banks
            // once per tolerable retention time, keeping every read
            // within tolerance. Account those pulses, re-enable the
            // type's refresh flag, and record the trip instead of a
            // violation.
            const auto pulses = static_cast<std::uint64_t>(
                std::floor((now - last_recharge) / period));
            const std::uint64_t ops =
                static_cast<std::uint64_t>(state.banks) *
                geometry_.bankWords() * pulses;
            refreshOps_ += ops;
            RefreshMetrics::get().words.add(ops);
            const bool reenabled = !state.refreshFlag;
            state.refreshFlag = true;
            state.lastRefresh =
                last_recharge + static_cast<double>(pulses) * period;
            state.refreshed = true;
            if (reenabled)
                state.guardArmed = true;
            state.cleanSinceRefresh = false;
            const GuardAction action = guard_->coverTrip(
                type, now - last_recharge, state.banks, reenabled,
                ops);
            if (action.kind == GuardActionKind::Escalate) {
                // The group moves onto its own divider-bin pulse
                // train; global pulses skip it from here on. The
                // train continues from the watchdog's last recharge.
                state.ownInterval = action.intervalSeconds;
                state.nextOwnPulse =
                    state.lastRefresh + state.ownInterval;
                if (state.nextOwnPulse <= now_) {
                    state.nextOwnPulse =
                        now_ + state.ownInterval;
                }
            }
            // KeepArmed changes nothing: a group already escalated
            // stays on its bin (the exhausted shortest bin), a
            // global-armed group stays on the global train.
        } else {
            ++violations_;
        }
    }
}

void
RefreshControllerSim::advanceTo(double now)
{
    // Tolerate floating-point jitter from differently-associated
    // time computations (a + i*t vs. (a + (i-1)*t) + t).
    const double slack = 1e-9 * std::max(1.0, std::abs(now_));
    RANA_ASSERT(now + slack >= now_, "time must not run backwards");
    if (now < now_)
        now = now_;
    if (policy_ == RefreshPolicy::None) {
        now_ = now;
        return;
    }
    for (;;) {
        // Earliest due event: the global divider tick or an
        // escalated group's own pulse. Ties go to the global pulse,
        // then the lowest type index, so the event order (and with
        // it every counter) is deterministic.
        double when = nextPulse_;
        std::size_t own = numDataTypes;
        for (std::size_t i = 0; i < numDataTypes; ++i) {
            if (types_[i].ownInterval > 0.0 &&
                types_[i].nextOwnPulse < when) {
                when = types_[i].nextOwnPulse;
                own = i;
            }
        }
        if (when > now + 1e-15)
            break;
        now_ = when;
        if (own == numDataTypes) {
            issuePulse();
            nextPulse_ += divider_.pulsePeriod();
        } else {
            issueOwnPulse(own);
        }
    }
    now_ = now;
}

void
RefreshControllerSim::consultCleanInterval(TypeState &state,
                                           DataType type)
{
    const bool clean = state.cleanSinceRefresh;
    state.cleanSinceRefresh = true;
    if (!clean)
        return;
    const GuardAction action =
        guard_->cleanInterval(type, state.banks);
    if (action.kind == GuardActionKind::Redisarm) {
        // Only a guard-armed flag may be cleared; the caller never
        // consults the policy for config-armed groups.
        state.refreshFlag = false;
        state.guardArmed = false;
        state.ownInterval = 0.0;
        state.nextOwnPulse = 0.0;
    }
}

std::uint64_t
RefreshControllerSim::refreshFlaggedType(TypeState &state,
                                         DataType type)
{
    if (!state.refreshFlag || state.banks == 0)
        return 0;
    if (state.ownInterval > 0.0) {
        // Escalated groups refresh on their own pulse train.
        return 0;
    }
    const std::uint64_t words =
        static_cast<std::uint64_t>(state.banks) *
        geometry_.bankWords();
    state.lastRefresh = now_;
    state.refreshed = true;
    if (state.guardArmed && guard_ != nullptr) {
        guard_->recordArmedRefresh(words);
        consultCleanInterval(state, type);
    }
    return words;
}

void
RefreshControllerSim::issueOwnPulse(std::size_t index)
{
    TypeState &state = types_[index];
    state.nextOwnPulse += state.ownInterval;
    if (!state.refreshFlag || state.banks == 0)
        return;
    const std::uint64_t words =
        static_cast<std::uint64_t>(state.banks) *
        geometry_.bankWords();
    state.lastRefresh = now_;
    state.refreshed = true;
    refreshOps_ += words;
    RefreshMetrics &metrics = RefreshMetrics::get();
    metrics.pulsesIssued.add();
    metrics.words.add(words);
    if (guard_ != nullptr) {
        guard_->recordArmedRefresh(words);
        consultCleanInterval(state, static_cast<DataType>(index));
    }
    if (pulseListener_)
        pulseListener_(now_, words);
}

void
RefreshControllerSim::issuePulse()
{
    std::uint64_t words = 0;
    switch (policy_) {
      case RefreshPolicy::None:
        return;
      case RefreshPolicy::ConventionalAll:
        words = geometry_.capacityWords();
        for (auto &state : types_) {
            state.lastRefresh = now_;
            state.refreshed = true;
        }
        break;
      case RefreshPolicy::GatedGlobal:
        if (gateOn_) {
            words = geometry_.capacityWords();
            for (auto &state : types_) {
                state.lastRefresh = now_;
                state.refreshed = true;
            }
        } else {
            // A gated-off layer refreshes nothing by itself, but
            // banks the reliability guard re-enabled fall back to
            // per-bank refresh (with the guard policy consulted on
            // each clean interval).
            for (std::size_t i = 0; i < numDataTypes; ++i) {
                words += refreshFlaggedType(types_[i],
                                            static_cast<DataType>(i));
            }
        }
        break;
      case RefreshPolicy::PerBank:
        for (std::size_t i = 0; i < numDataTypes; ++i) {
            words += refreshFlaggedType(types_[i],
                                        static_cast<DataType>(i));
        }
        break;
    }
    refreshOps_ += words;
    RefreshMetrics &metrics = RefreshMetrics::get();
    if (words > 0) {
        metrics.pulsesIssued.add();
        metrics.words.add(words);
    } else {
        // The divider ticked but the gate was off / no bank was
        // flagged — the energy the optimized controller saves.
        metrics.pulsesSuppressed.add();
    }
    if (pulseListener_)
        pulseListener_(now_, words);
}

} // namespace rana
