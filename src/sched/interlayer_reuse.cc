/**
 * @file
 * Implementation of inter-layer output reuse.
 */

#include "sched/interlayer_reuse.hh"

#include <algorithm>
#include <cmath>

#include "energy/energy_table.hh"
#include "util/logging.hh"

namespace rana {

double
InterLayerReuseResult::totalSavedDramWords() const
{
    double total = 0.0;
    for (const FusedPair &pair : fusions)
        total += pair.savedDramWords;
    return total;
}

double
InterLayerReuseResult::savingFraction() const
{
    const double original = originalEnergy.total();
    return original > 0.0
               ? 1.0 - adjustedEnergy.total() / original
               : 0.0;
}

bool
layersChain(const ConvLayerSpec &producer, const ConvLayerSpec &consumer)
{
    return consumer.n == producer.m && consumer.h == producer.r() &&
           consumer.l == producer.c();
}

InterLayerReuseResult
applyInterLayerReuse(const AcceleratorConfig &config,
                     const NetworkModel &network,
                     const NetworkSchedule &schedule)
{
    RANA_ASSERT(schedule.layers.size() == network.size(),
                "schedule does not match network");
    const EnergyTable table =
        energyTable65nm(config.buffer.technology);
    const double interval = schedule.refreshIntervalSeconds;
    const std::uint64_t bank_words = config.buffer.bankWords();

    InterLayerReuseResult result;
    result.adjustedCounts.reserve(schedule.layers.size());
    for (const LayerSchedule &layer : schedule.layers) {
        result.adjustedCounts.push_back(layer.counts);
        result.originalEnergy += layer.energy;
    }

    for (std::size_t i = 0; i + 1 < network.size(); ++i) {
        const ConvLayerSpec &producer = network.layer(i);
        const ConvLayerSpec &consumer = network.layer(i + 1);
        if (!layersChain(producer, consumer))
            continue;

        const LayerSchedule &prod_sched = schedule.layers[i];
        const LayerSchedule &cons_sched = schedule.layers[i + 1];
        const TypeAnalysis &prod_out =
            prod_sched.analysis.of(DataType::Output);
        const TypeAnalysis &cons_in =
            cons_sched.analysis.of(DataType::Input);

        // The producer must hold its complete output set on chip.
        const std::uint64_t held_words = producer.outputWords();
        if (prod_out.residentFraction < 1.0 ||
            prod_out.storageWords < held_words) {
            continue;
        }

        // The consumer must be able to read from the held banks in
        // place of its own input region: swap its input banks for
        // the held banks and check the pool still fits.
        const BankAllocation cons_alloc =
            analysisBankAllocation(config, cons_sched.analysis);
        const std::uint64_t held_banks =
            (held_words + bank_words - 1) / bank_words;
        const std::uint64_t cons_other_banks =
            cons_alloc.totalBanks() - cons_alloc.unusedBanks -
            cons_alloc.banksOf(DataType::Input);
        if (cons_other_banks + held_banks > config.buffer.numBanks)
            continue;

        // Off-chip words removed: the producer's final output drain
        // and every consumer input fetch (including halo re-reads,
        // which now hit the buffer).
        const double saved_dram =
            prod_out.dramWriteWords + cons_in.dramReadWords;

        // Carried lifetime of the kept outputs: from their final
        // accumulation (spread over the producer's last outer pass
        // when the dataflow accumulates outputs across the outermost
        // loop, the whole layer otherwise) to the consumer's last
        // read.
        const double producer_tail =
            prod_sched.analysis.spec().outputsAccumulateAcrossOuter()
                ? prod_sched.analysis.levelSeconds[1]
                : prod_sched.analysis.layerSeconds;
        const double carried =
            producer_tail + cons_sched.analysis.layerSeconds;

        // Refresh delta on the consumer: the held region ages over
        // the whole carried window (producer tail through consumer),
        // so its refresh pulses are counted over `carried`, not just
        // the consumer's runtime.
        std::uint64_t added_refresh = 0;
        const bool needs_refresh = carried >= interval;
        const std::uint64_t held_pulses =
            needs_refresh ? refreshPulses(carried, interval) : 0;
        const std::uint64_t cons_pulses = refreshPulses(
            cons_sched.analysis.layerSeconds, interval);
        switch (schedule.policy) {
          case RefreshPolicy::None:
            break;
          case RefreshPolicy::ConventionalAll:
            break; // Everything refreshes anyway.
          case RefreshPolicy::GatedGlobal:
            if (needs_refresh && !cons_sched.gateOn) {
                added_refresh = config.buffer.capacityWords() *
                                std::max<std::uint64_t>(held_pulses,
                                                        1);
            }
            break;
          case RefreshPolicy::PerBank: {
            const std::uint64_t held_refresh =
                held_banks * bank_words * held_pulses;
            const std::uint64_t original_input_refresh =
                cons_sched.refreshFlags[static_cast<std::size_t>(
                    DataType::Input)]
                    ? static_cast<std::uint64_t>(
                          cons_alloc.banksOf(DataType::Input)) *
                          bank_words * cons_pulses
                    : 0;
            added_refresh = held_refresh > original_input_refresh
                                ? held_refresh -
                                      original_input_refresh
                                : 0;
            break;
          }
        }

        // Energy balance: each saved DRAM word also removes its
        // buffer staging access.
        const double saved_energy =
            saved_dram * (table.ddrAccess + table.bufferAccess) -
            static_cast<double>(added_refresh) * table.refreshOp;
        if (saved_energy <= 0.0)
            continue;

        // Apply.
        FusedPair pair;
        pair.producer = i;
        pair.consumer = i + 1;
        pair.savedDramWords = saved_dram;
        pair.addedRefreshOps = added_refresh;
        pair.savedEnergy = saved_energy;
        pair.carriedLifetimeSeconds = carried;
        result.fusions.push_back(pair);

        auto &prod_counts = result.adjustedCounts[i];
        auto &cons_counts = result.adjustedCounts[i + 1];
        const auto out_writes = static_cast<std::uint64_t>(
            std::llround(prod_out.dramWriteWords));
        const auto in_reads = static_cast<std::uint64_t>(
            std::llround(cons_in.dramReadWords));
        prod_counts.ddrAccesses -= out_writes;
        prod_counts.bufferAccesses -= out_writes;
        cons_counts.ddrAccesses -= in_reads;
        cons_counts.bufferAccesses -= in_reads;
        cons_counts.refreshOps += added_refresh;
    }

    for (const OperationCounts &counts : result.adjustedCounts)
        result.adjustedEnergy += computeEnergy(counts, table);
    return result;
}

} // namespace rana
