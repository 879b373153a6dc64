/**
 * @file
 * Unified on-chip buffer system: bank geometry and per-datatype bank
 * allocation (Section IV-D1).
 *
 * The accelerator's input/output/weight buffers are organized as a
 * single pool of 32KB banks. Before each layer runs, banks are
 * allocated to the three data types according to the layer's buffer
 * storage requirements (which depend on the computation pattern), so
 * e.g. OD layers dedicate most banks to outputs while WD layers
 * dedicate them to weights.
 */

#ifndef RANA_EDRAM_BUFFER_SYSTEM_HH_
#define RANA_EDRAM_BUFFER_SYSTEM_HH_

#include <array>
#include <cstdint>
#include <string>

#include "energy/technology.hh"
#include "util/result.hh"

namespace rana {

/** The three data types a CONV layer keeps in the buffers. */
enum class DataType {
    Input = 0,
    Output = 1,
    Weight = 2,
};

/** Number of DataType values. */
constexpr std::size_t numDataTypes = 3;

/** Name string for a DataType. */
const char *dataTypeName(DataType type);

/** Geometry of the unified buffer. */
struct BufferGeometry
{
    /** Buffer memory technology. */
    MemoryTechnology technology = MemoryTechnology::Edram;
    /** Number of banks in the pool. */
    std::uint32_t numBanks = 0;
    /** Capacity of one bank in bytes. */
    std::uint64_t bankBytes = 32 * 1024;

    /** One bank's capacity in 16-bit words. */
    std::uint64_t bankWords() const;
    /** Total pool capacity in 16-bit words. */
    std::uint64_t capacityWords() const;
    /** Total pool capacity in bytes. */
    std::uint64_t capacityBytes() const;

    /** Human-readable description, e.g. "46 x 32KB eDRAM". */
    std::string describe() const;
};

/**
 * Banks assigned to each data type for one layer.
 *
 * Allocation is bank-granular: a data type holding any words owns a
 * whole number of banks. Banks not owned by any type are unused for
 * the layer (but a conventional controller still refreshes them).
 */
struct BankAllocation
{
    /** Words required per data type (buffer storage requirement). */
    std::array<std::uint64_t, numDataTypes> words = {0, 0, 0};
    /** Banks assigned per data type. */
    std::array<std::uint32_t, numDataTypes> banks = {0, 0, 0};
    /** Banks left unused. */
    std::uint32_t unusedBanks = 0;

    /** Words requirement for one data type. */
    std::uint64_t wordsOf(DataType type) const;
    /** Banks assigned to one data type. */
    std::uint32_t banksOf(DataType type) const;
    /** Total banks in the pool (used + unused). */
    std::uint32_t totalBanks() const;
};

/**
 * Allocate banks for a layer's per-datatype storage requirements.
 *
 * Each data type receives ceil(words / bankWords) banks. Fails with
 * ErrorCode::Infeasible when the requirements do not fit the pool, so
 * exploratory callers (schedulers probing candidate tilings) can
 * reject the candidate instead of aborting the process.
 */
Result<BankAllocation>
allocateBanksChecked(const BufferGeometry &geometry,
                     std::uint64_t input_words,
                     std::uint64_t output_words,
                     std::uint64_t weight_words);

} // namespace rana

#endif // RANA_EDRAM_BUFFER_SYSTEM_HH_
