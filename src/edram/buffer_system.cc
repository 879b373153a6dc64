/**
 * @file
 * Implementation of the unified buffer system.
 */

#include "edram/buffer_system.hh"

#include <sstream>

#include "util/logging.hh"
#include "util/units.hh"

namespace rana {

const char *
dataTypeName(DataType type)
{
    switch (type) {
      case DataType::Input:
        return "inputs";
      case DataType::Output:
        return "outputs";
      case DataType::Weight:
        return "weights";
    }
    panic("unreachable data type");
}

std::uint64_t
BufferGeometry::bankWords() const
{
    return bankBytes / bytesPerWord;
}

std::uint64_t
BufferGeometry::capacityWords() const
{
    return static_cast<std::uint64_t>(numBanks) * bankWords();
}

std::uint64_t
BufferGeometry::capacityBytes() const
{
    return static_cast<std::uint64_t>(numBanks) * bankBytes;
}

std::string
BufferGeometry::describe() const
{
    std::ostringstream oss;
    oss << numBanks << " x " << formatBytes(bankBytes) << " "
        << memoryTechnologyName(technology) << " ("
        << formatBytes(capacityBytes()) << ")";
    return oss.str();
}

std::uint64_t
BankAllocation::wordsOf(DataType type) const
{
    return words[static_cast<std::size_t>(type)];
}

std::uint32_t
BankAllocation::banksOf(DataType type) const
{
    return banks[static_cast<std::size_t>(type)];
}

std::uint32_t
BankAllocation::totalBanks() const
{
    return banks[0] + banks[1] + banks[2] + unusedBanks;
}

Result<BankAllocation>
allocateBanksChecked(const BufferGeometry &geometry,
                     std::uint64_t input_words,
                     std::uint64_t output_words,
                     std::uint64_t weight_words)
{
    const std::uint64_t bank_words = geometry.bankWords();
    RANA_ASSERT(bank_words > 0, "bank size must be positive");

    BankAllocation alloc;
    alloc.words = {input_words, output_words, weight_words};
    std::uint64_t banks_needed = 0;
    for (std::size_t i = 0; i < numDataTypes; ++i) {
        const std::uint64_t b =
            (alloc.words[i] + bank_words - 1) / bank_words;
        alloc.banks[i] = static_cast<std::uint32_t>(b);
        banks_needed += b;
    }
    if (banks_needed > geometry.numBanks) {
        return makeError(ErrorCode::Infeasible,
                         "bank allocation overflow: need ",
                         banks_needed, " banks but the buffer has ",
                         geometry.numBanks, " (inputs ", input_words,
                         "w, outputs ", output_words, "w, weights ",
                         weight_words, "w)");
    }
    alloc.unusedBanks =
        geometry.numBanks - static_cast<std::uint32_t>(banks_needed);
    return alloc;
}

} // namespace rana
