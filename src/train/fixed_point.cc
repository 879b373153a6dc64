/**
 * @file
 * Implementation of the fixed-point format.
 */

#include "train/fixed_point.hh"

#include <algorithm>
#include <cmath>

#include "train/trial_batch.hh"
#include "util/logging.hh"

namespace rana {

double
FixedPointFormat::scale() const
{
    return static_cast<double>(1u << fracBits);
}

double
FixedPointFormat::maxValue() const
{
    return 32767.0 / scale();
}

double
FixedPointFormat::minValue() const
{
    return -32768.0 / scale();
}

std::int16_t
FixedPointFormat::quantize(float value) const
{
    RANA_ASSERT(fracBits <= 15, "at most 15 fractional bits");
    const double scaled = std::round(static_cast<double>(value) *
                                     scale());
    const double clamped = std::clamp(scaled, -32768.0, 32767.0);
    return static_cast<std::int16_t>(clamped);
}

float
FixedPointFormat::dequantize(std::int16_t word) const
{
    return static_cast<float>(static_cast<double>(word) / scale());
}

float
FixedPointFormat::roundTrip(float value) const
{
    return dequantize(quantize(value));
}

void
quantizeTensor(Tensor &tensor, const FixedPointFormat &format)
{
    quantizeTrialSpan(tensor.data(), tensor.size(), format);
}

} // namespace rana
