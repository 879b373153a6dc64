/**
 * @file
 * 16-bit fixed-point quantization for hardware-faithful training.
 *
 * The accelerator computes in 16-bit fixed point (Table I/III), so
 * the retention-aware training method first trains the network in
 * fixed-point precision and then injects bit-level retention errors
 * into the stored 16-bit words. This header provides the Q-format
 * conversion between floats and the int16 words the buffers hold.
 */

#ifndef RANA_TRAIN_FIXED_POINT_HH_
#define RANA_TRAIN_FIXED_POINT_HH_

#include <cstdint>

#include "train/tensor.hh"

namespace rana {

/** A signed 16-bit Qm.f fixed-point format. */
struct FixedPointFormat
{
    /** Fractional bits f; the integer part gets 15 - f bits. */
    std::uint32_t fracBits = 10;

    /** Scale factor 2^f. */
    double scale() const;
    /** Largest representable value. */
    double maxValue() const;
    /** Smallest representable value. */
    double minValue() const;

    /** Quantize a float to the nearest representable word. */
    std::int16_t quantize(float value) const;
    /** Convert a word back to float. */
    float dequantize(std::int16_t word) const;

    /** Round-trip a float through the format (quantize-dequantize). */
    float roundTrip(float value) const;
};

/**
 * Quantize-dequantize every element in place: roundTrip per element,
 * computed by quantizeTrialSpan.
 */
void quantizeTensor(Tensor &tensor, const FixedPointFormat &format);

} // namespace rana

#endif // RANA_TRAIN_FIXED_POINT_HH_
