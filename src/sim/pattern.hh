/**
 * @file
 * Loop axes and tiling parameters of the core computing part
 * (Section IV-C, Figure 10).
 *
 * Three memory-control loops surround the core: Loop M over output
 * channel tiles, Loop N over input channel tiles and Loop RC over
 * output spatial tiles. A dataflow (sim/dataflow.hh) orders them; the
 * tiling <Tm, Tn, Tr, Tc> sets the tile shape processed by the core's
 * local storage per inner iteration.
 */

#ifndef RANA_SIM_PATTERN_HH_
#define RANA_SIM_PATTERN_HH_

#include <cstdint>
#include <string>

#include "nn/conv_layer_spec.hh"

namespace rana {

/** The three memory-control loops. */
enum class LoopAxis {
    M,
    RC,
    N,
};

/** Tiling parameters of the core computing part. */
struct Tiling
{
    std::uint32_t tm = 1;
    std::uint32_t tn = 1;
    std::uint32_t tr = 1;
    std::uint32_t tc = 1;

    /** "<Tm,Tn,Tr,Tc>" string. */
    std::string describe() const;

    bool operator==(const Tiling &other) const = default;
};

/**
 * Tiling clamped to the layer's dimensions (a tile never exceeds
 * M/N/R/C).
 */
Tiling clampTiling(const Tiling &tiling, const ConvLayerSpec &layer);

/** Loop trip counts of a tiled layer (ceil division). */
struct TripCounts
{
    std::uint64_t nm = 1;
    std::uint64_t nn = 1;
    std::uint64_t nr = 1;
    std::uint64_t nc = 1;

    /** Nrc = Nr * Nc. */
    std::uint64_t nrc() const { return nr * nc; }
    /** Total inner tiles Nm * Nn * Nrc. */
    std::uint64_t total() const { return nm * nn * nrc(); }
};

/** Compute trip counts for a layer under a tiling. */
TripCounts tripCounts(const ConvLayerSpec &layer, const Tiling &tiling);

/** Trip count of one loop axis. */
std::uint64_t tripOf(const TripCounts &trips, LoopAxis axis);

/** Per-tile word counts for the three data types. */
struct TileSizes
{
    /** Input patch Tn * Th * Tl where Th/Tl include the halo. */
    std::uint64_t input = 0;
    /** Output tile Tm * Tr * Tc. */
    std::uint64_t output = 0;
    /** Weight tile Tm * Tn * K^2. */
    std::uint64_t weight = 0;
};

/** Compute per-tile sizes for a layer under a (clamped) tiling. */
TileSizes tileSizes(const ConvLayerSpec &layer, const Tiling &tiling);

} // namespace rana

#endif // RANA_SIM_PATTERN_HH_
