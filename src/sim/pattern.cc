/**
 * @file
 * Implementation of the tiling helpers.
 */

#include "sim/pattern.hh"

#include <algorithm>
#include <sstream>

#include "util/logging.hh"

namespace rana {

namespace {

std::uint64_t
ceilDiv(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

} // namespace

std::string
Tiling::describe() const
{
    std::ostringstream oss;
    oss << "<" << tm << "," << tn << "," << tr << "," << tc << ">";
    return oss.str();
}

Tiling
clampTiling(const Tiling &tiling, const ConvLayerSpec &layer)
{
    Tiling clamped;
    clamped.tm = std::min(tiling.tm, layer.m);
    clamped.tn = std::min(tiling.tn, layer.n);
    clamped.tr = std::min(tiling.tr, layer.r());
    clamped.tc = std::min(tiling.tc, layer.c());
    clamped.tm = std::max<std::uint32_t>(clamped.tm, 1);
    clamped.tn = std::max<std::uint32_t>(clamped.tn, 1);
    clamped.tr = std::max<std::uint32_t>(clamped.tr, 1);
    clamped.tc = std::max<std::uint32_t>(clamped.tc, 1);
    return clamped;
}

TripCounts
tripCounts(const ConvLayerSpec &layer, const Tiling &tiling)
{
    TripCounts trips;
    trips.nm = ceilDiv(layer.m, tiling.tm);
    trips.nn = ceilDiv(layer.n, tiling.tn);
    trips.nr = ceilDiv(layer.r(), tiling.tr);
    trips.nc = ceilDiv(layer.c(), tiling.tc);
    return trips;
}

std::uint64_t
tripOf(const TripCounts &trips, LoopAxis axis)
{
    switch (axis) {
      case LoopAxis::M:
        return trips.nm;
      case LoopAxis::RC:
        return trips.nrc();
      case LoopAxis::N:
        return trips.nn;
    }
    panic("unreachable loop axis");
}

TileSizes
tileSizes(const ConvLayerSpec &layer, const Tiling &tiling)
{
    TileSizes sizes;
    const std::uint64_t th = layer.inputPatchH(tiling.tr);
    const std::uint64_t tl = layer.inputPatchW(tiling.tc);
    sizes.input = static_cast<std::uint64_t>(tiling.tn) * th * tl;
    sizes.output =
        static_cast<std::uint64_t>(tiling.tm) * tiling.tr * tiling.tc;
    sizes.weight = static_cast<std::uint64_t>(tiling.tm) * tiling.tn *
                   layer.k * layer.k;
    return sizes;
}

} // namespace rana
