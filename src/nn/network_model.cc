/**
 * @file
 * Implementation of NetworkModel.
 */

#include "nn/network_model.hh"

#include <algorithm>

#include "util/logging.hh"

namespace rana {

NetworkModel::NetworkModel(std::string name) : name_(std::move(name))
{
}

void
NetworkModel::addLayer(ConvLayerSpec layer)
{
    layer.validate();
    layers_.push_back(std::move(layer));
}

const ConvLayerSpec &
NetworkModel::layer(std::size_t index) const
{
    RANA_ASSERT(index < layers_.size(), "layer index out of range in ",
                name_);
    return layers_[index];
}

const ConvLayerSpec &
NetworkModel::findLayer(const std::string &layer_name) const
{
    auto it = std::find_if(layers_.begin(), layers_.end(),
                           [&layer_name](const ConvLayerSpec &spec) {
                               return spec.name == layer_name;
                           });
    if (it == layers_.end())
        fatal("no layer named '", layer_name, "' in network ", name_);
    return *it;
}

std::uint64_t
NetworkModel::maxInputWords() const
{
    std::uint64_t best = 0;
    for (const auto &layer : layers_)
        best = std::max(best, layer.inputWords());
    return best;
}

std::uint64_t
NetworkModel::maxOutputWords() const
{
    std::uint64_t best = 0;
    for (const auto &layer : layers_)
        best = std::max(best, layer.outputWords());
    return best;
}

std::uint64_t
NetworkModel::maxWeightWords() const
{
    std::uint64_t best = 0;
    for (const auto &layer : layers_)
        best = std::max(best, layer.weightWords());
    return best;
}

std::uint64_t
NetworkModel::totalMacs() const
{
    std::uint64_t total = 0;
    for (const auto &layer : layers_)
        total += layer.macs();
    return total;
}

} // namespace rana
