/**
 * @file
 * A CNN model as an ordered list of CONV layers.
 *
 * The paper's acceleration analysis covers CONV layers only (Section
 * II-A): CONV layers dominate runtime and the other layer types are
 * executed by transformation to the CONV form. Accordingly a
 * NetworkModel records the CONV layers of a network with the exact
 * shapes they see for a 224x224x3 ImageNet input, in execution order.
 */

#ifndef RANA_NN_NETWORK_MODEL_HH_
#define RANA_NN_NETWORK_MODEL_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "nn/conv_layer_spec.hh"

namespace rana {

/** An ordered collection of CONV layers plus summary queries. */
class NetworkModel
{
  public:
    NetworkModel() = default;

    /** @param name network name, e.g. "ResNet". */
    explicit NetworkModel(std::string name);

    /** Append a layer (validated). */
    void addLayer(ConvLayerSpec layer);

    /** Network name. */
    const std::string &name() const { return name_; }

    /** All layers in execution order. */
    const std::vector<ConvLayerSpec> &layers() const { return layers_; }

    /** Number of layers. */
    std::size_t size() const { return layers_.size(); }

    /** Layer by index. @pre index < size(). */
    const ConvLayerSpec &layer(std::size_t index) const;

    /**
     * Find a layer by name.
     * @return the layer; calls fatal() if absent.
     */
    const ConvLayerSpec &findLayer(const std::string &layer_name) const;

    /** Largest per-layer input storage over all layers, in words. */
    std::uint64_t maxInputWords() const;
    /** Largest per-layer output storage over all layers, in words. */
    std::uint64_t maxOutputWords() const;
    /** Largest per-layer weight storage over all layers, in words. */
    std::uint64_t maxWeightWords() const;

    /** Total MAC operations across all layers. */
    std::uint64_t totalMacs() const;

  private:
    std::string name_;
    std::vector<ConvLayerSpec> layers_;
};

} // namespace rana

#endif // RANA_NN_NETWORK_MODEL_HH_
