/**
 * @file
 * The four benchmark CNNs used in the paper: AlexNet, VGG-16,
 * GoogLeNet (v1) and ResNet-50, all for a 224x224x3 input at 16-bit
 * precision, CONV layers only.
 *
 * ResNet is ResNet-50: the paper's running example Layer-A is
 * "res4a_branch1" (N=512, 28x28 input, M=1024, K=1, S=2), which only
 * exists in the 50-layer bottleneck variant. Layer-B is "vgg_conv9",
 * i.e. VGG-16's ninth CONV layer conv4_2 (N=M=512, 28x28, K=3).
 *
 * AlexNet's two-group convolutions (conv2/conv4/conv5) are expanded
 * into one spec per group so every downstream component sees dense
 * convolutions with the true per-group channel counts.
 */

#ifndef RANA_NN_MODEL_ZOO_HH_
#define RANA_NN_MODEL_ZOO_HH_

#include <string>
#include <vector>

#include "nn/network_model.hh"
#include "util/result.hh"

namespace rana {

/** AlexNet (Krizhevsky et al.), 5 CONV layers, groups expanded. */
NetworkModel makeAlexNet();

/** VGG-16 (Simonyan & Zisserman), 13 CONV layers. */
NetworkModel makeVgg16();

/** GoogLeNet v1 (Szegedy et al.), stem + 9 inception modules. */
NetworkModel makeGoogLeNet();

/** ResNet-50 (He et al.), 53 CONV layers. */
NetworkModel makeResNet50();

/**
 * ResNet-18 (basic blocks, stages 2/2/2/2): 20 CONV layers. Not a
 * paper benchmark; included because its back-to-back 3x3 blocks are
 * the natural workload for the inter-layer reuse extension.
 */
NetworkModel makeResNet18();

/** ResNet-34 (basic blocks, stages 3/4/6/3): 36 CONV layers. */
NetworkModel makeResNet34();

/**
 * VGG-16 for an arbitrary square input resolution (a multiple of 32
 * so the five pooling stages divide evenly). The paper's Section I
 * notes that layer storage "will greatly increase when the networks
 * process higher resolution images"; this builder drives that
 * experiment.
 */
NetworkModel makeVgg16AtResolution(std::uint32_t input_hw);

/** ResNet-50 for an arbitrary square input (a multiple of 32). */
NetworkModel makeResNet50AtResolution(std::uint32_t input_hw);

/** All four benchmarks in the paper's order. */
std::vector<NetworkModel> makeBenchmarkSuite();

/**
 * Look up one benchmark by its paper name ("AlexNet", "VGG",
 * "GoogLeNet", "ResNet"); fails with ErrorCode::InvalidArgument for
 * unknown names.
 */
Result<NetworkModel> makeBenchmarkChecked(const std::string &name);

} // namespace rana

#endif // RANA_NN_MODEL_ZOO_HH_
