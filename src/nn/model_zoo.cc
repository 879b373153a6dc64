/**
 * @file
 * Layer tables for the four benchmark CNNs.
 *
 * Shapes follow the original publications with the standard ImageNet
 * input (224x224x3). Pooling layers are not listed (the paper's
 * analysis covers CONV layers; pooling only changes the spatial size
 * seen by the next CONV layer, which is reflected in the tables).
 */

#include "nn/model_zoo.hh"

#include <array>

#include "util/logging.hh"

namespace rana {

namespace {

/**
 * Append one grouped convolution as `groups` dense sub-layers, each
 * seeing n/groups input channels and producing m/groups outputs.
 */
void
addGroupedConv(NetworkModel &net, const std::string &name,
               std::uint32_t n, std::uint32_t hw, std::uint32_t m,
               std::uint32_t k, std::uint32_t stride, std::uint32_t pad,
               std::uint32_t groups)
{
    RANA_ASSERT(n % groups == 0 && m % groups == 0,
                "channel counts not divisible by groups in ", name);
    for (std::uint32_t g = 0; g < groups; ++g) {
        std::string sub = groups == 1 ? name
                                      : name + "_g" + std::to_string(g);
        net.addLayer(makeConv(sub, n / groups, hw, m / groups, k,
                              stride, pad));
    }
}

/**
 * Append the six convolutions of one GoogLeNet inception module.
 *
 * @param net    network under construction
 * @param name   module name, e.g. "3a"
 * @param in     input channel count
 * @param hw     input spatial size
 * @param c1     1x1 branch output channels
 * @param c3r    3x3-reduce (1x1) output channels
 * @param c3     3x3 branch output channels
 * @param c5r    5x5-reduce (1x1) output channels
 * @param c5     5x5 branch output channels
 * @param cp     pool-projection (1x1) output channels
 */
void
addInception(NetworkModel &net, const std::string &name, std::uint32_t in,
             std::uint32_t hw, std::uint32_t c1, std::uint32_t c3r,
             std::uint32_t c3, std::uint32_t c5r, std::uint32_t c5,
             std::uint32_t cp)
{
    const std::string p = "inception_" + name + "/";
    net.addLayer(makeConv(p + "1x1", in, hw, c1, 1));
    net.addLayer(makeConv(p + "3x3_reduce", in, hw, c3r, 1));
    net.addLayer(makeConv(p + "3x3", c3r, hw, c3, 3, 1, 1));
    net.addLayer(makeConv(p + "5x5_reduce", in, hw, c5r, 1));
    net.addLayer(makeConv(p + "5x5", c5r, hw, c5, 5, 1, 2));
    net.addLayer(makeConv(p + "pool_proj", in, hw, cp, 1));
}

/**
 * Append one ResNet-50 bottleneck block (1x1 -> 3x3 -> 1x1), plus
 * the 1x1 projection shortcut (branch1) when `project` is set.
 *
 * @param net     network under construction
 * @param name    block name, e.g. "res4a"
 * @param in      input channel count
 * @param hw      input spatial size
 * @param mid     bottleneck channel count
 * @param out     block output channel count
 * @param stride  stride of the first convolution (and of branch1)
 * @param project whether the block has a projection shortcut
 */
void
addBottleneck(NetworkModel &net, const std::string &name, std::uint32_t in,
              std::uint32_t hw, std::uint32_t mid, std::uint32_t out,
              std::uint32_t stride, bool project)
{
    if (project) {
        net.addLayer(makeConv(name + "_branch1", in, hw, out, 1,
                              stride, 0));
    }
    net.addLayer(makeConv(name + "_branch2a", in, hw, mid, 1, stride, 0));
    const std::uint32_t hw_mid = (hw - 1) / stride + 1;
    net.addLayer(makeConv(name + "_branch2b", mid, hw_mid, mid, 3, 1, 1));
    net.addLayer(makeConv(name + "_branch2c", mid, hw_mid, out, 1, 1, 0));
}

} // namespace

NetworkModel
makeAlexNet()
{
    NetworkModel net("AlexNet");
    // conv1: 224x224x3, 96 kernels of 11x11, stride 4, pad 2 -> 55x55.
    addGroupedConv(net, "conv1", 3, 224, 96, 11, 4, 2, 1);
    // pool1: 55 -> 27.
    addGroupedConv(net, "conv2", 96, 27, 256, 5, 1, 2, 2);
    // pool2: 27 -> 13.
    addGroupedConv(net, "conv3", 256, 13, 384, 3, 1, 1, 1);
    addGroupedConv(net, "conv4", 384, 13, 384, 3, 1, 1, 2);
    addGroupedConv(net, "conv5", 384, 13, 256, 3, 1, 1, 2);
    return net;
}

NetworkModel
makeVgg16AtResolution(std::uint32_t input_hw)
{
    RANA_ASSERT(input_hw >= 32 && input_hw % 32 == 0,
                "VGG input must be a positive multiple of 32");
    NetworkModel net(input_hw == 224
                         ? "VGG"
                         : "VGG@" + std::to_string(input_hw));
    struct Stage { std::uint32_t in, out, count; };
    // Five stages of 3x3/s1/p1 convolutions with 2x pooling between.
    const Stage stages[] = {
        {3, 64, 2},    {64, 128, 2},  {128, 256, 3},
        {256, 512, 3}, {512, 512, 3},
    };
    std::uint32_t hw = input_hw;
    int stage_index = 1;
    for (const auto &stage : stages) {
        std::uint32_t in = stage.in;
        for (std::uint32_t i = 0; i < stage.count; ++i) {
            std::string name = "conv" + std::to_string(stage_index) +
                               "_" + std::to_string(i + 1);
            net.addLayer(makeConv(name, in, hw, stage.out, 3, 1, 1));
            in = stage.out;
        }
        hw /= 2;
        ++stage_index;
    }
    return net;
}

NetworkModel
makeVgg16()
{
    return makeVgg16AtResolution(224);
}

NetworkModel
makeGoogLeNet()
{
    NetworkModel net("GoogLeNet");
    // Stem: conv1 7x7/2 -> 112, pool -> 56, conv2 reduce + 3x3, pool
    // -> 28.
    net.addLayer(makeConv("conv1/7x7_s2", 3, 224, 64, 7, 2, 3));
    net.addLayer(makeConv("conv2/3x3_reduce", 64, 56, 64, 1));
    net.addLayer(makeConv("conv2/3x3", 64, 56, 192, 3, 1, 1));
    // Inception 3a/3b at 28x28.
    addInception(net, "3a", 192, 28, 64, 96, 128, 16, 32, 32);
    addInception(net, "3b", 256, 28, 128, 128, 192, 32, 96, 64);
    // pool -> 14. Inception 4a..4e at 14x14.
    addInception(net, "4a", 480, 14, 192, 96, 208, 16, 48, 64);
    addInception(net, "4b", 512, 14, 160, 112, 224, 24, 64, 64);
    addInception(net, "4c", 512, 14, 128, 128, 256, 24, 64, 64);
    addInception(net, "4d", 512, 14, 112, 144, 288, 32, 64, 64);
    addInception(net, "4e", 528, 14, 256, 160, 320, 32, 128, 128);
    // pool -> 7. Inception 5a/5b at 7x7.
    addInception(net, "5a", 832, 7, 256, 160, 320, 32, 128, 128);
    addInception(net, "5b", 832, 7, 384, 192, 384, 48, 128, 128);
    return net;
}

NetworkModel
makeResNet50AtResolution(std::uint32_t input_hw)
{
    RANA_ASSERT(input_hw >= 32 && input_hw % 32 == 0,
                "ResNet input must be a positive multiple of 32");
    NetworkModel net(input_hw == 224
                         ? "ResNet"
                         : "ResNet@" + std::to_string(input_hw));
    net.addLayer(makeConv("conv1", 3, input_hw, 64, 7, 2, 3));
    // pool -> input / 4.
    const std::uint32_t s2 = input_hw / 4;
    addBottleneck(net, "res2a", 64, s2, 64, 256, 1, true);
    addBottleneck(net, "res2b", 256, s2, 64, 256, 1, false);
    addBottleneck(net, "res2c", 256, s2, 64, 256, 1, false);
    addBottleneck(net, "res3a", 256, s2, 128, 512, 2, true);
    for (char suffix : {'b', 'c', 'd'}) {
        addBottleneck(net, std::string("res3") + suffix, 512, s2 / 2,
                      128, 512, 1, false);
    }
    addBottleneck(net, "res4a", 512, s2 / 2, 256, 1024, 2, true);
    for (char suffix : {'b', 'c', 'd', 'e', 'f'}) {
        addBottleneck(net, std::string("res4") + suffix, 1024, s2 / 4,
                      256, 1024, 1, false);
    }
    addBottleneck(net, "res5a", 1024, s2 / 4, 512, 2048, 2, true);
    addBottleneck(net, "res5b", 2048, s2 / 8, 512, 2048, 1, false);
    addBottleneck(net, "res5c", 2048, s2 / 8, 512, 2048, 1, false);
    return net;
}

NetworkModel
makeResNet50()
{
    return makeResNet50AtResolution(224);
}

namespace {

/**
 * Append one ResNet basic block (3x3 -> 3x3) plus the projection
 * shortcut when the block changes resolution or width.
 */
void
addBasicBlock(NetworkModel &net, const std::string &name,
              std::uint32_t in, std::uint32_t hw, std::uint32_t out,
              std::uint32_t stride, bool project)
{
    if (project) {
        net.addLayer(makeConv(name + "_branch1", in, hw, out, 1,
                              stride, 0));
    }
    net.addLayer(makeConv(name + "_branch2a", in, hw, out, 3, stride,
                          1));
    const std::uint32_t hw_out = (hw + 2 - 3) / stride + 1;
    net.addLayer(makeConv(name + "_branch2b", out, hw_out, out, 3, 1,
                          1));
}

/** Common builder for the basic-block ResNets. */
NetworkModel
makeBasicResNet(const std::string &name,
                const std::array<std::uint32_t, 4> &blocks)
{
    NetworkModel net(name);
    net.addLayer(makeConv("conv1", 3, 224, 64, 7, 2, 3));
    // pool -> 56.
    const std::uint32_t widths[4] = {64, 128, 256, 512};
    std::uint32_t hw = 56;
    std::uint32_t in = 64;
    for (std::size_t stage = 0; stage < 4; ++stage) {
        const std::uint32_t out = widths[stage];
        for (std::uint32_t b = 0; b < blocks[stage]; ++b) {
            const bool first = b == 0;
            const std::uint32_t stride =
                first && stage > 0 ? 2 : 1;
            const bool project = first && (stride != 1 || in != out);
            const std::string block_name =
                "res" + std::to_string(stage + 2) +
                std::string(1, static_cast<char>('a' + b));
            addBasicBlock(net, block_name, in, hw, out, stride,
                          project);
            if (stride == 2)
                hw /= 2;
            in = out;
        }
    }
    return net;
}

} // namespace

NetworkModel
makeResNet18()
{
    return makeBasicResNet("ResNet-18", {2, 2, 2, 2});
}

NetworkModel
makeResNet34()
{
    return makeBasicResNet("ResNet-34", {3, 4, 6, 3});
}

std::vector<NetworkModel>
makeBenchmarkSuite()
{
    return {makeAlexNet(), makeVgg16(), makeGoogLeNet(),
            makeResNet50()};
}

Result<NetworkModel>
makeBenchmarkChecked(const std::string &name)
{
    if (name == "AlexNet")
        return makeAlexNet();
    if (name == "VGG")
        return makeVgg16();
    if (name == "GoogLeNet")
        return makeGoogLeNet();
    if (name == "ResNet")
        return makeResNet50();
    return makeError(ErrorCode::InvalidArgument,
                     "unknown benchmark network '", name,
                     "' (expected AlexNet, VGG, GoogLeNet or "
                     "ResNet)");
}

} // namespace rana
