/**
 * @file
 * Unit tests for the CNN model library: layer shape math and the
 * four benchmark layer tables against the paper's Table I.
 */

#include <gtest/gtest.h>

#include "nn/conv_layer_spec.hh"
#include "nn/model_zoo.hh"
#include "util/units.hh"

namespace rana {
namespace {

/** The paper reports storage as bytes / 1,024,000 ("MB" = 1000KB). */
double
paperMb(std::uint64_t words)
{
    return static_cast<double>(wordsToBytes(words)) / 1024000.0;
}

TEST(ConvLayerSpec, OutputSizeWithPadAndStride)
{
    const ConvLayerSpec conv = makeConv("c", 3, 224, 96, 11, 4, 2);
    EXPECT_EQ(conv.r(), 55u);
    EXPECT_EQ(conv.c(), 55u);
}

TEST(ConvLayerSpec, ElementCounts)
{
    const ConvLayerSpec conv = makeConv("c", 4, 8, 6, 3, 1, 1);
    EXPECT_EQ(conv.inputWords(), 4u * 8 * 8);
    EXPECT_EQ(conv.outputWords(), 6u * 8 * 8);
    EXPECT_EQ(conv.weightWords(), 6u * 4 * 9);
    EXPECT_EQ(conv.macs(), conv.outputWords() * 4 * 9);
}

TEST(ConvLayerSpec, InputPatchOverlapping)
{
    // stride < k: windows overlap, union = (tr-1)*s + k.
    const ConvLayerSpec conv = makeConv("c", 1, 32, 1, 3, 1, 1);
    EXPECT_EQ(conv.inputPatchH(4), 6u);
    EXPECT_EQ(conv.inputPatchW(1), 3u);
}

TEST(ConvLayerSpec, InputPatchStridedDisjoint)
{
    // stride > k: windows are disjoint, only tr*k rows touched.
    const ConvLayerSpec conv = makeConv("c", 1, 56, 1, 1, 2, 0);
    EXPECT_EQ(conv.inputPatchH(28), 28u);
}

TEST(ConvLayerSpec, Describe)
{
    const ConvLayerSpec conv = makeConv("res4a_branch1", 512, 28, 1024,
                                        1, 2, 0);
    EXPECT_NE(conv.describe().find("res4a_branch1"),
              std::string::npos);
}

TEST(NetworkModel, Queries)
{
    NetworkModel net("test");
    net.addLayer(makeConv("a", 2, 8, 4, 3, 1, 1));
    net.addLayer(makeConv("b", 4, 8, 8, 3, 1, 1));
    EXPECT_EQ(net.size(), 2u);
    EXPECT_EQ(net.layer(1).name, "b");
    EXPECT_EQ(net.findLayer("a").m, 4u);
    EXPECT_EQ(net.totalMacs(),
              net.layer(0).macs() + net.layer(1).macs());
}

TEST(ModelZoo, LayerCounts)
{
    // AlexNet: conv1 + conv2 (2 groups) + conv3 + conv4/5 (2 each).
    EXPECT_EQ(makeAlexNet().size(), 8u);
    EXPECT_EQ(makeVgg16().size(), 13u);
    // GoogLeNet: 3 stem convs + 9 inception modules x 6 convs.
    EXPECT_EQ(makeGoogLeNet().size(), 57u);
    // ResNet-50: conv1 + 16 bottlenecks x 3 + 4 projections.
    EXPECT_EQ(makeResNet50().size(), 53u);
}

TEST(ModelZoo, TableOneAlexNet)
{
    const NetworkModel net = makeAlexNet();
    EXPECT_NEAR(paperMb(net.maxInputWords()), 0.30, 0.02);
    EXPECT_NEAR(paperMb(net.maxOutputWords()), 0.57, 0.02);
    EXPECT_NEAR(paperMb(net.maxWeightWords()), 1.73, 0.02);
}

TEST(ModelZoo, TableOneVgg)
{
    const NetworkModel net = makeVgg16();
    EXPECT_NEAR(paperMb(net.maxInputWords()), 6.27, 0.02);
    EXPECT_NEAR(paperMb(net.maxOutputWords()), 6.27, 0.02);
    EXPECT_NEAR(paperMb(net.maxWeightWords()), 4.61, 0.02);
}

TEST(ModelZoo, TableOneGoogLeNet)
{
    const NetworkModel net = makeGoogLeNet();
    EXPECT_NEAR(paperMb(net.maxInputWords()), 0.39, 0.02);
    EXPECT_NEAR(paperMb(net.maxOutputWords()), 1.57, 0.02);
    EXPECT_NEAR(paperMb(net.maxWeightWords()), 1.30, 0.02);
}

TEST(ModelZoo, TableOneResNet)
{
    const NetworkModel net = makeResNet50();
    EXPECT_NEAR(paperMb(net.maxInputWords()), 1.57, 0.02);
    EXPECT_NEAR(paperMb(net.maxOutputWords()), 1.57, 0.02);
    EXPECT_NEAR(paperMb(net.maxWeightWords()), 4.61, 0.02);
}

TEST(ModelZoo, LayerAShape)
{
    // The paper's running example Layer-A: res4a_branch1.
    const ConvLayerSpec &layer =
        makeResNet50().findLayer("res4a_branch1");
    EXPECT_EQ(layer.n, 512u);
    EXPECT_EQ(layer.h, 28u);
    EXPECT_EQ(layer.m, 1024u);
    EXPECT_EQ(layer.k, 1u);
    EXPECT_EQ(layer.stride, 2u);
    EXPECT_EQ(layer.r(), 14u);
    // Minimum ID buffer storage = 785KB (Section III-B1).
    const std::uint64_t bs =
        layer.inputWords() + 1 + layer.n; // BSi + BSo + BSw at T*=1
    EXPECT_NEAR(static_cast<double>(wordsToBytes(bs)) / 1024.0, 785.0,
                1.0);
}

TEST(ModelZoo, LayerBShape)
{
    // Layer-B: VGG's ninth CONV layer, conv4_2.
    const ConvLayerSpec &layer = makeVgg16().layer(8);
    EXPECT_EQ(layer.name, "conv4_2");
    EXPECT_EQ(layer.n, 512u);
    EXPECT_EQ(layer.m, 512u);
    EXPECT_EQ(layer.h, 28u);
    EXPECT_EQ(layer.k, 3u);
}

TEST(ModelZoo, BenchmarkLookup)
{
    EXPECT_EQ(makeBenchmarkChecked("ResNet").valueOrDie().name(), "ResNet");
    EXPECT_EQ(makeBenchmarkSuite().size(), 4u);
}

TEST(ModelZoo, BenchmarkLookupChecked)
{
    const Result<NetworkModel> known =
        makeBenchmarkChecked("GoogLeNet");
    ASSERT_TRUE(known.ok());
    EXPECT_EQ(known.value().name(), "GoogLeNet");

    const Result<NetworkModel> unknown =
        makeBenchmarkChecked("LeNet");
    ASSERT_FALSE(unknown.ok());
    EXPECT_EQ(unknown.error().code, ErrorCode::InvalidArgument);
    EXPECT_NE(unknown.error().describe().find("LeNet"),
              std::string::npos);
}

TEST(ModelZoo, ResNetMacCount)
{
    // ResNet-50 CONV layers: ~3.8G MACs for 224x224.
    const double gmacs =
        static_cast<double>(makeResNet50().totalMacs()) / 1e9;
    EXPECT_GT(gmacs, 3.0);
    EXPECT_LT(gmacs, 4.5);
}

TEST(ModelZoo, Vgg16MacCount)
{
    // VGG-16 CONV layers: ~15.3G MACs.
    const double gmacs =
        static_cast<double>(makeVgg16().totalMacs()) / 1e9;
    EXPECT_GT(gmacs, 14.0);
    EXPECT_LT(gmacs, 16.5);
}


TEST(ModelZoo, BasicResNets)
{
    const NetworkModel r18 = makeResNet18();
    // conv1 + 8 basic blocks x 2 convs + 3 projections.
    EXPECT_EQ(r18.size(), 20u);
    const NetworkModel r34 = makeResNet34();
    // conv1 + 16 blocks x 2 + 3 projections.
    EXPECT_EQ(r34.size(), 36u);
    // ~1.8G / ~3.6G CONV MACs at 224x224.
    EXPECT_NEAR(static_cast<double>(r18.totalMacs()) / 1e9, 1.8,
                0.3);
    EXPECT_NEAR(static_cast<double>(r34.totalMacs()) / 1e9, 3.6,
                0.5);
    // Stage transitions halve the resolution and double the width.
    const ConvLayerSpec &res3a = r18.findLayer("res3a_branch2a");
    EXPECT_EQ(res3a.n, 64u);
    EXPECT_EQ(res3a.m, 128u);
    EXPECT_EQ(res3a.stride, 2u);
    EXPECT_EQ(res3a.r(), 28u);
    // Basic blocks chain back-to-back within a stage.
    const ConvLayerSpec &a = r18.findLayer("res2a_branch2b");
    const ConvLayerSpec &b = r18.findLayer("res2b_branch2a");
    EXPECT_EQ(a.m, b.n);
    EXPECT_EQ(a.r(), b.h);
}


TEST(ModelZoo, ResolutionParameterized)
{
    // The 224 builders are the fixed-resolution specializations.
    EXPECT_EQ(makeVgg16AtResolution(224).totalMacs(),
              makeVgg16().totalMacs());
    EXPECT_EQ(makeResNet50AtResolution(224).totalMacs(),
              makeResNet50().totalMacs());
    // Doubling the input quadruples every CONV layer's work.
    const NetworkModel big = makeVgg16AtResolution(448);
    EXPECT_EQ(big.totalMacs(), 4u * makeVgg16().totalMacs());
    EXPECT_EQ(big.maxInputWords(), 4u * makeVgg16().maxInputWords());
    EXPECT_EQ(big.name(), "VGG@448");
    const NetworkModel r = makeResNet50AtResolution(448);
    EXPECT_EQ(r.findLayer("res5c_branch2b").h, 14u);
}

} // namespace
} // namespace rana
