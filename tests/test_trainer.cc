/**
 * @file
 * End-to-end tests of the retention-aware training method on small
 * configurations: models learn the synthetic task, error injection
 * at the paper's 1e-5 operating point costs no accuracy, and heavy
 * injection degrades accuracy.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "train/trainer.hh"

namespace rana {
namespace {

DatasetConfig
tinyDataset()
{
    DatasetConfig config;
    config.trainSamples = 256;
    config.testSamples = 128;
    config.imageSize = 12;
    config.numClasses = 4;
    return config;
}

TrainerConfig
tinyTrainer()
{
    TrainerConfig config;
    config.pretrainEpochs = 6;
    config.retrainEpochs = 2;
    config.evalRepeats = 2;
    return config;
}

TEST(Trainer, PretrainLearnsTheTask)
{
    RetentionAwareTrainer trainer(MiniModelKind::MiniAlex,
                                  tinyDataset(), tinyTrainer());
    const double accuracy = trainer.pretrain();
    EXPECT_GT(accuracy, 0.8);
    EXPECT_DOUBLE_EQ(trainer.baselineAccuracy(), accuracy);
}

TEST(Trainer, NoLossAtPaperOperatingPoint)
{
    // Figure 11: every benchmark shows no accuracy loss at 1e-5.
    RetentionAwareTrainer trainer(MiniModelKind::MiniVgg,
                                  tinyDataset(), tinyTrainer());
    trainer.pretrain();
    const AccuracyPoint point = trainer.retrainAndEvaluate(1e-5);
    EXPECT_GE(point.relativeAccuracy, 0.97);
}

TEST(Trainer, HeavyInjectionDegradesAccuracy)
{
    RetentionAwareTrainer trainer(MiniModelKind::MiniVgg,
                                  tinyDataset(), tinyTrainer());
    trainer.pretrain();
    const AccuracyPoint heavy = trainer.retrainAndEvaluate(1e-1);
    EXPECT_LT(heavy.relativeAccuracy, 0.9);
}

TEST(Trainer, SweepIsMonotoneAtTheEnds)
{
    RetentionAwareTrainer trainer(MiniModelKind::MiniRes,
                                  tinyDataset(), tinyTrainer());
    trainer.pretrain();
    const auto points = trainer.sweep({1e-5, 1e-1});
    ASSERT_EQ(points.size(), 2u);
    EXPECT_GT(points[0].relativeAccuracy,
              points[1].relativeAccuracy);
}

TEST(Trainer, AllMiniModelsTrain)
{
    for (MiniModelKind kind : allMiniModels()) {
        RetentionAwareTrainer trainer(kind, tinyDataset(),
                                      tinyTrainer());
        EXPECT_GT(trainer.pretrain(), 0.7) << miniModelName(kind);
    }
}

/** FNV-1a over the float bit patterns of every tensor, in order. */
std::uint64_t
weightDigest(const std::vector<Tensor> &tensors)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const Tensor &tensor : tensors) {
        for (std::size_t i = 0; i < tensor.size(); ++i) {
            std::uint32_t bits = 0;
            std::memcpy(&bits, tensor.data() + i, sizeof(bits));
            for (int byte = 0; byte < 4; ++byte) {
                hash ^= (bits >> (8 * byte)) & 0xffu;
                hash *= 0x100000001b3ULL;
            }
        }
    }
    return hash;
}

std::string
hex(std::uint64_t value)
{
    char text[32];
    std::snprintf(text, sizeof(text), "0x%016" PRIx64, value);
    return text;
}

TEST(TrainerGolden, TrainedWeightDigestsArePinned)
{
    // Pins training bit for bit across commits. The constants were
    // recorded with the reference scalar conv loop nests; any change
    // to a kernel's accumulation order, the quantizer or the
    // injector draws moves them. A 29-sample minibatch and a
    // 45-sample test set exercise every lane block (16/8/4/2) and
    // the lone-sample path.
    DatasetConfig data = tinyDataset();
    data.trainSamples = 116;
    data.testSamples = 45;
    TrainerConfig config;
    config.pretrainEpochs = 2;
    config.retrainEpochs = 1;
    config.batchSize = 29;
    config.evalRepeats = 1;
    struct Golden
    {
        MiniModelKind kind;
        std::uint64_t pretrained;
        std::uint64_t retrained;
    };
    const Golden golden[] = {
        {MiniModelKind::MiniAlex, 0x7396e5372bebea04ULL,
         0x2ae353b680c6d58aULL},
        {MiniModelKind::MiniVgg, 0x3b43e94e74f08b9bULL,
         0xb86631306130d832ULL},
        {MiniModelKind::MiniInception, 0xe7ab5a8821cf274bULL,
         0x2d3dccd5d4f6c405ULL},
        {MiniModelKind::MiniRes, 0x9e3a7f6c07f4cae7ULL,
         0x5cfe5c271de3168eULL},
    };
    for (const Golden &g : golden) {
        RetentionAwareTrainer trainer(g.kind, data, config);
        trainer.pretrain();
        EXPECT_EQ(hex(weightDigest(trainer.exportWeights())),
                  hex(g.pretrained))
            << miniModelName(g.kind) << " pretrained";
        trainer.retrainAndEvaluate(1e-4);
        EXPECT_EQ(hex(weightDigest(trainer.exportWeights())),
                  hex(g.retrained))
            << miniModelName(g.kind) << " retrained at 1e-4";
    }
}

TEST(Trainer, MiniModelNamesMatchBenchmarks)
{
    EXPECT_STREQ(miniModelName(MiniModelKind::MiniAlex), "AlexNet");
    EXPECT_STREQ(miniModelName(MiniModelKind::MiniVgg), "VGG");
    EXPECT_STREQ(miniModelName(MiniModelKind::MiniInception),
                 "GoogLeNet");
    EXPECT_STREQ(miniModelName(MiniModelKind::MiniRes), "ResNet");
}

} // namespace
} // namespace rana
