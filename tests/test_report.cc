/**
 * @file
 * Tests for the report module, pinning the paper's headline
 * statistics to their reproduced bands.
 */

#include <gtest/gtest.h>

#include "core/report.hh"
#include "nn/model_zoo.hh"

namespace rana {
namespace {

/** Build the Table-IV grid once for the whole suite. */
class ReportGrid : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        const auto retention = RetentionDistribution::typical65nm();
        grid_ = new ResultGrid(tableIvDesigns(retention),
                               makeBenchmarkSuite());
    }
    static void TearDownTestSuite()
    {
        delete grid_;
        grid_ = nullptr;
    }
    static ResultGrid *grid_;

    // Design indices in Table IV order.
    static constexpr std::size_t kSramId = 0;
    static constexpr std::size_t kEdramId = 1;
    static constexpr std::size_t kEdramOd = 2;
    static constexpr std::size_t kRana0 = 3;
    static constexpr std::size_t kRanaE5 = 4;
    static constexpr std::size_t kRanaStar = 5;
};

ResultGrid *ReportGrid::grid_ = nullptr;

TEST_F(ReportGrid, Shape)
{
    EXPECT_EQ(grid_->numDesigns(), 6u);
    EXPECT_EQ(grid_->numNetworks(), 4u);
}

TEST_F(ReportGrid, BaselineNormalizesToOne)
{
    for (std::size_t n = 0; n < grid_->numNetworks(); ++n)
        EXPECT_DOUBLE_EQ(grid_->normalizedEnergy(kSramId, n), 1.0);
    EXPECT_DOUBLE_EQ(grid_->normalizedEnergyGmean(kSramId), 1.0);
}

TEST_F(ReportGrid, HeadlineOffChipSavingBand)
{
    // Paper: RANA*(E-5) saves 41.7% off-chip access vs S+ID.
    const double saving = grid_->meanSaving(
        kRanaStar, kSramId, ResultGrid::Metric::OffChipWords);
    EXPECT_GT(saving, 0.35);
    EXPECT_LT(saving, 0.50);
}

TEST_F(ReportGrid, HeadlineRefreshRemovalBand)
{
    // Paper: 99.7% of eD+ID's refresh operations removed.
    const double saving = grid_->meanSaving(
        kRanaStar, kEdramId, ResultGrid::Metric::RefreshOps);
    EXPECT_GT(saving, 0.98);
}

TEST_F(ReportGrid, HeadlineEnergySavingBand)
{
    // Paper: 66.2% system energy saved; this model reproduces ~40%
    // (see EXPERIMENTS.md for why AlexNet caps the average).
    const double saving = grid_->meanSaving(
        kRanaStar, kSramId, ResultGrid::Metric::TotalEnergy);
    EXPECT_GT(saving, 0.30);
    EXPECT_LT(grid_->normalizedEnergyGmean(kRanaStar), 0.60);
}

TEST_F(ReportGrid, DesignOrderingHolds)
{
    // Each RANA level improves (or ties) the GMEAN.
    double previous = grid_->normalizedEnergyGmean(kEdramId);
    for (std::size_t d : {kEdramOd, kRana0, kRanaE5, kRanaStar}) {
        const double current = grid_->normalizedEnergyGmean(d);
        EXPECT_LE(current, previous * (1.0 + 1e-9)) << "design " << d;
        previous = current;
    }
}

TEST_F(ReportGrid, RefreshEnergyMonotoneAcrossLevels)
{
    double previous =
        grid_->metricSum(kEdramId, ResultGrid::Metric::RefreshEnergy);
    for (std::size_t d : {kRanaE5, kRanaStar}) {
        const double current =
            grid_->metricSum(d, ResultGrid::Metric::RefreshEnergy);
        EXPECT_LT(current, previous);
        previous = current;
    }
}

} // namespace
} // namespace rana
