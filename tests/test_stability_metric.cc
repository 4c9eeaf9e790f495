/**
 * @file
 * Tests for the Figure 3 warm-up metric: per-group maximal-lifetime
 * history, the tolerance-band definition of "stable", the
 * teardown-only exclusion, and the rows `safemem_run paper` prints.
 */

#include <gtest/gtest.h>

#include "safemem/leak_detector.h"
#include "tests/fake_backend.h"
#include "workloads/paper.h"

namespace safemem {
namespace {

class StabilityMetricTest : public ::testing::Test
{
  protected:
    StabilityMetricTest()
    {
        config.warmupTime = 1'000'000'000; // no detection interference
        config.lifetimeTolerance = 1.25;
        detector = std::make_unique<LeakDetector>(
            config, backend, [this] { return now; });
    }

    VirtAddr
    churn(std::uint64_t slot, Cycles lifetime, std::uint64_t sig = 1)
    {
        VirtAddr addr = 0x200000 + slot * 0x1000;
        detector->onAlloc(addr, 64, sig, 0);
        now += lifetime;
        detector->onFree(addr);
        return addr;
    }

    SafeMemConfig config;
    FakeBackend backend;
    std::unique_ptr<LeakDetector> detector;
    Cycles now = 0;
};

TEST_F(StabilityMetricTest, WarmUpIsFirstTimeMaxNearsFinalValue)
{
    // Lifetimes: 100, 100, 100, ..., then one 110 late in the run.
    // 110 <= 1.25 * 100, so the early maximum already "covers" the
    // final value: warm-up must be the FIRST max-setting free, not the
    // late wiggle.
    churn(0, 100);
    Cycles first_free = now;
    for (int i = 1; i < 10; ++i) {
        churn(static_cast<std::uint64_t>(i), 100);
        now += 50;
    }

    auto data = detector->stabilityData();
    ASSERT_EQ(data.size(), 1u);
    EXPECT_EQ(data[0].warmUpTime, first_free);
}

TEST_F(StabilityMetricTest, GenuineLateGrowthMovesWarmUp)
{
    // A late lifetime of 400 (4x the early max) redefines the group's
    // expected maximum: warm-up moves to that point.
    for (int i = 0; i < 5; ++i) {
        churn(static_cast<std::uint64_t>(i), 100);
        now += 50;
    }
    churn(10, 400);
    Cycles big_free = now;
    churn(11, 100);

    auto data = detector->stabilityData();
    ASSERT_EQ(data.size(), 1u);
    EXPECT_EQ(data[0].warmUpTime, big_free);
}

TEST_F(StabilityMetricTest, NeverFreedGroupsExcluded)
{
    detector->onAlloc(0x200000, 64, 1, 0);
    now += 1000;
    detector->onAlloc(0x201000, 64, 1, 0);
    EXPECT_TRUE(detector->stabilityData().empty());
}

TEST_F(StabilityMetricTest, TeardownOnlyGroupsExcluded)
{
    // Group A deallocates throughout the run; group B is freed only in
    // the final 10% (program teardown): only A appears.
    for (int i = 0; i < 20; ++i) {
        churn(static_cast<std::uint64_t>(i), 100, /*sig=*/1);
        now += 400;
    }
    // Group B allocated early, freed at the very end.
    detector->onAlloc(0x300000, 32, 2, 0);
    now += 100;
    detector->onFree(0x300000); // free lands in the last 10% of time

    auto data = detector->stabilityData();
    ASSERT_EQ(data.size(), 1u);
    EXPECT_EQ(data[0].key.signature, 1u);
}

TEST_F(StabilityMetricTest, WarmUpRelativeToFirstEvent)
{
    now = 500'000; // the clock did not start at zero
    Cycles start = now;
    churn(0, 100);
    // Keep the program running well past the first free so it is not
    // classified as teardown activity.
    for (int i = 1; i < 10; ++i) {
        now += 1000;
        churn(static_cast<std::uint64_t>(i), 100);
    }
    auto data = detector->stabilityData();
    ASSERT_EQ(data.size(), 1u);
    EXPECT_EQ(data[0].warmUpTime, (start + 100) - start)
        << "warm-up measured from the first event, not absolute time";
}

Cycles
seconds(double s)
{
    return static_cast<Cycles>(s * kCpuFrequencyHz);
}

TEST(Figure3Rows, TimeColumnIncreasesAndStopsAtTheRunEnd)
{
    // proftpd's shape: the run ends at 0.92 s, before the fixed 1.0 s
    // and 1.2 s sample times, so neither may be printed.
    std::vector<StabilityRow> rows = stabilityRows(
        {seconds(0.5), seconds(0.03), seconds(0.15), seconds(0.03)},
        seconds(0.92));
    ASSERT_EQ(rows.size(), 7u) << "0.05-0.8 s, then the end";
    for (std::size_t i = 1; i < rows.size(); ++i) {
        EXPECT_GT(rows[i].seconds, rows[i - 1].seconds) << "row " << i;
        EXPECT_GE(rows[i].percent, rows[i - 1].percent) << "row " << i;
    }
    EXPECT_DOUBLE_EQ(rows.front().seconds, 0.05);
    EXPECT_DOUBLE_EQ(rows.front().percent, 50.0);
    EXPECT_DOUBLE_EQ(rows[2].percent, 75.0) << "0.2 s";
    EXPECT_NEAR(rows.back().seconds, 0.92, 1e-9);
    EXPECT_DOUBLE_EQ(rows.back().percent, 100.0);
}

TEST(Figure3Rows, ShortRunPrintsOnlyItsEndAndNoGroupsNoRows)
{
    std::vector<StabilityRow> rows =
        stabilityRows({seconds(0.01)}, seconds(0.04));
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_NEAR(rows[0].seconds, 0.04, 1e-9);
    EXPECT_DOUBLE_EQ(rows[0].percent, 100.0);
    EXPECT_TRUE(stabilityRows({}, seconds(2.0)).empty());
}

} // namespace
} // namespace safemem
