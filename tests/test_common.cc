/**
 * @file
 * Tests for the common substrate: clock, stats, RNG, types.
 */

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/types.h"

namespace safemem {
namespace {

TEST(Types, AlignmentHelpers)
{
    EXPECT_EQ(alignDown(100, 64), 64u);
    EXPECT_EQ(alignUp(100, 64), 128u);
    EXPECT_EQ(alignDown(128, 64), 128u);
    EXPECT_EQ(alignUp(128, 64), 128u);
    EXPECT_TRUE(isAligned(4096, 4096));
    EXPECT_FALSE(isAligned(4097, 4096));
    EXPECT_TRUE(isAligned(0, 64));
}

TEST(Types, CyclesToMicrosAt2p4GHz)
{
    EXPECT_DOUBLE_EQ(cyclesToMicros(2400), 1.0);
    EXPECT_DOUBLE_EQ(cyclesToMicros(4800), 2.0);
}

TEST(Clock, AdvancesAndAttributes)
{
    CycleClock clock;
    clock.advance(10, CostCenter::Application);
    clock.advance(5, CostCenter::ToolLeak);
    clock.advance(3, CostCenter::ToolAccess);
    EXPECT_EQ(clock.now(), 18u);
    EXPECT_EQ(clock.charged(CostCenter::Application), 10u);
    EXPECT_EQ(clock.overheadCycles(), 8u);
}

TEST(Clock, DefaultCenterFollowsScope)
{
    CycleClock clock;
    clock.advance(1);
    EXPECT_EQ(clock.charged(CostCenter::Application), 1u);
    {
        CostScope outer(clock, CostCenter::ToolCorruption);
        clock.advance(2);
        {
            CostScope inner(clock, CostCenter::Kernel);
            clock.advance(4);
        }
        clock.advance(8);
    }
    clock.advance(16);
    EXPECT_EQ(clock.charged(CostCenter::Application), 17u);
    EXPECT_EQ(clock.charged(CostCenter::ToolCorruption), 10u);
    EXPECT_EQ(clock.charged(CostCenter::Kernel), 4u);
}

TEST(Clock, ResetClearsEverything)
{
    CycleClock clock;
    clock.setCurrentCenter(CostCenter::ToolLeak);
    clock.advance(100);
    clock.reset();
    EXPECT_EQ(clock.now(), 0u);
    EXPECT_EQ(clock.charged(CostCenter::ToolLeak), 0u);
    EXPECT_EQ(clock.currentCenter(), CostCenter::Application);
}

namespace {
enum class TestStat : std::size_t { Reads, Writes, Peak };
constexpr const char *kTestStatNames[] = {"reads", "writes", "peak"};
} // namespace

TEST(Stats, CountersAccumulate)
{
    StatSet stats(kTestStatNames);
    EXPECT_EQ(stats.get("missing"), 0u); // no such slot reads 0
    stats.add(TestStat::Reads);
    stats.add(TestStat::Reads, 4);
    EXPECT_EQ(stats.get(TestStat::Reads), 5u);
    stats.set(TestStat::Reads, 2);
    EXPECT_EQ(stats.get(TestStat::Reads), 2u);
}

TEST(Stats, MaxOfTracksMaximum)
{
    StatSet stats(kTestStatNames);
    stats.maxOf(TestStat::Peak, 10);
    stats.maxOf(TestStat::Peak, 5);
    stats.maxOf(TestStat::Peak, 20);
    EXPECT_EQ(stats.get(TestStat::Peak), 20u);
}

TEST(Stats, AllIsSortedByName)
{
    // Slot order is not name order: the snapshot sorts anyway.
    StatSet stats(kTestStatNames);
    stats.add(TestStat::Writes);
    stats.add(TestStat::Peak);
    stats.add(TestStat::Reads);
    auto snapshot = stats.all();
    ASSERT_EQ(snapshot.size(), 3u);
    EXPECT_EQ(snapshot.begin()->first, "peak");
    EXPECT_EQ(snapshot.rbegin()->first, "writes");
}

TEST(Stats, EnumAndStringViewsShareSlots)
{
    StatSet stats(kTestStatNames);
    stats.add(TestStat::Reads, 5);
    EXPECT_EQ(stats.get(TestStat::Reads), 5u);
    EXPECT_EQ(stats.get("reads"), 5u);

    stats.set(TestStat::Writes, 7);
    EXPECT_EQ(stats.get("writes"), 7u);
    stats.maxOf(TestStat::Peak, 10);
    stats.maxOf(TestStat::Peak, 3);
    EXPECT_EQ(stats.get("peak"), 10u);
}

TEST(Stats, SnapshotsHoldTouchedSlotsOnly)
{
    StatSet stats(kTestStatNames);
    stats.add(TestStat::Writes, 2);
    auto snapshot = stats.all();
    EXPECT_EQ(snapshot.size(), 1u); // untouched slots are omitted
    EXPECT_EQ(snapshot.at("writes"), 2u);
    EXPECT_EQ(snapshot.count("reads"), 0u);

    // A touched slot appears even when its value is zero, exactly like a
    // created-on-first-use map entry did.
    stats.set(TestStat::Reads, 0);
    EXPECT_EQ(stats.all().count("reads"), 1u);

    stats.clear();
    EXPECT_TRUE(stats.all().empty());
    EXPECT_EQ(stats.get(TestStat::Writes), 0u);
}

TEST(Stats, EnumOpsMatchPlainMapReference)
{
    // Mirror a mixed op sequence into a plain map (the old string-keyed
    // implementation) and require identical snapshots.
    StatSet stats(kTestStatNames);
    std::map<std::string, std::uint64_t> reference;
    auto ref_max = [&reference](const std::string &name, std::uint64_t v) {
        auto it = reference.find(name);
        if (it == reference.end() || it->second < v)
            reference[name] = v;
    };

    for (std::uint64_t i = 0; i < 100; ++i) {
        stats.add(TestStat::Reads);
        reference["reads"] += 1;
        if (i % 3 == 0) {
            stats.add(TestStat::Writes, i);
            reference["writes"] += i;
        }
        if (i % 7 == 0) {
            stats.maxOf(TestStat::Peak, i * 11);
            ref_max("peak", i * 11);
        }
    }
    EXPECT_EQ(stats.all(), reference);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42), c(43);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_EQ(a.next(), b.next());
    Rng a2(42);
    EXPECT_NE(a2.next(), c.next());
}

TEST(Rng, RangeInclusive)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t v = rng.range(3, 9);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 9u);
    }
    EXPECT_EQ(rng.range(5, 5), 5u);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(7);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-1.0));
}

TEST(Rng, ChanceRoughlyCalibrated)
{
    Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(hits, 3000, 200);
}

TEST(Rng, RealInUnitInterval)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.real();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

} // namespace
} // namespace safemem
