/**
 * @file
 * Tests for the two paper-proposed extensions implemented beyond the
 * evaluated prototype: uninitialised-read detection via ECC watches
 * (sketched in §4) and the unwatch-on-swap / rewatch-on-swap-in policy
 * (proposed in §2.2.2 as the better alternative to pinning).
 */

#include <gtest/gtest.h>

#include "alloc/heap_allocator.h"
#include "common/logging.h"
#include "safemem/safemem.h"
#include "safemem/watch_manager.h"
#include "trace/trace.h"

namespace safemem {
namespace {

class UninitReadTest : public ::testing::Test
{
  protected:
    UninitReadTest()
        : machine(MachineConfig{16u << 20, CacheConfig{32, 4}, 64}),
          allocator(machine), backend(machine)
    {
        backend.installFaultHandler();
        SafeMemConfig config;
        config.detectLeaks = false;
        config.detectUninitializedReads = true;
        tool = std::make_unique<SafeMemTool>(machine, allocator, backend,
                                             config);
    }

    Machine machine;
    HeapAllocator allocator;
    EccWatchManager backend;
    std::unique_ptr<SafeMemTool> tool;
    ShadowStack stack;
};

TEST_F(UninitReadTest, ReadBeforeWriteIsReported)
{
    VirtAddr buffer = tool->toolAlloc(64, stack, 0x51);
    machine.load<std::uint64_t>(buffer + 8);
    const auto &reports = tool->corruptionDetector().reports();
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].kind, CorruptionKind::UninitializedRead);
    EXPECT_EQ(reports[0].siteTag, 0x51ULL);
    tool->toolFree(buffer);
    tool->finish();
}

TEST_F(UninitReadTest, WriteRetiresWatchSilently)
{
    VirtAddr buffer = tool->toolAlloc(64, stack, 0x52);
    machine.store<std::uint64_t>(buffer, 1);
    EXPECT_TRUE(tool->corruptionDetector().reports().empty());
    EXPECT_EQ(tool->corruptionDetector().stats().get(
                  "uninit_watches_retired"), 1u);
    // Reads after initialisation are clean.
    machine.load<std::uint64_t>(buffer);
    EXPECT_TRUE(tool->corruptionDetector().reports().empty());
    tool->toolFree(buffer);
    tool->finish();
}

TEST_F(UninitReadTest, CallocNeverLooksUninitialised)
{
    VirtAddr buffer = tool->toolCalloc(8, 8, stack, 0x53);
    machine.load<std::uint64_t>(buffer);
    EXPECT_TRUE(tool->corruptionDetector().reports().empty());
    tool->toolFree(buffer);
    tool->finish();
}

TEST_F(UninitReadTest, FreeOfNeverTouchedBufferIsClean)
{
    VirtAddr buffer = tool->toolAlloc(128, stack, 0x54);
    tool->toolFree(buffer);
    EXPECT_TRUE(tool->corruptionDetector().reports().empty());
    EXPECT_EQ(tool->corruptionDetector().stats().get(
                  "uninit_watches_expired"), 1u);
    // The freed-body watch took over: a dangling read still reports.
    machine.load<std::uint64_t>(buffer);
    ASSERT_EQ(tool->corruptionDetector().reports().size(), 1u);
    EXPECT_EQ(tool->corruptionDetector().reports()[0].kind,
              CorruptionKind::UseAfterFree);
    tool->finish();
}

TEST_F(UninitReadTest, GuardsStillWorkAlongside)
{
    VirtAddr buffer = tool->toolAlloc(64, stack, 0x55);
    machine.store<std::uint64_t>(buffer, 1); // retire uninit watch
    machine.store<std::uint64_t>(buffer + 64, 1); // overflow
    ASSERT_EQ(tool->corruptionDetector().reports().size(), 1u);
    EXPECT_EQ(tool->corruptionDetector().reports()[0].kind,
              CorruptionKind::OverflowPadding);
    tool->toolFree(buffer);
    tool->finish();
}

class SwapPolicyTest : public ::testing::Test
{
  protected:
    SwapPolicyTest() : machine(config(trace)), manager(machine)
    {
        manager.installFaultHandler();
        manager.installSwapHooks();
        machine.kernel().setSwapWatchPolicy(
            SwapWatchPolicy::UnwatchRewatch);
        manager.setFaultCallback([this](VirtAddr, WatchKind,
                                        std::uint64_t, VirtAddr, bool) {
            ++faults;
        });
        region = machine.kernel().mapRegion(2 * kPageSize);
    }

    static MachineConfig
    config(Trace &trace)
    {
        MachineConfig config{8u << 20, CacheConfig{16, 2}, 64};
        config.trace = &trace;
        return config;
    }

    Trace trace;
    Machine machine;
    EccWatchManager manager;
    VirtAddr region = 0;
    int faults = 0;
};

TEST_F(SwapPolicyTest, WatchedPageCanSwapUnderNewPolicy)
{
    // Line 0 and line 63, the bottom and top bits of the page's mask.
    for (std::size_t index : {std::size_t{0}, kLinesPerPage - 1}) {
        SCOPED_TRACE(index);
        const VirtAddr page = machine.kernel().mapRegion(kPageSize);
        const VirtAddr line = page + index * kCacheLineSize;
        machine.store<std::uint64_t>(line, 0x77ULL);
        manager.watch(line, kCacheLineSize, WatchKind::FreedBuffer, 1);
        EXPECT_TRUE(machine.kernel().swapOutPage(page))
            << "no pin under UnwatchRewatch";
        EXPECT_FALSE(machine.kernel().pageResident(page));
        // Parked regions stay logically watched (the owner can still
        // cancel them) even though no line is scrambled right now.
        EXPECT_TRUE(manager.isWatched(line));
        EXPECT_FALSE(machine.kernel().isWatched(line))
            << "no scrambled line while swapped out";
        manager.unwatch(line); // cancelling a parked watch must work
        EXPECT_FALSE(manager.isWatched(line));
        EXPECT_EQ(machine.load<std::uint64_t>(line), 0x77ULL);
        EXPECT_EQ(faults, 0);
    }
    EXPECT_EQ(manager.stats().get("parked_regions_cancelled"), 2u);
}

TEST_F(SwapPolicyTest, WatchSurvivesSwapCycle)
{
    machine.store<std::uint64_t>(region, 0x1234ULL);
    manager.watch(region, kCacheLineSize, WatchKind::FreedBuffer, 1);
    ASSERT_TRUE(machine.kernel().swapOutPage(region));

    // The access pages the frame back in; the swap-in hook rewatches
    // the region *before* the access proceeds — so the very access
    // that brought the page back still faults.
    EXPECT_EQ(machine.load<std::uint64_t>(region), 0x1234ULL);
    EXPECT_EQ(faults, 1) << "watch survived the swap cycle";
    EXPECT_EQ(manager.stats().get("regions_swap_parked"), 1u);
    EXPECT_EQ(manager.stats().get("regions_swap_restored"), 1u);
}

TEST_F(SwapPolicyTest, UnwatchedPagesSwapNormally)
{
    machine.store<std::uint64_t>(region + kPageSize, 9);
    ASSERT_TRUE(machine.kernel().swapOutPage(region + kPageSize));
    EXPECT_EQ(machine.load<std::uint64_t>(region + kPageSize), 9u);
    EXPECT_EQ(faults, 0);
    EXPECT_EQ(manager.stats().get("regions_swap_parked"), 0u);
}

TEST_F(SwapPolicyTest, MultipleRegionsOnOnePageAllSurvive)
{
    manager.watch(region, kCacheLineSize, WatchKind::GuardFront, 1);
    manager.watch(region + 4 * kCacheLineSize, 2 * kCacheLineSize,
                  WatchKind::FreedBuffer, 2);
    ASSERT_TRUE(machine.kernel().swapOutPage(region));
    EXPECT_EQ(manager.stats().get("regions_swap_parked"), 2u);

    machine.load<std::uint64_t>(region + 4 * kCacheLineSize);
    EXPECT_EQ(faults, 1);
    EXPECT_TRUE(manager.isWatched(region))
        << "the untouched region is watched again";
}

TEST_F(SwapPolicyTest, SwapInRestoresInParkOrder)
{
    // A region low on the first page and one reaching across into the
    // second. The second page swaps out first, parking the straddling
    // region; then the first, parking the low one.
    const VirtAddr low = region;
    const VirtAddr straddle = region + kPageSize - kCacheLineSize;
    manager.watch(low, kCacheLineSize, WatchKind::GuardFront, 1);
    manager.watch(straddle, 2 * kCacheLineSize, WatchKind::FreedBuffer, 2);
    ASSERT_TRUE(machine.kernel().swapOutPage(region + kPageSize));
    ASSERT_TRUE(machine.kernel().swapOutPage(region));

    // The first page's swap-in restores both, in park order: the
    // straddling region (whose read pages the second page back in),
    // then the low one.
    machine.load<std::uint64_t>(region + 8 * kCacheLineSize);
    std::vector<VirtAddr> restored;
    for (const TraceRecord &record : trace.records()) {
        if (record.event == TraceEvent::WatchSwapRestore)
            restored.push_back(record.a);
    }
    if (kTraceCompiledIn) {
        EXPECT_EQ(restored, (std::vector<VirtAddr>{straddle, low}));
    }
    EXPECT_EQ(manager.stats().get("regions_swap_restored"), 2u);
    EXPECT_TRUE(machine.kernel().isWatched(low));
    EXPECT_TRUE(machine.kernel().isWatched(region + kPageSize));
    EXPECT_EQ(faults, 0);
}

TEST_F(SwapPolicyTest, HardwareErrorOnASwapParkedLineIsForeign)
{
    // A region across the page boundary parks when the second page
    // swaps out; its line on the first page stays resident, clean and
    // the program's to write.
    machine.kernel().setPanicOnHardwareError(false);
    const VirtAddr straddle = region + kPageSize - kCacheLineSize;
    manager.watch(straddle, 2 * kCacheLineSize, WatchKind::FreedBuffer, 1);
    ASSERT_TRUE(machine.kernel().swapOutPage(region + kPageSize));
    machine.store<std::uint64_t>(straddle, 0x99ULL);
    machine.cache().flushAll();

    // A double-bit error on that line, found by the scrubber, is not
    // the watch's to repair: its private copy predates the store, and
    // its other line is on disk. It is filed as foreign, and the
    // handler pages nothing in.
    PhysAddr line = *machine.kernel().peekTranslate(straddle);
    machine.physicalMemory().flipDataBit(line, 3);
    machine.physicalMemory().flipDataBit(line, 40);
    machine.controller().scrubAll();
    EXPECT_EQ(manager.stats().get("foreign_faults"), 1u);
    EXPECT_EQ(manager.stats().get("hardware_errors_detected"), 0u);
    EXPECT_FALSE(machine.kernel().pageResident(region + kPageSize));
    EXPECT_TRUE(manager.isWatched(straddle));
    EXPECT_EQ(faults, 0);
}

TEST_F(SwapPolicyTest, PolicyChangeWithActiveWatchesPanics)
{
    manager.watch(region, kCacheLineSize, WatchKind::GuardFront, 1);
    EXPECT_THROW(machine.kernel().setSwapWatchPolicy(
                     SwapWatchPolicy::PinPages),
                 PanicError);
}

TEST(SwapPolicyDefault, PinPagesIsTheDefault)
{
    Machine machine(MachineConfig{4u << 20, CacheConfig{16, 2}, 64});
    EXPECT_EQ(machine.kernel().swapWatchPolicy(),
              SwapWatchPolicy::PinPages);
}

} // namespace
} // namespace safemem
