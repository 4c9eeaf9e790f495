/**
 * @file
 * Tests for the simulated kernel: virtual memory, mprotect/SIGSEGV, the
 * three SafeMem syscalls, page pinning, swapping, and scrub hooks.
 */

#include <gtest/gtest.h>

#include "common/costs.h"
#include "common/logging.h"
#include "ecc/codec.h"
#include "ecc/scramble.h"
#include "os/machine.h"

namespace safemem {
namespace {

class KernelTest : public ::testing::Test
{
  protected:
    KernelTest() : machine(MachineConfig{4u << 20, CacheConfig{16, 2}, 64})
    {
    }

    Machine machine;
};

TEST_F(KernelTest, MapRegionProvidesBackedPages)
{
    VirtAddr base = machine.kernel().mapRegion(3 * kPageSize);
    EXPECT_TRUE(machine.kernel().pageMapped(base));
    EXPECT_TRUE(machine.kernel().pageMapped(base + 2 * kPageSize));
    EXPECT_FALSE(machine.kernel().pageMapped(base + 3 * kPageSize));
    machine.store<std::uint64_t>(base + 2 * kPageSize, 42);
    EXPECT_EQ(machine.load<std::uint64_t>(base + 2 * kPageSize), 42u);
}

TEST_F(KernelTest, DistinctRegionsDoNotOverlap)
{
    VirtAddr a = machine.kernel().mapRegion(kPageSize);
    VirtAddr b = machine.kernel().mapRegion(kPageSize);
    EXPECT_GE(b, a + kPageSize);
}

TEST_F(KernelTest, UnmappedAccessPanics)
{
    EXPECT_THROW(machine.load<std::uint64_t>(0x900000000ULL), PanicError);
}

TEST_F(KernelTest, UnmapReleasesPages)
{
    VirtAddr base = machine.kernel().mapRegion(kPageSize);
    machine.store<std::uint64_t>(base, 1);
    machine.kernel().unmapRegion(base, kPageSize);
    EXPECT_FALSE(machine.kernel().pageMapped(base));
    EXPECT_THROW(machine.load<std::uint64_t>(base), PanicError);
}

TEST_F(KernelTest, MprotectBlocksAccessAndSegvHandlerRetries)
{
    Kernel &kernel = machine.kernel();
    VirtAddr base = kernel.mapRegion(kPageSize);
    machine.store<std::uint64_t>(base, 7);

    kernel.mprotectRange(base, kPageSize, false);
    int segvs = 0;
    kernel.registerSegvHandler([&](VirtAddr addr) {
        ++segvs;
        kernel.mprotectRange(alignDown(addr, kPageSize), kPageSize, true);
        return true;
    });
    EXPECT_EQ(machine.load<std::uint64_t>(base), 7u);
    EXPECT_EQ(segvs, 1);
    // Unprotected now: no more faults.
    machine.load<std::uint64_t>(base);
    EXPECT_EQ(segvs, 1);
}

TEST_F(KernelTest, UnhandledSegvPanics)
{
    Kernel &kernel = machine.kernel();
    VirtAddr base = kernel.mapRegion(kPageSize);
    kernel.mprotectRange(base, kPageSize, false);
    EXPECT_THROW(machine.load<std::uint64_t>(base), PanicError);
}

TEST_F(KernelTest, WatchMemoryScramblesAndPins)
{
    Kernel &kernel = machine.kernel();
    VirtAddr base = kernel.mapRegion(kPageSize);
    machine.store<std::uint64_t>(base, 0x1234ULL);

    kernel.watchMemory(base, kCacheLineSize);
    EXPECT_TRUE(kernel.isWatched(base));
    EXPECT_EQ(kernel.watchedLineCount(), 1u);

    PhysAddr frame = kernel.translate(base + kPageSize - 1) -
                     (kPageSize - 1);
    const std::uint64_t stored = machine.controller().peekLine(frame)[0];
    const std::uint8_t check = machine.physicalMemory().readCheck(frame);
    EXPECT_EQ(stored, kernel.scramblePattern().apply(0x1234ULL));
    // Paper Figure 2: the data was scrambled with ECC off, so the check
    // byte still encodes the original word and the pair decodes as an
    // uncorrectable fault; the flush put the line back in memory.
    EXPECT_EQ(check, defaultCodec().encode(0x1234ULL));
    EXPECT_EQ(defaultCodec().decode(stored, check).status,
              EccDecodeStatus::Uncorrectable);
    EXPECT_FALSE(machine.cache().contains(frame)) << "line flushed";
    EXPECT_FALSE(machine.kernel().swapOutPage(base)) << "page pinned";

    kernel.disableWatchMemory(base, kCacheLineSize);
    EXPECT_FALSE(kernel.isWatched(base));
    EXPECT_EQ(machine.controller().peekLine(frame)[0], 0x1234ULL);
    EXPECT_TRUE(machine.kernel().swapOutPage(base)) << "unpinned again";
}

TEST_F(KernelTest, WatchMemoryRequiresLineAlignment)
{
    Kernel &kernel = machine.kernel();
    VirtAddr base = kernel.mapRegion(kPageSize);
    EXPECT_THROW(kernel.watchMemory(base + 8, kCacheLineSize), PanicError);
    EXPECT_THROW(kernel.watchMemory(base, 80), PanicError);
}

TEST_F(KernelTest, DoubleWatchPanics)
{
    Kernel &kernel = machine.kernel();
    VirtAddr base = kernel.mapRegion(kPageSize);
    kernel.watchMemory(base, kCacheLineSize);
    EXPECT_THROW(kernel.watchMemory(base, kCacheLineSize), PanicError);
}

TEST_F(KernelTest, DisableUnwatchedPanics)
{
    Kernel &kernel = machine.kernel();
    VirtAddr base = kernel.mapRegion(kPageSize);
    EXPECT_THROW(kernel.disableWatchMemory(base, kCacheLineSize),
                 PanicError);
}

TEST_F(KernelTest, FirstAccessFaultsAndHandlerDecides)
{
    Kernel &kernel = machine.kernel();
    VirtAddr base = kernel.mapRegion(kPageSize);
    machine.store<std::uint64_t>(base, 99);

    int faults = 0;
    kernel.registerEccFaultHandler([&](const UserEccFault &fault) {
        ++faults;
        EXPECT_EQ(alignDown(fault.vaddr, kCacheLineSize), base);
        kernel.disableWatchMemory(base, kCacheLineSize);
        return FaultDecision::Handled;
    });

    kernel.watchMemory(base, kCacheLineSize);
    EXPECT_EQ(machine.load<std::uint64_t>(base), 99u);
    EXPECT_EQ(faults, 1);
    EXPECT_FALSE(kernel.isWatched(base)) << "the handler removed it";
    // The handler's repair sticks: the next access takes no fault.
    EXPECT_EQ(machine.load<std::uint64_t>(base), 99u);
    EXPECT_EQ(faults, 1);
}

TEST_F(KernelTest, WriteToWatchedLineAlsoFaults)
{
    Kernel &kernel = machine.kernel();
    VirtAddr base = kernel.mapRegion(kPageSize);
    int faults = 0;
    kernel.registerEccFaultHandler([&](const UserEccFault &) {
        ++faults;
        kernel.disableWatchMemory(base, kCacheLineSize);
        return FaultDecision::Handled;
    });
    kernel.watchMemory(base, kCacheLineSize);
    machine.store<std::uint64_t>(base + 8, 5);
    EXPECT_EQ(faults, 1) << "write-allocate RFO fill triggers the fault";
}

TEST_F(KernelTest, EccFaultWithoutHandlerPanics)
{
    Kernel &kernel = machine.kernel();
    VirtAddr base = kernel.mapRegion(kPageSize);
    kernel.watchMemory(base, kCacheLineSize);
    EXPECT_THROW(machine.load<std::uint64_t>(base), PanicError);
}

TEST_F(KernelTest, HardwareErrorDecisionPanicsByDefault)
{
    Kernel &kernel = machine.kernel();
    VirtAddr base = kernel.mapRegion(kPageSize);
    kernel.registerEccFaultHandler([&](const UserEccFault &) {
        return FaultDecision::HardwareError;
    });
    kernel.watchMemory(base, kCacheLineSize);
    EXPECT_THROW(machine.load<std::uint64_t>(base), PanicError);
}

TEST_F(KernelTest, HardwareErrorDecisionCanBeObserved)
{
    Kernel &kernel = machine.kernel();
    kernel.setPanicOnHardwareError(false);
    VirtAddr base = kernel.mapRegion(kPageSize);
    kernel.registerEccFaultHandler([&](const UserEccFault &) {
        kernel.disableWatchMemory(base, kCacheLineSize);
        return FaultDecision::HardwareError;
    });
    kernel.watchMemory(base, kCacheLineSize);
    machine.load<std::uint64_t>(base);
    EXPECT_EQ(kernel.stats().get("hardware_errors"), 1u);
}

TEST_F(KernelTest, MultiLineWatchCoversWholeRegion)
{
    Kernel &kernel = machine.kernel();
    VirtAddr base = kernel.mapRegion(kPageSize);
    kernel.watchMemory(base, 4 * kCacheLineSize);
    EXPECT_EQ(kernel.watchedLineCount(), 4u);
    EXPECT_TRUE(kernel.isWatched(base + 3 * kCacheLineSize));
    EXPECT_FALSE(kernel.isWatched(base + 4 * kCacheLineSize));
    kernel.disableWatchMemory(base, 4 * kCacheLineSize);
    EXPECT_EQ(kernel.watchedLineCount(), 0u);
}

TEST_F(KernelTest, SwapOutThenAccessPagesBackIn)
{
    Kernel &kernel = machine.kernel();
    VirtAddr base = kernel.mapRegion(kPageSize);
    machine.store<std::uint64_t>(base + 8, 0xfeedULL);

    ASSERT_TRUE(kernel.swapOutPage(base));
    EXPECT_FALSE(kernel.pageResident(base));
    // Transparent page-in on access, data preserved.
    EXPECT_EQ(machine.load<std::uint64_t>(base + 8), 0xfeedULL);
    EXPECT_TRUE(kernel.pageResident(base));
    EXPECT_EQ(kernel.stats().get("pages_swapped_in"), 1u);
}

TEST_F(KernelTest, SwapCycleLosesUnpinnedWatch)
{
    // The hazard that motivates pinning (paper §2.2.2 "Dealing with
    // Page Swapping"): a watched page that swaps out and back in is
    // rewritten with fresh, matching ECC codes — the watch silently
    // disappears. Reproduce it by dropping the pin behind the kernel's
    // back via a watch bookkeeping trick is impossible here, so verify
    // the two halves: pinning blocks the swap, and a swap cycle of an
    // unwatched page regenerates clean ECC.
    Kernel &kernel = machine.kernel();
    VirtAddr base = kernel.mapRegion(kPageSize);
    machine.store<std::uint64_t>(base, 0xabcULL);

    kernel.watchMemory(base, kCacheLineSize);
    EXPECT_FALSE(kernel.swapOutPage(base));
    kernel.disableWatchMemory(base, kCacheLineSize);

    ASSERT_TRUE(kernel.swapOutPage(base));
    EXPECT_EQ(machine.load<std::uint64_t>(base), 0xabcULL);
}

TEST_F(KernelTest, ScrubHooksBracketScrubPasses)
{
    Kernel &kernel = machine.kernel();
    int pre = 0, post = 0;
    kernel.setScrubHooks([&] { ++pre; }, [&] { ++post; });
    kernel.enableScrubbing(10'000);
    machine.compute(20'000);
    kernel.tick();
    EXPECT_EQ(pre, 1);
    EXPECT_EQ(post, 1);
    EXPECT_EQ(machine.controller().mode(), EccMode::CorrectAndScrub);
    kernel.disableScrubbing();
    EXPECT_EQ(machine.controller().mode(), EccMode::CorrectError);
}

TEST_F(KernelTest, ScrubDoesNotFireBeforePeriod)
{
    Kernel &kernel = machine.kernel();
    int pre = 0;
    kernel.setScrubHooks([&] { ++pre; }, nullptr);
    kernel.enableScrubbing(1'000'000);
    machine.compute(10);
    kernel.tick();
    EXPECT_EQ(pre, 0);
}

TEST_F(KernelTest, SyscallCostsMatchTable2)
{
    Kernel &kernel = machine.kernel();
    VirtAddr base = kernel.mapRegion(kPageSize);

    Cycles t0 = machine.clock().now();
    kernel.watchMemory(base, kCacheLineSize);
    Cycles watch = machine.clock().now() - t0;
    t0 = machine.clock().now();
    kernel.disableWatchMemory(base, kCacheLineSize);
    Cycles disable = machine.clock().now() - t0;
    t0 = machine.clock().now();
    kernel.mprotectRange(base, kPageSize, false);
    Cycles mprotect = machine.clock().now() - t0;

    EXPECT_NEAR(cyclesToMicros(watch), 2.0, 0.1);
    EXPECT_NEAR(cyclesToMicros(disable), 1.5, 0.1);
    EXPECT_NEAR(cyclesToMicros(mprotect), 1.02, 0.05);
}

/** @return the watchedLines mask of the current process's page
 *  holding @p vaddr. */
std::uint64_t
watchMask(Machine &machine, VirtAddr vaddr)
{
    const PageTableEntry *entry =
        machine.kernel().currentProcess().pageTable().find(
            alignDown(vaddr, kPageSize));
    return entry ? entry->watchedLines : 0;
}

TEST_F(KernelTest, WatchOfTheLastLineSetsTheTopMaskBit)
{
    Kernel &kernel = machine.kernel();
    VirtAddr base = kernel.mapRegion(2 * kPageSize);
    const VirtAddr last = base + (kLinesPerPage - 1) * kCacheLineSize;
    machine.store<std::uint64_t>(last + 56, 0x5151ULL);

    kernel.watchMemory(last, kCacheLineSize);
    EXPECT_EQ(watchMask(machine, base), std::uint64_t{1} << 63);
    EXPECT_EQ(watchMask(machine, base + kPageSize), 0u);
    EXPECT_TRUE(kernel.isWatched(last + 56));
    EXPECT_FALSE(kernel.isWatched(last - kCacheLineSize));
    EXPECT_FALSE(kernel.isWatched(last + kCacheLineSize))
        << "line 0 of the next page";
    EXPECT_EQ(kernel.watchedLineCount(), 1u);
    kernel.auditInvariants();

    kernel.disableWatchMemory(last, kCacheLineSize);
    EXPECT_EQ(watchMask(machine, base), 0u);
    EXPECT_EQ(kernel.watchedLineCount(), 0u);
    EXPECT_EQ(machine.load<std::uint64_t>(last + 56), 0x5151ULL);
}

TEST_F(KernelTest, WatchOfAWholePageSetsEveryMaskBit)
{
    Kernel &kernel = machine.kernel();
    VirtAddr base = kernel.mapRegion(kPageSize);
    for (std::size_t off = 0; off < kPageSize; off += kEccGroupSize)
        machine.store<std::uint64_t>(base + off, off * 0x9e3779b9ULL);
    PhysAddr frame = *kernel.peekTranslate(base);

    kernel.watchMemory(base, kPageSize);
    EXPECT_EQ(watchMask(machine, base), ~std::uint64_t{0});
    EXPECT_EQ(kernel.watchedLineCount(), kLinesPerPage);
    EXPECT_EQ(machine.controller().peekLine(frame + kPageSize -
                                            kCacheLineSize)[7],
              kernel.scramblePattern().apply((kPageSize - 8) *
                                             0x9e3779b9ULL));
    EXPECT_FALSE(kernel.swapOutPage(base));
    kernel.auditInvariants();

    kernel.disableWatchMemory(base, kPageSize);
    EXPECT_EQ(watchMask(machine, base), 0u);
    EXPECT_EQ(kernel.watchedLineCount(), 0u);
    for (std::size_t off = 0; off < kPageSize; off += kEccGroupSize)
        ASSERT_EQ(machine.load<std::uint64_t>(base + off),
                  off * 0x9e3779b9ULL);
    EXPECT_TRUE(kernel.swapOutPage(base)) << "unpinned again";
}

TEST_F(KernelTest, WatchAcrossAPageBoundaryMarksBothPages)
{
    Kernel &kernel = machine.kernel();
    VirtAddr base = kernel.mapRegion(2 * kPageSize);
    const VirtAddr start = base + kPageSize - 2 * kCacheLineSize;

    kernel.watchMemory(start, 4 * kCacheLineSize);
    EXPECT_EQ(watchMask(machine, base), std::uint64_t{3} << 62);
    EXPECT_EQ(watchMask(machine, base + kPageSize), 3u);
    EXPECT_EQ(kernel.watchedLineCount(), 4u);
    EXPECT_FALSE(kernel.swapOutPage(base)) << "both pages pinned";
    EXPECT_FALSE(kernel.swapOutPage(base + kPageSize));
    kernel.auditInvariants();

    kernel.disableWatchMemory(start, 4 * kCacheLineSize);
    EXPECT_EQ(watchMask(machine, base), 0u);
    EXPECT_EQ(watchMask(machine, base + kPageSize), 0u);
    EXPECT_TRUE(kernel.swapOutPage(base));
    EXPECT_TRUE(kernel.swapOutPage(base + kPageSize));
}

TEST_F(KernelTest, UnmapOfWatchedPagePanics)
{
    // Under UnwatchRewatch no pin holds a watched page, but its frame is
    // still scrambled: freed, the next owner's first load would take an
    // uncorrectable ECC fault it never asked for.
    Kernel &kernel = machine.kernel();
    kernel.setSwapWatchPolicy(SwapWatchPolicy::UnwatchRewatch);
    VirtAddr base = kernel.mapRegion(kPageSize);
    const VirtAddr line = base + 5 * kCacheLineSize;
    kernel.watchMemory(line, kCacheLineSize);

    EXPECT_THROW(kernel.unmapRegion(base, kPageSize), PanicError);
    EXPECT_TRUE(kernel.pageMapped(base));
    EXPECT_EQ(kernel.totalWatchedLineCount(), 1u);

    kernel.disableWatchMemory(line, kCacheLineSize);
    kernel.unmapRegion(base, kPageSize);
    EXPECT_FALSE(kernel.pageMapped(base));
    EXPECT_EQ(kernel.totalWatchedLineCount(), 0u);
}

TEST_F(KernelTest, UnmapPinnedPagePanics)
{
    Kernel &kernel = machine.kernel();
    VirtAddr base = kernel.mapRegion(kPageSize);
    kernel.watchMemory(base, kCacheLineSize);
    EXPECT_THROW(kernel.unmapRegion(base, kPageSize), PanicError);
    kernel.disableWatchMemory(base, kCacheLineSize);
    kernel.unmapRegion(base, kPageSize);
}

} // namespace
} // namespace safemem
