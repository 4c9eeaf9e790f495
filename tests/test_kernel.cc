/**
 * @file
 * Tests for the simulated kernel: virtual memory, mprotect/SIGSEGV, the
 * three SafeMem syscalls, page pinning, swapping, and scrub hooks.
 */

#include <gtest/gtest.h>

#include "common/costs.h"
#include "common/logging.h"
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
    EXPECT_EQ(machine.controller().peekWord(frame),
              kernel.scramblePattern().apply(0x1234ULL));
    EXPECT_FALSE(machine.kernel().swapOutPage(base)) << "page pinned";

    kernel.disableWatchMemory(base, kCacheLineSize);
    EXPECT_FALSE(kernel.isWatched(base));
    EXPECT_EQ(machine.controller().peekWord(frame), 0x1234ULL);
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
