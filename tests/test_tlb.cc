/**
 * @file
 * Tests for the TLB model and its integration with the kernel's
 * translation path and mprotect shootdowns.
 */

#include <gtest/gtest.h>

#include "common/costs.h"
#include "common/logging.h"
#include "os/machine.h"
#include "os/page_table.h"
#include "os/tlb.h"

namespace safemem {
namespace {

TEST(Tlb, HitAfterInsert)
{
    Tlb tlb(4);
    EXPECT_FALSE(tlb.access(0x1000));
    EXPECT_TRUE(tlb.access(0x1000));
    EXPECT_EQ(tlb.stats().get("hits"), 1u);
    EXPECT_EQ(tlb.stats().get("misses"), 1u);
}

TEST(Tlb, LruEviction)
{
    Tlb tlb(2);
    tlb.access(0x1000);
    tlb.access(0x2000);
    tlb.access(0x1000);  // 0x2000 becomes LRU
    tlb.access(0x3000);  // evicts 0x2000
    EXPECT_TRUE(tlb.access(0x1000));
    EXPECT_FALSE(tlb.access(0x2000));
}

TEST(Tlb, FlushEmptiesEverything)
{
    Tlb tlb(4);
    tlb.access(0x1000);
    tlb.access(0x2000);
    tlb.flush();
    EXPECT_FALSE(tlb.access(0x1000));
    EXPECT_FALSE(tlb.access(0x2000));
    EXPECT_EQ(tlb.stats().get("flushes"), 1u);
}

TEST(Tlb, SinglePageInvalidation)
{
    Tlb tlb(4);
    tlb.access(0x1000);
    tlb.access(0x2000);
    tlb.invalidate(0x1000);
    EXPECT_FALSE(tlb.access(0x1000));
    EXPECT_TRUE(tlb.access(0x2000));
}

TEST(Tlb, ZeroCapacityIsFatal)
{
    EXPECT_THROW(Tlb(0), FatalError);
    Tlb one(1);
    EXPECT_FALSE(one.access(0x1000));
    EXPECT_FALSE(one.access(0x2000)) << "evicts 0x1000";
    EXPECT_FALSE(one.access(0x1000));
}

TEST(Tlb, LookupReturnsTheStoredEntry)
{
    Tlb tlb(2);
    PageTableEntry a, b;
    bool hit = true;
    PageTableEntry *&slot_a = tlb.lookup(0x1000, hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(slot_a, nullptr) << "a miss leaves the walk to the caller";
    slot_a = &a;
    tlb.lookup(0x2000, hit) = &b;

    EXPECT_EQ(tlb.lookup(0x1000, hit), &a);
    EXPECT_TRUE(hit);
    EXPECT_EQ(tlb.lookup(0x2000, hit), &b);
    EXPECT_TRUE(hit);

    // 0x1000 is now LRU: its slot goes to 0x3000 with no entry cached.
    EXPECT_EQ(tlb.lookup(0x3000, hit), nullptr);
    EXPECT_FALSE(hit);
    EXPECT_EQ(tlb.lookup(0x2000, hit), &b);
    EXPECT_TRUE(hit);
}

TEST(Tlb, StaleMruIndexStillFindsEveryEntry)
{
    Tlb tlb(4);
    tlb.access(0x1000);
    tlb.access(0x2000);
    tlb.access(0x3000); // most recent: the last slot
    tlb.invalidate(0x1000); // moves 0x3000 into the first slot
    EXPECT_TRUE(tlb.access(0x3000));
    EXPECT_TRUE(tlb.access(0x2000));
    EXPECT_FALSE(tlb.access(0x1000));
    tlb.flush();
    EXPECT_FALSE(tlb.access(0x2000));
    EXPECT_EQ(tlb.stats().get("hits"), 2u);
    EXPECT_EQ(tlb.stats().get("misses"), 5u);
    EXPECT_EQ(tlb.stats().get("invalidations"), 1u);
}

TEST(TlbIntegration, RepeatedAccessesMissOnce)
{
    Machine machine(MachineConfig{4u << 20, CacheConfig{16, 2}, 1024});
    VirtAddr base = machine.kernel().mapRegion(kPageSize);
    for (int i = 0; i < 10; ++i)
        machine.store<std::uint64_t>(base + i * 8, 1);
    const StatSet &stats = machine.kernel().currentProcess().tlb().stats();
    EXPECT_EQ(stats.get("misses"), 1u);
    EXPECT_EQ(stats.get("hits"), 9u);
}

TEST(TlbIntegration, MissChargesAWalk)
{
    Machine machine(MachineConfig{4u << 20, CacheConfig{16, 2}, 1024});
    VirtAddr base = machine.kernel().mapRegion(2 * kPageSize);
    machine.store<std::uint64_t>(base, 1); // miss + cache miss
    Cycles t0 = machine.clock().now();
    machine.store<std::uint64_t>(base + 8, 1); // TLB hit, cache hit
    Cycles hit_cost = machine.clock().now() - t0;
    t0 = machine.clock().now();
    machine.store<std::uint64_t>(base + kPageSize, 1); // TLB miss
    Cycles miss_cost = machine.clock().now() - t0;
    EXPECT_EQ(miss_cost - hit_cost,
              kTlbMissCycles + kDramLineCycles + kCacheMissMgmtCycles -
                  kCacheHitCycles)
        << "page walk plus the line fill, less the cache hit";
}

TEST(TlbIntegration, MprotectShootsTheTlbDown)
{
    Machine machine(MachineConfig{4u << 20, CacheConfig{16, 2}, 1024});
    VirtAddr base = machine.kernel().mapRegion(kPageSize);
    machine.store<std::uint64_t>(base, 1);
    const StatSet &stats = machine.kernel().currentProcess().tlb().stats();
    std::uint64_t misses = stats.get("misses");

    machine.kernel().mprotectRange(base, kPageSize, true);
    machine.store<std::uint64_t>(base, 2);
    EXPECT_EQ(stats.get("misses"), misses + 1)
        << "the shootdown forces a fresh walk";
}

/** A machine whose TLB counts start at zero: nothing but the test
 *  translates. */
Machine
tlbMachine()
{
    return Machine(MachineConfig{4u << 20, CacheConfig{16, 2}, 1024});
}

TEST(TlbIntegration, ProtectingAHotPageStillDeliversSegv)
{
    Machine machine = tlbMachine();
    Kernel &kernel = machine.kernel();
    VirtAddr base = kernel.mapRegion(kPageSize);
    machine.store<std::uint64_t>(base, 7);
    ASSERT_EQ(machine.load<std::uint64_t>(base), 7u); // the page is hot

    kernel.mprotectRange(base, kPageSize, false);
    EXPECT_THROW(machine.load<std::uint64_t>(base), PanicError)
        << "no handler: the protected page must not translate";

    int segvs = 0;
    kernel.registerSegvHandler([&](VirtAddr addr) {
        ++segvs;
        kernel.mprotectRange(alignDown(addr, kPageSize), kPageSize, true);
        return true;
    });
    ASSERT_EQ(machine.load<std::uint64_t>(base), 7u); // hot again
    kernel.mprotectRange(base, kPageSize, false);
    EXPECT_EQ(machine.load<std::uint64_t>(base + 8), 0u);
    EXPECT_EQ(segvs, 2);
    EXPECT_EQ(kernel.stats().get("segv_delivered"), 3u);
    EXPECT_NO_THROW(machine.auditNow());
}

TEST(TlbIntegration, SwappedOutHotPageComesBackWithItsData)
{
    Machine machine = tlbMachine();
    Kernel &kernel = machine.kernel();
    VirtAddr base = kernel.mapRegion(kPageSize);
    machine.store<std::uint64_t>(base + 16, 0x5eedULL);
    ASSERT_EQ(machine.load<std::uint64_t>(base + 16), 0x5eedULL);

    ASSERT_TRUE(kernel.swapOutPage(base));
    EXPECT_FALSE(kernel.pageResident(base));
    EXPECT_NO_THROW(machine.auditNow());
    EXPECT_EQ(machine.load<std::uint64_t>(base + 16), 0x5eedULL);
    EXPECT_TRUE(kernel.pageResident(base));
    EXPECT_EQ(kernel.stats().get("pages_swapped_in"), 1u);
    EXPECT_EQ(kernel.currentProcess().tlb().stats().get("misses"), 2u)
        << "the swap-out shot the hot entry down";
    EXPECT_NO_THROW(machine.auditNow());
}

TEST(TlbIntegration, UnmapLeavesNoStaleEntryBehind)
{
    Machine machine = tlbMachine();
    Kernel &kernel = machine.kernel();
    VirtAddr keep = kernel.mapRegion(kPageSize);
    VirtAddr gone = kernel.mapRegion(2 * kPageSize);
    machine.store<std::uint64_t>(keep, 1);
    machine.store<std::uint64_t>(gone, 2);
    machine.store<std::uint64_t>(gone + kPageSize, 3);

    kernel.unmapRegion(gone, 2 * kPageSize);
    EXPECT_NO_THROW(machine.auditNow());
    EXPECT_THROW(machine.load<std::uint64_t>(gone), PanicError);
    EXPECT_EQ(machine.load<std::uint64_t>(keep), 1u);
    EXPECT_NO_THROW(machine.auditNow());
}

TEST(TlbIntegration, ExactCountsForFixedStreams)
{
    constexpr std::size_t kEntries = 64;
    constexpr int kRounds = 5;

    // As many pages as entries: one cold miss each, then only hits.
    {
        Machine machine = tlbMachine();
        VirtAddr base = machine.kernel().mapRegion(kEntries * kPageSize);
        for (int round = 0; round < kRounds; ++round)
            for (std::size_t p = 0; p < kEntries; ++p)
                machine.load<std::uint64_t>(base + p * kPageSize);
        const StatSet &stats = machine.kernel().currentProcess().tlb().stats();
        EXPECT_EQ(stats.get("misses"), kEntries);
        EXPECT_EQ(stats.get("hits"), kEntries * (kRounds - 1));
    }

    // One page more, round robin: LRU always evicts the next page.
    {
        Machine machine = tlbMachine();
        VirtAddr base =
            machine.kernel().mapRegion((kEntries + 1) * kPageSize);
        for (int round = 0; round < kRounds; ++round)
            for (std::size_t p = 0; p <= kEntries; ++p)
                machine.load<std::uint64_t>(base + p * kPageSize);
        const StatSet &stats = machine.kernel().currentProcess().tlb().stats();
        EXPECT_EQ(stats.get("misses"), (kEntries + 1) * kRounds);
        EXPECT_EQ(stats.get("hits"), 0u);
    }

    // Runs of four loads on one page, cycling over three pages.
    {
        Machine machine = tlbMachine();
        VirtAddr base = machine.kernel().mapRegion(3 * kPageSize);
        for (std::size_t i = 0; i < 120; ++i)
            machine.load<std::uint64_t>(base + (i / 4) % 3 * kPageSize +
                                        i % 4 * 8);
        const StatSet &stats = machine.kernel().currentProcess().tlb().stats();
        EXPECT_EQ(stats.get("misses"), 3u);
        EXPECT_EQ(stats.get("hits"), 117u);
    }
}

} // namespace
} // namespace safemem
