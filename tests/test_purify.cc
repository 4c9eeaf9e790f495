/**
 * @file
 * Tests for the Purify model: shadow states, per-access checking,
 * bounds/dangling detection, uninitialised reads, mark-and-sweep leak
 * scanning, and the cost model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "alloc/heap_allocator.h"
#include "common/costs.h"
#include "common/logging.h"
#include "common/random.h"
#include "purify/purify.h"
#include "purify/shadow_memory.h"
#include "tests/golden.h"
#include "workloads/cli.h"
#include "workloads/env.h"

namespace safemem {
namespace {

constexpr std::uint64_t
kHighBit()
{
    return 1ULL << 63;
}

TEST(ShadowMemory, DefaultStateIsUnallocated)
{
    ShadowMemory shadow;
    EXPECT_EQ(shadow.get(0x1000), ByteState::Unallocated);
    EXPECT_FALSE(shadow.covered(0x1000));
}

TEST(ShadowMemory, SetRangeRoundTrip)
{
    ShadowMemory shadow;
    shadow.setRange(0x1000, 10, ByteState::AllocUninit);
    shadow.setRange(0x1005, 2, ByteState::AllocInit);
    EXPECT_EQ(shadow.get(0x1000), ByteState::AllocUninit);
    EXPECT_EQ(shadow.get(0x1005), ByteState::AllocInit);
    EXPECT_EQ(shadow.get(0x1006), ByteState::AllocInit);
    EXPECT_EQ(shadow.get(0x1007), ByteState::AllocUninit);
    EXPECT_EQ(shadow.get(0x100a), ByteState::Unallocated);
}

TEST(ShadowMemory, CrossPageRange)
{
    ShadowMemory shadow;
    shadow.setRange(kPageSize - 4, 8, ByteState::Freed);
    EXPECT_EQ(shadow.get(kPageSize - 1), ByteState::Freed);
    EXPECT_EQ(shadow.get(kPageSize), ByteState::Freed);
    EXPECT_EQ(shadow.get(kPageSize + 3), ByteState::Freed);
    EXPECT_EQ(shadow.get(kPageSize + 4), ByteState::Unallocated);
}

TEST(ShadowMemory, TwoBitsPerByteAccounting)
{
    ShadowMemory shadow;
    shadow.setRange(0, 1, ByteState::AllocInit);
    EXPECT_EQ(shadow.shadowBytes(), kPageSize / 4);
}

TEST(ShadowMemory, ClassifyFindsTheFirstOfEachState)
{
    ShadowMemory shadow;
    SpanStates untouched = shadow.classify(0x5000, 16);
    EXPECT_TRUE(untouched.anyUnallocated);
    EXPECT_EQ(untouched.firstUnallocated, 0x5000u);
    EXPECT_FALSE(untouched.anyFreed);
    EXPECT_FALSE(untouched.anyUninit);

    // The last 8 bytes of page 0 hold 4 init, 2 freed, 2 uninit bytes;
    // page 1 has no shadow at all.
    VirtAddr base = kPageSize - 8;
    shadow.setRange(base, 4, ByteState::AllocInit);
    shadow.setRange(base + 4, 2, ByteState::Freed);
    shadow.setRange(base + 6, 2, ByteState::AllocUninit);
    SpanStates span = shadow.classify(base, 16);
    EXPECT_TRUE(span.anyFreed);
    EXPECT_EQ(span.firstFreed, base + 4);
    EXPECT_TRUE(span.anyUninit);
    EXPECT_TRUE(span.anyUnallocated);
    EXPECT_EQ(span.firstUnallocated, kPageSize);
    EXPECT_FALSE(shadow.classify(base, 4).anyUnallocated);
}

TEST(ShadowMemory, MarkWrittenPromotesOnlyUninitBytes)
{
    ShadowMemory shadow;
    VirtAddr base = kPageSize - 4;
    shadow.setRange(base, 2, ByteState::AllocUninit);
    shadow.setRange(base + 2, 1, ByteState::Freed);
    shadow.setRange(base + 3, 1, ByteState::AllocUninit);
    shadow.markWritten(base, 8); // runs on into a page with no shadow
    EXPECT_EQ(shadow.get(base), ByteState::AllocInit);
    EXPECT_EQ(shadow.get(base + 1), ByteState::AllocInit);
    EXPECT_EQ(shadow.get(base + 2), ByteState::Freed);
    EXPECT_EQ(shadow.get(base + 3), ByteState::AllocInit);
    EXPECT_EQ(shadow.get(kPageSize), ByteState::Unallocated);
    EXPECT_FALSE(shadow.covered(kPageSize)) << "a store creates no shadow";
}

/** Random lengths that stay inside one shadow byte, cross a few, or
 *  cross a page. */
std::size_t
randomLength(Rng &rng)
{
    switch (rng.range(0, 2)) {
      case 0:
        return rng.range(1, 4);
      case 1:
        return rng.range(1, 64);
      default:
        return rng.range(1, 2 * kPageSize);
    }
}

void
runShadowScenario(std::uint64_t seed)
{
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    // Three pages starting one page up, so runs cross page boundaries
    // and some pages never get a shadow page.
    const VirtAddr base = kPageSize;
    const std::size_t bytes = 3 * kPageSize;
    ShadowMemory shadow;
    std::vector<ByteState> model(bytes, ByteState::Unallocated);

    auto expected = [&](std::size_t offset, std::size_t len) {
        SpanStates want;
        for (std::size_t i = offset; i < offset + len; ++i) {
            VirtAddr byte = base + i;
            switch (model[i]) {
              case ByteState::Unallocated:
                if (!want.anyUnallocated)
                    want.firstUnallocated = byte;
                want.anyUnallocated = true;
                break;
              case ByteState::Freed:
                if (!want.anyFreed)
                    want.firstFreed = byte;
                want.anyFreed = true;
                break;
              case ByteState::AllocUninit:
                want.anyUninit = true;
                break;
              case ByteState::AllocInit:
                break;
            }
        }
        return want;
    };

    for (int op = 0; op < 300; ++op) {
        std::size_t len = std::min(randomLength(rng), bytes);
        std::size_t offset = rng.range(0, bytes - len);
        if (rng.chance(0.5)) {
            auto state = static_cast<ByteState>(rng.range(0, 3));
            shadow.setRange(base + offset, len, state);
            std::fill_n(model.begin() + offset, len, state);
        } else {
            shadow.markWritten(base + offset, len);
            for (std::size_t i = offset; i < offset + len; ++i) {
                if (model[i] == ByteState::AllocUninit)
                    model[i] = ByteState::AllocInit;
            }
        }

        for (int probe = 0; probe < 4; ++probe) {
            std::size_t plen = std::min(randomLength(rng), bytes);
            std::size_t poff = rng.range(0, bytes - plen);
            SpanStates got = shadow.classify(base + poff, plen);
            SpanStates want = expected(poff, plen);
            ASSERT_EQ(got.anyUnallocated, want.anyUnallocated)
                << "op " << op << " span " << poff << "+" << plen;
            if (want.anyUnallocated) {
                ASSERT_EQ(got.firstUnallocated, want.firstUnallocated);
            }
            ASSERT_EQ(got.anyFreed, want.anyFreed) << "op " << op;
            if (want.anyFreed) {
                ASSERT_EQ(got.firstFreed, want.firstFreed);
            }
            ASSERT_EQ(got.anyUninit, want.anyUninit) << "op " << op;
        }
        if (op % 25 == 24) {
            for (std::size_t i = 0; i < bytes; ++i)
                ASSERT_EQ(shadow.get(base + i), model[i])
                    << "op " << op << " byte " << i;
        }
    }
}

TEST(ShadowMemory, MatchesAPerByteReferenceModel)
{
    for (std::uint64_t seed : {1, 2, 3, 4, 5, 6})
        runShadowScenario(seed);
}

class PurifyTest : public ::testing::Test
{
  protected:
    PurifyTest()
        : machine(MachineConfig{16u << 20, CacheConfig{32, 4}, 64}),
          allocator(machine), purify(machine, allocator)
    {
        purify.install();
        purify.setRootProvider([this] { return roots; });
    }

    VirtAddr
    alloc(std::size_t size, std::uint64_t tag = 0)
    {
        VirtAddr addr = purify.toolAlloc(size, stack, tag);
        roots.push_back(addr);
        return addr;
    }

    void
    dropRoot(VirtAddr addr)
    {
        roots.erase(std::find(roots.begin(), roots.end(), addr));
    }

    Machine machine;
    HeapAllocator allocator;
    PurifyTool purify;
    ShadowStack stack;
    std::vector<VirtAddr> roots;
};

TEST_F(PurifyTest, CleanUsageReportsNothing)
{
    VirtAddr addr = alloc(100);
    std::vector<std::uint8_t> data(100, 1);
    machine.write(addr, data.data(), data.size());
    machine.read(addr, data.data(), data.size());
    purify.toolFree(addr);
    EXPECT_TRUE(purify.corruptionReports().empty());
    EXPECT_EQ(purify.stats().get(PurifyStat::UninitReads), 0u);
}

TEST_F(PurifyTest, OverflowIntoRedZoneReported)
{
    VirtAddr addr = alloc(64, 0x31);
    std::uint64_t v = 1;
    machine.write(addr + 64, &v, 8);
    ASSERT_EQ(purify.corruptionReports().size(), 1u);
    EXPECT_EQ(purify.corruptionReports()[0].kind,
              CorruptionKind::OverflowPadding);
    EXPECT_EQ(purify.corruptionReports()[0].siteTag, 0x31ULL);
}

TEST_F(PurifyTest, AccessSpanningEndAttributedToBlock)
{
    // A write that starts inside the block and runs past its end must
    // be diagnosed from the first violating byte.
    VirtAddr addr = alloc(60, 0x32);
    std::uint8_t data[16] = {};
    machine.write(addr + 52, data, 16);
    ASSERT_EQ(purify.corruptionReports().size(), 1u);
    EXPECT_EQ(purify.corruptionReports()[0].siteTag, 0x32ULL);
    EXPECT_EQ(purify.corruptionReports()[0].faultAddr, addr + 60);
}

TEST_F(PurifyTest, UnderflowReported)
{
    VirtAddr addr = alloc(64, 0x33);
    std::uint64_t v;
    machine.read(addr - 8, &v, 8);
    ASSERT_EQ(purify.corruptionReports().size(), 1u);
    EXPECT_EQ(purify.corruptionReports()[0].kind,
              CorruptionKind::UnderflowPadding);
}

TEST_F(PurifyTest, UseAfterFreeReported)
{
    VirtAddr addr = alloc(128, 0x34);
    std::uint64_t v = 9;
    machine.write(addr, &v, 8);
    dropRoot(addr);
    purify.toolFree(addr);
    machine.read(addr, &v, 8);
    ASSERT_GE(purify.corruptionReports().size(), 1u);
    EXPECT_EQ(purify.corruptionReports()[0].kind,
              CorruptionKind::UseAfterFree);
    EXPECT_EQ(purify.corruptionReports()[0].siteTag, 0x34ULL);
}

TEST_F(PurifyTest, DuplicateReportsSuppressed)
{
    VirtAddr addr = alloc(64, 0x35);
    std::uint64_t v = 1;
    machine.write(addr + 64, &v, 8);
    machine.write(addr + 64, &v, 8);
    machine.write(addr + 72, &v, 8);
    EXPECT_EQ(purify.corruptionReports().size(), 1u);
}

TEST_F(PurifyTest, UninitializedReadCounted)
{
    VirtAddr addr = alloc(64);
    std::uint64_t v;
    machine.read(addr, &v, 8);
    EXPECT_EQ(purify.stats().get(PurifyStat::UninitReads), 1u);
    machine.write(addr, &v, 8);
    machine.read(addr, &v, 8);
    EXPECT_EQ(purify.stats().get(PurifyStat::UninitReads), 1u)
        << "initialised now";
}

TEST_F(PurifyTest, CallocCountsAsInitialised)
{
    VirtAddr addr = purify.toolCalloc(8, 8, stack, 0);
    roots.push_back(addr);
    std::uint64_t v;
    machine.read(addr, &v, 8);
    EXPECT_EQ(v, 0u);
    EXPECT_EQ(purify.stats().get(PurifyStat::UninitReads), 0u);
}

TEST_F(PurifyTest, ReallocPreservesDataAndStates)
{
    VirtAddr addr = alloc(32);
    std::uint64_t v = 0x4242;
    machine.write(addr, &v, 8);
    VirtAddr grown = purify.toolRealloc(addr, 128, stack, 0);
    roots.push_back(grown);
    dropRoot(addr);
    std::uint64_t out;
    machine.read(grown, &out, 8);
    EXPECT_EQ(out, 0x4242u);
    EXPECT_EQ(purify.stats().get(PurifyStat::UninitReads), 0u)
        << "copied prefix initialised";
}

TEST_F(PurifyTest, MarkAndSweepFindsUnreachableBlock)
{
    VirtAddr reachable = alloc(64, 0x1);
    VirtAddr leaked = alloc(64, 0x2 | kHighBit());
    dropRoot(leaked); // the program forgot its last reference
    purify.finish();  // runs a final sweep

    ASSERT_EQ(purify.leakReports().size(), 1u);
    EXPECT_EQ(purify.leakReports()[0].siteTag, 0x2ULL | kHighBit());
    (void)reachable;
}

TEST_F(PurifyTest, MarkAndSweepFollowsHeapPointers)
{
    // root -> A, A contains a pointer to B: B is reachable.
    VirtAddr a = alloc(64);
    VirtAddr b = alloc(64);
    machine.store<std::uint64_t>(a, b);
    dropRoot(b); // only reachable through A's contents now
    purify.finish();
    EXPECT_TRUE(purify.leakReports().empty());
}

TEST_F(PurifyTest, ConservativeInteriorPointerKeepsBlockAlive)
{
    VirtAddr a = alloc(64);
    VirtAddr b = alloc(64);
    machine.store<std::uint64_t>(a, b + 32); // interior pointer
    dropRoot(b);
    purify.finish();
    EXPECT_TRUE(purify.leakReports().empty());
}

TEST_F(PurifyTest, PointerToLastByteKeepsBlockAlive)
{
    VirtAddr a = alloc(64);
    VirtAddr b = alloc(48);
    machine.store<std::uint64_t>(a, b + 47);
    dropRoot(b);
    purify.finish();
    EXPECT_TRUE(purify.leakReports().empty());
}

TEST_F(PurifyTest, OnePastTheEndAndRedZoneValuesDoNotKeepBlockAlive)
{
    // The target is the middle of three blocks, so its trailing values
    // lie inside the heap's span and only the block search rejects them.
    VirtAddr a = alloc(64);
    std::vector<VirtAddr> blocks = {alloc(48, 0x41), alloc(48, 0x41),
                                    alloc(48, 0x41)};
    std::sort(blocks.begin(), blocks.end());
    VirtAddr b = blocks[1];
    machine.store<std::uint64_t>(a, b + 48);      // one past the end
    machine.store<std::uint64_t>(a + 8, b + 56);  // trailing red zone
    machine.store<std::uint64_t>(a + 16, b + 48 + 31);
    dropRoot(b);
    purify.finish();
    ASSERT_EQ(purify.leakReports().size(), 1u);
    EXPECT_EQ(purify.leakReports()[0].siteTag, 0x41u);
}

TEST_F(PurifyTest, ZeroSizeBlockIsNeverReferenced)
{
    // No address lies inside an empty block, so not even a root that
    // names its exact address keeps it alive.
    VirtAddr a = alloc(64);
    VirtAddr empty = alloc(0, 0x42);
    machine.store<std::uint64_t>(a, empty);
    purify.finish();
    ASSERT_EQ(purify.leakReports().size(), 1u);
    EXPECT_EQ(purify.leakReports()[0].siteTag, 0x42u);
    EXPECT_EQ(purify.leakReports()[0].objectSize, 0u);
}

TEST_F(PurifyTest, ValuesOutsideTheHeapSpanMarkNothing)
{
    VirtAddr a = alloc(64);
    VirtAddr b = alloc(64, 0x43);
    VirtAddr c = alloc(64, 0x44);
    VirtAddr lowest = std::min({a, b, c});
    VirtAddr highest = std::max({a, b, c});
    machine.store<std::uint64_t>(a, lowest - 1);
    machine.store<std::uint64_t>(a + 8, highest + 64);
    machine.store<std::uint64_t>(a + 16, ~0ULL);
    machine.store<std::uint64_t>(a + 24, 0);
    dropRoot(b);
    dropRoot(c);
    roots.push_back(lowest - 1);
    roots.push_back(highest + 64);
    purify.finish();
    ASSERT_EQ(purify.leakReports().size(), 2u);
    std::vector<std::uint64_t> tags = {purify.leakReports()[0].siteTag,
                                       purify.leakReports()[1].siteTag};
    std::sort(tags.begin(), tags.end());
    EXPECT_EQ(tags, (std::vector<std::uint64_t>{0x43, 0x44}));
}

TEST_F(PurifyTest, UnreachableCycleLeaksBothBlocks)
{
    VirtAddr a = alloc(64, 0x45);
    VirtAddr b = alloc(64, 0x46);
    machine.store<std::uint64_t>(a, b);
    machine.store<std::uint64_t>(b, a);
    dropRoot(a);
    dropRoot(b);
    purify.finish();
    EXPECT_EQ(purify.leakReports().size(), 2u);
    EXPECT_EQ(purify.stats().get("leaked_blocks"), 2u);
}

TEST_F(PurifyTest, LeakedBlockIsReportedOnceAcrossSweeps)
{
    alloc(64);
    VirtAddr leaked = alloc(64, 0x47);
    dropRoot(leaked);
    purify.finish();
    purify.finish();
    purify.finish();
    ASSERT_EQ(purify.leakReports().size(), 1u);
    EXPECT_EQ(purify.leakReports()[0].siteTag, 0x47u);
    EXPECT_EQ(purify.stats().get("leaked_blocks"), 1u);
    EXPECT_GE(purify.stats().get("sweeps"), 3u);
}

TEST_F(PurifyTest, AllocationThatTriggersASweepIsNotReported)
{
    // malloc runs the periodic sweep, and the block it hands out must
    // not be judged before the caller has stored the pointer.
    alloc(64);
    purify.finish(); // restarts the sweep period
    machine.clock().advance(kPurifySweepPeriod + 1);
    std::uint64_t sweeps = purify.stats().get("sweeps");
    alloc(64, 0x51);
    EXPECT_EQ(purify.stats().get("sweeps"), sweeps + 1);
    EXPECT_TRUE(purify.leakReports().empty());
}

TEST_F(PurifyTest, FreedLeakDoesNotHideALaterLeakAtTheSameAddress)
{
    alloc(64);
    VirtAddr first = alloc(64, 0x52);
    dropRoot(first);
    purify.finish();
    ASSERT_EQ(purify.leakReports().size(), 1u);

    purify.toolFree(first);
    VirtAddr second = alloc(64, 0x53);
    ASSERT_EQ(second, first) << "the allocator must reuse the address";
    dropRoot(second);
    purify.finish();
    ASSERT_EQ(purify.leakReports().size(), 2u);
    EXPECT_EQ(purify.leakReports()[1].siteTag, 0x53u);
    EXPECT_EQ(purify.stats().get("leaked_blocks"), 2u);
}

TEST(PurifyEnv, ReallocThatTriggersASweepReportsNeitherBlock)
{
    // Whether the sweep period runs out before the call or during its
    // copy, the sweep inside realloc must still see the old pointer
    // held, and must not judge the new block before the caller stores
    // it. The second lead leaves about 1,000 cycles of the period: the
    // new block's malloc costs 900, the 4 KiB copy about 29,000.
    for (Cycles lead : {kPurifySweepPeriod + 1, kPurifySweepPeriod - 1000}) {
        SCOPED_TRACE(lead);
        Machine machine(MachineConfig{16u << 20, CacheConfig{32, 4}, 64});
        HeapAllocator allocator(machine);
        PurifyTool purify(machine, allocator);
        purify.install();
        Env env(machine, allocator, purify);
        purify.setRootProvider([&env] { return env.roots(); });

        VirtAddr old = env.alloc(4096, 0x54);
        purify.finish(); // restarts the sweep period
        machine.clock().advance(lead);
        env.reallocBytes(old, 8192, 0x55);
        EXPECT_EQ(purify.stats().get("sweeps"), 2u);
        EXPECT_TRUE(purify.leakReports().empty());
    }
}

TEST_F(PurifyTest, PerAccessCheckingIsCharged)
{
    VirtAddr addr = alloc(64);
    std::uint64_t v = 0;
    Cycles before = machine.clock().charged(CostCenter::ToolAccess);
    machine.read(addr, &v, 8);
    Cycles delta =
        machine.clock().charged(CostCenter::ToolAccess) - before;
    EXPECT_GE(delta, kPurifyCheckCycles);
}

TEST_F(PurifyTest, ComputeMultiplierCharged)
{
    Cycles before = machine.clock().charged(CostCenter::ToolAccess);
    purify.onCompute(1000);
    Cycles delta =
        machine.clock().charged(CostCenter::ToolAccess) - before;
    EXPECT_EQ(delta, 7000u) << "8x total at the default factor";
}

TEST_F(PurifyTest, SweepCostScalesWithHeap)
{
    for (int i = 0; i < 50; ++i)
        alloc(1024);
    Cycles before = machine.clock().charged(CostCenter::ToolLeak);
    purify.finish();
    Cycles delta =
        machine.clock().charged(CostCenter::ToolLeak) - before;
    EXPECT_GE(delta, 50 * (1024 / 8) * kPurifySweepWordCycles);
}

TEST_F(PurifyTest, SweepIsIndependentOfRootOrder)
{
    // Over a heap four times the fixture's 8 KiB cache, the order the
    // mark phase reaches blocks in decides which lines still hit. Two
    // providers hand over the same roots in opposite orders; the sweep
    // must cost the same and move the same cache and TLB traffic.
    struct Traffic
    {
        Cycles leakCycles;
        std::map<std::string, std::uint64_t> cache;
        std::map<std::string, std::uint64_t> tlb;
    };
    auto sweep = [](bool reversed) {
        Machine m(MachineConfig{16u << 20, CacheConfig{32, 4}, 64});
        HeapAllocator heap(m);
        PurifyTool tool(m, heap);
        tool.install();
        ShadowStack no_stack;
        std::vector<VirtAddr> blocks;
        for (std::uint64_t i = 0; i < 64; ++i) {
            blocks.push_back(tool.toolAlloc(512, no_stack, 0));
            for (std::size_t off = 0; off < 512; off += 8)
                m.store<std::uint64_t>(blocks.back() + off, i);
        }
        if (reversed)
            std::reverse(blocks.begin(), blocks.end());
        tool.setRootProvider([blocks] { return blocks; });
        tool.finish();
        EXPECT_TRUE(tool.leakReports().empty());
        return Traffic{m.clock().charged(CostCenter::ToolLeak),
                       m.cache().stats().all(),
                       m.kernel().currentProcess().tlb().stats().all()};
    };
    Traffic forward = sweep(false);
    Traffic backward = sweep(true);
    EXPECT_EQ(forward.leakCycles, backward.leakCycles);
    EXPECT_EQ(forward.cache, backward.cache);
    EXPECT_EQ(forward.tlb, backward.tlb);
}

/**
 * One random heap under Purify: blocks of 0-600 bytes plus dense slabs
 * of tiny ones, words planted at block edges, near powers of two past
 * the lowest block (where index buckets start) and at random, and a
 * random root set. The sweep's verdicts must match reachability
 * computed here by binary search over the same blocks.
 */
std::size_t
runMarkScenario(std::uint64_t seed)
{
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    Machine machine(MachineConfig{16u << 20, CacheConfig{32, 4}, 64});
    HeapAllocator allocator(machine);
    PurifyTool purify(machine, allocator);
    purify.install();
    ShadowStack stack;

    struct Ref
    {
        VirtAddr user;
        std::size_t size;
    };
    std::vector<Ref> blocks;
    const std::size_t count = rng.range(20, 160);
    for (std::size_t i = 0; i < count; ++i) {
        std::size_t size = rng.chance(0.4) ? rng.range(0, 16)
                                           : rng.range(0, 600);
        // The site tag names the block, so verdicts map back to it.
        blocks.push_back(Ref{purify.toolAlloc(size, stack, i), size});
    }
    std::vector<Ref> sorted = blocks;
    std::sort(sorted.begin(), sorted.end(),
              [](const Ref &a, const Ref &b) { return a.user < b.user; });
    const VirtAddr lo = sorted.front().user;

    auto interesting = [&]() -> std::uint64_t {
        const Ref &b = blocks[rng.range(0, blocks.size() - 1)];
        switch (rng.range(0, 7)) {
          case 0: return b.user - 1;
          case 1: return b.user;
          case 2: return b.user + b.size - 1;
          case 3: return b.user + b.size;
          case 4: return b.user + rng.range(0, b.size);
          case 5: {
            // Around lo + k * 2^s, where a bucket of any width begins.
            std::uint64_t edge = lo + (rng.range(1, 64)
                                       << rng.range(6, 12));
            return edge - 1 + rng.range(0, 2);
          }
          case 6: return rng.next();
          default: return 0;
        }
    };

    // Contents of every scanned word (the first size / 8 of a block).
    std::map<VirtAddr, std::vector<std::uint64_t>> contents;
    for (const Ref &b : blocks) {
        std::vector<std::uint64_t> &words = contents[b.user];
        for (std::size_t w = 0; w < b.size / 8; ++w) {
            std::uint64_t value = rng.chance(0.15) ? interesting() : 0;
            machine.store<std::uint64_t>(b.user + w * 8, value);
            words.push_back(value);
        }
    }
    std::vector<VirtAddr> roots;
    for (int r = 0, n = static_cast<int>(rng.range(1, 8)); r < n; ++r)
        roots.push_back(interesting());
    purify.setRootProvider([roots] { return roots; });
    EXPECT_EQ(purify.stats().get("sweeps"), 0u)
        << "the heap must be built before the first periodic sweep";

    // Reference reachability.
    std::vector<bool> reached(blocks.size(), false);
    std::vector<std::size_t> work;
    auto visit = [&](std::uint64_t value) {
        auto it = std::upper_bound(
            sorted.begin(), sorted.end(), value,
            [](std::uint64_t v, const Ref &b) { return v < b.user; });
        if (it == sorted.begin())
            return;
        const Ref &b = *std::prev(it);
        if (value >= b.user + b.size)
            return;
        for (std::size_t i = 0; i < blocks.size(); ++i) {
            if (blocks[i].user == b.user && !reached[i]) {
                reached[i] = true;
                work.push_back(i);
            }
        }
    };
    for (VirtAddr root : roots)
        visit(root);
    for (std::size_t next = 0; next < work.size(); ++next) {
        for (std::uint64_t value : contents[blocks[work[next]].user])
            visit(value);
    }

    purify.finish();
    std::vector<std::uint64_t> got;
    for (const LeakReport &report : purify.leakReports())
        got.push_back(report.siteTag);
    std::sort(got.begin(), got.end());
    std::vector<std::uint64_t> want;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        if (!reached[i])
            want.push_back(i);
    }
    EXPECT_EQ(got, want);
    return blocks.size() - want.size();
}

TEST(PurifyMark, MatchesABinarySearchReachabilityModel)
{
    std::size_t reached = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed)
        reached += runMarkScenario(seed);
    // Enough blocks reached through heap words that a broken lookup
    // shows.
    EXPECT_GT(reached, 400u);
}

TEST(PurifyGolden, BuggySweepMatchesCapturedCounts)
{
    // Every app under Purify on bug-triggering inputs, full counter
    // dump: the simulated cycles, sweep counts, leak verdicts and TLB
    // and cache traffic of the heap scan, pinned byte for byte.
    CliParse parse = parseCliArguments({"all", "--tool", "purify", "--buggy",
                                        "--stats", "--requests", "400",
                                        "--workers", "0"});
    ASSERT_TRUE(parse.options.has_value());
    EXPECT_EQ(runCli(*parse.options).report,
              readGolden("golden_purify_sweep.txt"));
}

} // namespace
} // namespace safemem
