/**
 * @file
 * Tests for the segregated-free-list heap allocator.
 */

#include <gtest/gtest.h>

#include <set>

#include "alloc/heap_allocator.h"
#include "common/logging.h"
#include "common/random.h"

namespace safemem {
namespace {

class AllocatorTest : public ::testing::Test
{
  protected:
    AllocatorTest() : machine(MachineConfig{16u << 20}), alloc(machine) {}

    Machine machine;
    HeapAllocator alloc;
};

TEST_F(AllocatorTest, AllocateGivesLiveAccessibleBlock)
{
    VirtAddr addr = alloc.allocate(100);
    EXPECT_TRUE(alloc.isLive(addr));
    EXPECT_EQ(alloc.blockSize(addr), 100u);
    machine.store<std::uint64_t>(addr, 7);
    EXPECT_EQ(machine.load<std::uint64_t>(addr), 7u);
}

TEST_F(AllocatorTest, DistinctLiveBlocksDoNotOverlap)
{
    std::set<VirtAddr> bases;
    std::vector<std::pair<VirtAddr, std::size_t>> blocks;
    Rng rng(5);
    for (int i = 0; i < 200; ++i) {
        std::size_t size = rng.range(1, 3000);
        VirtAddr addr = alloc.allocate(size);
        EXPECT_TRUE(bases.insert(addr).second);
        for (const auto &[other, other_size] : blocks) {
            bool disjoint =
                addr + size <= other || other + other_size <= addr;
            EXPECT_TRUE(disjoint);
        }
        blocks.emplace_back(addr, size);
    }
}

TEST_F(AllocatorTest, FreeThenReuseSameClass)
{
    VirtAddr a = alloc.allocate(64);
    alloc.deallocate(a);
    VirtAddr b = alloc.allocate(64);
    EXPECT_EQ(a, b) << "LIFO free-list reuse";
}

TEST_F(AllocatorTest, DoubleFreePanics)
{
    VirtAddr addr = alloc.allocate(64);
    alloc.deallocate(addr);
    EXPECT_THROW(alloc.deallocate(addr), PanicError);
}

TEST_F(AllocatorTest, FreeOfNonBlockPanics)
{
    EXPECT_THROW(alloc.deallocate(0x1234), PanicError);
}

TEST_F(AllocatorTest, AlignmentHonored)
{
    for (std::size_t align : {16u, 64u, 256u, 4096u}) {
        VirtAddr addr = alloc.allocate(40, align);
        EXPECT_TRUE(isAligned(addr, align)) << align;
    }
}

TEST_F(AllocatorTest, NonPowerOfTwoAlignmentPanics)
{
    EXPECT_THROW(alloc.allocate(10, 48), PanicError);
}

TEST_F(AllocatorTest, ZeroSizeRoundsUp)
{
    VirtAddr addr = alloc.allocate(0);
    EXPECT_TRUE(alloc.isLive(addr));
    EXPECT_GE(alloc.blockSize(addr), 1u);
}

TEST_F(AllocatorTest, ReallocGrowCopiesContents)
{
    VirtAddr addr = alloc.allocate(16);
    machine.store<std::uint64_t>(addr, 0x1111ULL);
    machine.store<std::uint64_t>(addr + 8, 0x2222ULL);
    VirtAddr grown = alloc.reallocate(addr, 5000);
    EXPECT_EQ(machine.load<std::uint64_t>(grown), 0x1111ULL);
    EXPECT_EQ(machine.load<std::uint64_t>(grown + 8), 0x2222ULL);
    EXPECT_EQ(alloc.blockSize(grown), 5000u);
}

TEST_F(AllocatorTest, ReallocShrinkStaysInPlace)
{
    VirtAddr addr = alloc.allocate(256);
    VirtAddr shrunk = alloc.reallocate(addr, 100);
    EXPECT_EQ(shrunk, addr);
    EXPECT_EQ(alloc.blockSize(addr), 100u);
}

TEST_F(AllocatorTest, ReallocNullActsAsMalloc)
{
    VirtAddr addr = alloc.reallocate(0, 64);
    EXPECT_TRUE(alloc.isLive(addr));
}

TEST_F(AllocatorTest, LargeAllocationIsPageBacked)
{
    VirtAddr addr = alloc.allocate(100'000);
    EXPECT_FALSE(alloc.isSlabBacked(addr));
    machine.store<std::uint64_t>(addr + 99'992, 3);
    EXPECT_EQ(machine.load<std::uint64_t>(addr + 99'992), 3u);
    alloc.deallocate(addr);
    // Pages were returned to the kernel: the address is gone.
    EXPECT_THROW(machine.load<std::uint64_t>(addr), PanicError);
}

TEST_F(AllocatorTest, LiveBytesAccounting)
{
    EXPECT_EQ(alloc.liveBytes(), 0u);
    VirtAddr a = alloc.allocate(100);
    VirtAddr b = alloc.allocate(200);
    EXPECT_EQ(alloc.liveBytes(), 300u);
    alloc.deallocate(a);
    EXPECT_EQ(alloc.liveBytes(), 200u);
    alloc.deallocate(b);
    EXPECT_EQ(alloc.liveBytes(), 0u);
}

/** Property test: randomized alloc/free/realloc with content mirrors. */
TEST_F(AllocatorTest, RandomizedUsageKeepsContentsIntact)
{
    struct Block
    {
        VirtAddr addr;
        std::size_t size;
        std::uint8_t fill;
    };
    std::vector<Block> blocks;
    Rng rng(99);

    auto verify = [&](const Block &block) {
        std::vector<std::uint8_t> data(block.size);
        machine.read(block.addr, data.data(), block.size);
        for (std::uint8_t byte : data)
            ASSERT_EQ(byte, block.fill);
    };

    for (int op = 0; op < 800; ++op) {
        double dice = rng.real();
        if (dice < 0.5 || blocks.empty()) {
            Block block;
            block.size = rng.range(1, 2000);
            block.fill = static_cast<std::uint8_t>(rng.next());
            block.addr = alloc.allocate(block.size);
            std::vector<std::uint8_t> data(block.size, block.fill);
            machine.write(block.addr, data.data(), block.size);
            blocks.push_back(block);
        } else if (dice < 0.8) {
            std::size_t i = rng.range(0, blocks.size() - 1);
            verify(blocks[i]);
            alloc.deallocate(blocks[i].addr);
            blocks.erase(blocks.begin() + i);
        } else {
            std::size_t i = rng.range(0, blocks.size() - 1);
            verify(blocks[i]);
            std::size_t new_size = rng.range(1, 2000);
            blocks[i].addr = alloc.reallocate(blocks[i].addr, new_size);
            std::size_t keep = std::min(blocks[i].size, new_size);
            blocks[i].size = new_size;
            // Re-fill so the whole block matches again.
            (void)keep;
            std::vector<std::uint8_t> data(new_size, blocks[i].fill);
            machine.write(blocks[i].addr, data.data(), new_size);
        }
    }
    for (const Block &block : blocks)
        verify(block);
}

} // namespace
} // namespace safemem
