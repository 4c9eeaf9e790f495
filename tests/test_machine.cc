/**
 * @file
 * Tests for the Machine facade: the CPU access path, chunking across
 * cache lines, the access hook, fault-restart semantics, and cycle
 * attribution.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <fstream>
#include <vector>

#include "common/costs.h"
#include "common/logging.h"
#include "os/machine.h"

namespace safemem {
namespace {

class MachineTest : public ::testing::Test
{
  protected:
    MachineTest() : machine(MachineConfig{8u << 20, CacheConfig{16, 2}, 8})
    {
        base = machine.kernel().mapRegion(4 * kPageSize);
    }

    Machine machine;
    VirtAddr base = 0;
};

TEST_F(MachineTest, TypedLoadStoreRoundTrip)
{
    machine.store<std::uint32_t>(base + 12, 0xa5a5a5a5u);
    EXPECT_EQ(machine.load<std::uint32_t>(base + 12), 0xa5a5a5a5u);
}

TEST_F(MachineTest, LargeAccessSpansLinesAndPages)
{
    std::vector<std::uint8_t> data(2 * kPageSize + 100);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7);
    machine.write(base + 30, data.data(), data.size());

    std::vector<std::uint8_t> out(data.size());
    machine.read(base + 30, out.data(), out.size());
    EXPECT_EQ(out, data);
}

TEST_F(MachineTest, ZeroSizeAccessIsANoOp)
{
    Cycles before = machine.clock().now();
    machine.read(base, nullptr, 0);
    machine.write(base, nullptr, 0);
    EXPECT_EQ(machine.clock().now(), before);
}

TEST_F(MachineTest, AccessHookSeesEveryAccess)
{
    struct Event
    {
        VirtAddr addr;
        std::size_t size;
        bool write;
    };
    std::vector<Event> events;
    machine.setAccessHook(
        [&](VirtAddr addr, std::size_t size, bool is_write) {
            events.push_back({addr, size, is_write});
        });

    std::uint64_t value = 5;
    machine.write(base, &value, 8);
    machine.read(base + 100, &value, 8);

    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].addr, base);
    EXPECT_TRUE(events[0].write);
    EXPECT_EQ(events[1].addr, base + 100);
    EXPECT_FALSE(events[1].write);
}

TEST_F(MachineTest, AccessTypeVisibleToKernel)
{
    std::uint64_t value = 0;
    machine.read(base, &value, 8);
    EXPECT_FALSE(machine.kernel().lastAccessWasWrite());
    machine.write(base, &value, 8);
    EXPECT_TRUE(machine.kernel().lastAccessWasWrite());
}

TEST_F(MachineTest, ComputeChargesApplicationCycles)
{
    Cycles app0 = machine.clock().charged(CostCenter::Application);
    Cycles overhead0 = machine.clock().overheadCycles();
    machine.compute(12345);
    EXPECT_EQ(machine.clock().charged(CostCenter::Application) - app0,
              12345u);
    EXPECT_EQ(machine.clock().overheadCycles(), overhead0);
}

TEST_F(MachineTest, CostScopeReattributesCharges)
{
    Cycles app0 = machine.clock().charged(CostCenter::Application);
    Cycles now0 = machine.clock().now();
    {
        CostScope scope(machine.clock(), CostCenter::ToolLeak);
        machine.compute(100);
    }
    machine.compute(50);
    EXPECT_EQ(machine.clock().charged(CostCenter::ToolLeak), 100u);
    EXPECT_EQ(machine.clock().charged(CostCenter::Application) - app0,
              50u);
    EXPECT_EQ(machine.clock().now() - now0, 150u);
}

TEST_F(MachineTest, FaultedAccessRestartsTransparently)
{
    Kernel &kernel = machine.kernel();
    machine.store<std::uint64_t>(base, 0x9999ULL);
    int faults = 0;
    kernel.registerEccFaultHandler([&](const UserEccFault &fault) {
        ++faults;
        kernel.disableWatchMemory(alignDown(fault.vaddr, kCacheLineSize),
                                  kCacheLineSize);
        return FaultDecision::Handled;
    });
    kernel.watchMemory(base, kCacheLineSize);

    // A multi-line read whose *middle* line is watched: the access
    // restarts and completes with correct data.
    std::vector<std::uint8_t> out(192);
    machine.read(base, out.data(), out.size());
    EXPECT_EQ(faults, 1);
    std::uint64_t first;
    std::memcpy(&first, out.data(), 8);
    EXPECT_EQ(first, 0x9999ULL);
}

TEST_F(MachineTest, HandlerThatNeverClearsGivesUp)
{
    Kernel &kernel = machine.kernel();
    kernel.registerEccFaultHandler(
        [](const UserEccFault &) { return FaultDecision::Handled; });
    kernel.watchMemory(base, kCacheLineSize);
    std::uint64_t value;
    EXPECT_THROW(machine.read(base, &value, 8), PanicError);
}

TEST_F(MachineTest, TickIntervalDrivesScrubber)
{
    machine.kernel().enableScrubbing(1);
    int pre = 0;
    machine.kernel().setScrubHooks([&](unsigned) { ++pre; }, nullptr);
    machine.compute(10);
    // tickInterval is 8 accesses in this fixture.
    std::uint64_t value = 0;
    for (int i = 0; i < 20; ++i)
        machine.write(base + i * 8, &value, 8);
    EXPECT_GE(pre, 1);
}

TEST(MachineConfigTest, MemoryIsFrameLimited)
{
    Machine machine(MachineConfig{1u << 20, CacheConfig{4, 2}, 64});
    // 1 MiB of DRAM = 256 frames; mapping more must fail cleanly.
    EXPECT_THROW(machine.kernel().mapRegion(2u << 20), FatalError);
}

/** @return this process's resident set in bytes (/proc/self/statm). */
std::size_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    std::size_t total_pages = 0;
    std::size_t resident_pages = 0;
    statm >> total_pages >> resident_pages;
    EXPECT_TRUE(statm) << "cannot read /proc/self/statm";
    return resident_pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

TEST(MachineConfigTest, BootLeavesDramNonResident)
{
    // The DIMM's lanes are zero-fill mappings, so booting the 192 MiB
    // machine a workload run uses must not touch its 216 MiB of data
    // and check storage. Only boot is measured: a pass that reads every
    // lane (a scrub, say) grows sanitizer shadow memory on its own.
    MachineConfig config;
    config.memoryBytes = 192u << 20;
    std::size_t before = residentBytes();
    Machine machine(config);
    EXPECT_LT(residentBytes(), before + (std::size_t{16} << 20));
    EXPECT_EQ(machine.physicalMemory().size(), config.memoryBytes);
}

} // namespace
} // namespace safemem
