/**
 * @file
 * Tests for the ECC watch backend: region bookkeeping, fault dispatch,
 * hardware-error differentiation, and scrub coordination. The overlap
 * and fault-landing cases both backends share are in
 * test_watch_contract.cc.
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "ecc/scramble.h"
#include "safemem/watch_manager.h"
#include "trace/trace.h"

namespace safemem {
namespace {

class WatchManagerTest : public ::testing::Test
{
  protected:
    WatchManagerTest() : machine(config(trace)), manager(machine)
    {
        manager.installFaultHandler();
        manager.installScrubHooks();
        manager.setFaultCallback([this](VirtAddr base, WatchKind kind,
                                        std::uint64_t cookie,
                                        VirtAddr fault_addr, bool) {
            ++callbacks;
            lastBase = base;
            lastKind = kind;
            lastCookie = cookie;
            lastFault = fault_addr;
        });
        region = machine.kernel().mapRegion(2 * kPageSize);
    }

    static MachineConfig
    config(Trace &trace)
    {
        MachineConfig config{4u << 20, CacheConfig{16, 2}, 64};
        config.trace = &trace;
        return config;
    }

    Trace trace;
    Machine machine;
    EccWatchManager manager;
    VirtAddr region = 0;
    int callbacks = 0;
    VirtAddr lastBase = 0;
    WatchKind lastKind = WatchKind::LeakSuspect;
    std::uint64_t lastCookie = 0;
    VirtAddr lastFault = 0;
};

TEST_F(WatchManagerTest, WatchUnwatchBookkeeping)
{
    manager.watch(region, 128, WatchKind::FreedBuffer, 7);
    EXPECT_TRUE(manager.isWatched(region));
    EXPECT_EQ(manager.regionCount(), 1u);
    EXPECT_EQ(manager.watchedBytes(), 128u);

    manager.unwatch(region);
    EXPECT_FALSE(manager.isWatched(region));
    EXPECT_EQ(manager.watchedBytes(), 0u);
}

TEST_F(WatchManagerTest, AccessDispatchesCallbackWithMetadata)
{
    machine.store<std::uint64_t>(region + 64, 0x77ULL);
    manager.watch(region, 192, WatchKind::GuardRear, 0xc0de);

    EXPECT_EQ(machine.load<std::uint64_t>(region + 64), 0x77ULL);
    EXPECT_EQ(callbacks, 1);
    EXPECT_EQ(lastBase, region);
    EXPECT_EQ(lastKind, WatchKind::GuardRear);
    EXPECT_EQ(lastCookie, 0xc0deULL);
    EXPECT_EQ(lastFault, region + 64);
    // Only the first access matters: whole region unwatched.
    EXPECT_FALSE(manager.isWatched(region));
    machine.load<std::uint64_t>(region);
    EXPECT_EQ(callbacks, 1);
}

TEST_F(WatchManagerTest, DataPreservedThroughWatchCycle)
{
    for (int i = 0; i < 8; ++i)
        machine.store<std::uint64_t>(region + i * 8,
                                     0x1000ULL + static_cast<unsigned>(i));
    manager.watch(region, 64, WatchKind::LeakSuspect, 1);
    manager.unwatch(region);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(machine.load<std::uint64_t>(region + i * 8),
                  0x1000ULL + static_cast<unsigned>(i));
}

TEST_F(WatchManagerTest, UnalignedRegionPanics)
{
    EXPECT_THROW(manager.watch(region + 4, 64, WatchKind::LeakSuspect, 1),
                 PanicError);
    EXPECT_THROW(manager.watch(region, 65, WatchKind::LeakSuspect, 1),
                 PanicError);
    EXPECT_THROW(manager.watch(region, 0, WatchKind::LeakSuspect, 1),
                 PanicError);
}

TEST_F(WatchManagerTest, UnwatchUnknownPanics)
{
    EXPECT_THROW(manager.unwatch(region), PanicError);
}

TEST_F(WatchManagerTest, HardwareErrorUnderWatchIsRepaired)
{
    machine.kernel().setPanicOnHardwareError(false);
    machine.store<std::uint64_t>(region, 0xabcdULL);
    manager.watch(region, 64, WatchKind::FreedBuffer, 1);

    // A real memory error strikes the watched (scrambled) line: the
    // stored data no longer matches the scramble signature.
    PhysAddr frame = machine.kernel().translate(region + kPageSize - 1) -
                     (kPageSize - 1);
    machine.physicalMemory().flipDataBit(frame, 60);

    // The access faults; the manager classifies it as a hardware error
    // and repairs the line from its private copy.
    EXPECT_EQ(machine.load<std::uint64_t>(region), 0xabcdULL);
    EXPECT_EQ(callbacks, 0) << "not dispatched as an access fault";
    EXPECT_EQ(manager.stats().get("hardware_errors_detected"), 1u);
    EXPECT_FALSE(manager.isWatched(region));
}

TEST_F(WatchManagerTest, ForeignMultiBitFaultIsHardwareError)
{
    machine.kernel().setPanicOnHardwareError(false);
    VirtAddr other = machine.kernel().mapRegion(kPageSize);
    machine.store<std::uint64_t>(other, 5);
    machine.cache().flushAll();
    PhysAddr frame = machine.kernel().translate(other + kPageSize - 1) -
                     (kPageSize - 1);
    machine.physicalMemory().flipDataBit(frame, 1);
    machine.physicalMemory().flipDataBit(frame, 7);

    // Nobody repairs a foreign line, so the access faults on every
    // retry and the machine gives up.
    EXPECT_THROW(machine.load<std::uint64_t>(other), PanicError);
    EXPECT_GE(manager.stats().get("foreign_faults"), 1u);
    EXPECT_EQ(callbacks, 0);
}

TEST_F(WatchManagerTest, ScrubPassParksAndRestoresWatches)
{
    machine.store<std::uint64_t>(region, 0x1234ULL);
    manager.watch(region, 64, WatchKind::LeakSuspect, 11);
    manager.watch(region + kPageSize, 128, WatchKind::FreedBuffer, 22);

    machine.kernel().enableScrubbing(1000);
    machine.compute(2000);
    machine.kernel().tick(); // scrub fires: unwatch-all, scrub, rewatch

    EXPECT_EQ(manager.stats().get("scrub_unwatch_passes"), 1u);
    EXPECT_TRUE(manager.isWatched(region));
    EXPECT_TRUE(manager.isWatched(region + kPageSize));
    EXPECT_EQ(machine.controller().stats().get("multi_bit_detected"), 0u)
        << "scrubber never saw a scrambled line";

    // Watches still functional after the scrub cycle.
    machine.kernel().disableScrubbing();
    EXPECT_EQ(machine.load<std::uint64_t>(region), 0x1234ULL);
    EXPECT_EQ(callbacks, 1);
}

TEST_F(WatchManagerTest, ScrubParkedRegionsStayLogicallyWatched)
{
    manager.watch(region, 128, WatchKind::LeakSuspect, 1);
    manager.parkAllForScrub();

    // Parked for the duration of the scrub pass, but still logically
    // watched: visible to isWatched() and opaque to overlapping watches,
    // exactly like a swap-parked region.
    EXPECT_TRUE(manager.isWatched(region));
    EXPECT_THROW(manager.watch(region + 64, 64, WatchKind::FreedBuffer, 2),
                 PanicError);

    manager.restoreAfterScrub();
    EXPECT_TRUE(manager.isWatched(region));
    EXPECT_EQ(manager.regionCount(), 1u);
    EXPECT_EQ(manager.watchedBytes(), 128u);
}

TEST_F(WatchManagerTest, ScrubParkedRegionsLeaveTheArmedCounts)
{
    manager.watch(region, 128, WatchKind::LeakSuspect, 1);
    manager.watch(region + kPageSize, 64, WatchKind::FreedBuffer, 2);
    manager.parkAllForScrub();

    // Logically watched, but nothing is armed: regionCount() and
    // watchedBytes() (Table 4's monitoring space) count armed regions.
    EXPECT_TRUE(manager.isWatched(region));
    EXPECT_TRUE(manager.isWatched(region + kPageSize));
    EXPECT_EQ(manager.regionCount(), 0u);
    EXPECT_EQ(manager.watchedBytes(), 0u);
    EXPECT_EQ(machine.kernel().watchedLineCount(), 0u);

    manager.restoreAfterScrub();
    EXPECT_EQ(manager.regionCount(), 2u);
    EXPECT_EQ(manager.watchedBytes(), 192u);
    EXPECT_EQ(machine.kernel().watchedLineCount(), 3u);
}

TEST_F(WatchManagerTest, HardwareErrorOnAScrubParkedLineIsRepaired)
{
    machine.kernel().setPanicOnHardwareError(false);
    machine.store<std::uint64_t>(region, 0xabcdULL);
    manager.watch(region, 64, WatchKind::FreedBuffer, 1);
    manager.parkAllForScrub();

    // A double-bit error strikes the parked (clean) line, and the
    // scrubber finds it. The line belongs to a logically watched
    // region, so it is a hardware error under a watch, not a foreign
    // one: repaired from the private copy, and the watch is dropped.
    PhysAddr frame = *machine.kernel().peekTranslate(region);
    machine.physicalMemory().flipDataBit(frame, 3);
    machine.physicalMemory().flipDataBit(frame, 40);
    machine.controller().scrubAll();
    EXPECT_EQ(manager.stats().get("hardware_errors_detected"), 1u);
    EXPECT_EQ(manager.stats().get("foreign_faults"), 0u);
    EXPECT_FALSE(manager.isWatched(region));

    // Nothing is left to restore, so nothing re-reads a corrupt line.
    manager.restoreAfterScrub();
    EXPECT_EQ(manager.regionCount(), 0u);
    EXPECT_EQ(machine.load<std::uint64_t>(region), 0xabcdULL);
    EXPECT_EQ(callbacks, 0);

    // The repair closes the park window, as an unwatch would.
    EXPECT_EQ(manager.stats().get("parked_regions_cancelled"), 1u);
    std::vector<TraceEvent> window;
    for (const TraceRecord &record : trace.records()) {
        if (record.event == TraceEvent::WatchScrubPark ||
            record.event == TraceEvent::WatchScrubRestore ||
            record.event == TraceEvent::WatchScrubCancel)
            window.push_back(record.event);
    }
    if (kTraceCompiledIn) {
        EXPECT_EQ(window, (std::vector<TraceEvent>{
                              TraceEvent::WatchScrubPark,
                              TraceEvent::WatchScrubCancel}));
    }
}

TEST_F(WatchManagerTest, UnwatchWhileScrubParkedCancelsTheRestore)
{
    manager.watch(region, 64, WatchKind::FreedBuffer, 1);
    manager.watch(region + kPageSize, 64, WatchKind::LeakSuspect, 2);
    manager.parkAllForScrub();

    // A detector may legitimately drop a watch mid-scrub (e.g. a freed
    // block is recycled); the parked entry must be cancelled, not
    // resurrected by the post-scrub restore.
    manager.unwatch(region);
    EXPECT_FALSE(manager.isWatched(region));
    EXPECT_EQ(manager.stats().get("parked_regions_cancelled"), 1u);

    manager.restoreAfterScrub();
    EXPECT_FALSE(manager.isWatched(region));
    EXPECT_TRUE(manager.isWatched(region + kPageSize));
    EXPECT_EQ(manager.regionCount(), 1u);
}

TEST_F(WatchManagerTest, PeakWatchedBytesTracked)
{
    manager.watch(region, 256, WatchKind::FreedBuffer, 1);
    manager.watch(region + kPageSize, 64, WatchKind::GuardFront, 2);
    manager.unwatch(region);
    EXPECT_EQ(manager.stats().get("peak_watched_bytes"), 320u);
    EXPECT_EQ(manager.watchedBytes(), 64u);
}

} // namespace
} // namespace safemem
