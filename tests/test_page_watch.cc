/**
 * @file
 * Tests for the page-protection watch backend. The overlap and
 * fault-landing cases both backends share are in
 * test_watch_contract.cc.
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "pageprot/page_watch.h"

namespace safemem {
namespace {

class PageWatchTest : public ::testing::Test
{
  protected:
    PageWatchTest()
        : machine(MachineConfig{8u << 20, CacheConfig{16, 2}, 64}),
          backend(machine)
    {
        backend.install();
        backend.setFaultCallback([this](VirtAddr base, WatchKind kind,
                                        std::uint64_t cookie, VirtAddr,
                                        bool) {
            ++callbacks;
            lastBase = base;
            lastKind = kind;
            lastCookie = cookie;
        });
        region = machine.kernel().mapRegion(4 * kPageSize);
    }

    Machine machine;
    PageWatchBackend backend;
    VirtAddr region = 0;
    int callbacks = 0;
    VirtAddr lastBase = 0;
    WatchKind lastKind = WatchKind::LeakSuspect;
    std::uint64_t lastCookie = 0;
};

TEST_F(PageWatchTest, GranuleIsAPage)
{
    EXPECT_EQ(backend.granule(), kPageSize);
}

TEST_F(PageWatchTest, FirstAccessDispatchesAndUnprotects)
{
    machine.store<std::uint64_t>(region, 0x42ULL);
    backend.watch(region, kPageSize, WatchKind::FreedBuffer, 99);
    EXPECT_TRUE(backend.isWatched(region));

    EXPECT_EQ(machine.load<std::uint64_t>(region), 0x42ULL);
    EXPECT_EQ(callbacks, 1);
    EXPECT_EQ(lastBase, region);
    EXPECT_EQ(lastKind, WatchKind::FreedBuffer);
    EXPECT_EQ(lastCookie, 99u);
    EXPECT_FALSE(backend.isWatched(region));

    machine.load<std::uint64_t>(region);
    EXPECT_EQ(callbacks, 1) << "only the first access faults";
}

TEST_F(PageWatchTest, MultiPageRegionLiftsAsAWhole)
{
    backend.watch(region, 2 * kPageSize, WatchKind::LeakSuspect, 5);
    EXPECT_EQ(backend.watchedBytes(), 2 * kPageSize);
    machine.load<std::uint64_t>(region + kPageSize + 8);
    EXPECT_EQ(callbacks, 1);
    // Both pages accessible again.
    machine.load<std::uint64_t>(region);
    EXPECT_EQ(callbacks, 1);
}

TEST_F(PageWatchTest, UnalignedRegionPanics)
{
    EXPECT_THROW(
        backend.watch(region + 64, kPageSize, WatchKind::LeakSuspect, 1),
        PanicError);
    EXPECT_THROW(backend.watch(region, 100, WatchKind::LeakSuspect, 1),
                 PanicError);
}

TEST_F(PageWatchTest, UnwatchRestoresAccess)
{
    machine.store<std::uint64_t>(region, 3);
    backend.watch(region, kPageSize, WatchKind::GuardFront, 1);
    backend.unwatch(region);
    EXPECT_EQ(machine.load<std::uint64_t>(region), 3u);
    EXPECT_EQ(callbacks, 0);
}

TEST_F(PageWatchTest, ForeignSegvStillPanics)
{
    // A protection fault on a page this backend does not own is not
    // swallowed: the kernel panics as it would for a real SIGSEGV.
    machine.kernel().mprotectRange(region + 2 * kPageSize, kPageSize,
                                   false);
    EXPECT_THROW(machine.load<std::uint64_t>(region + 2 * kPageSize),
                 PanicError);
    EXPECT_EQ(backend.stats().get("foreign_segvs"), 1u);
}

TEST_F(PageWatchTest, WatchIsPageGranularityWasteful)
{
    // The point of Table 4: watching 64 bytes costs a whole page here.
    backend.watch(region, kPageSize, WatchKind::GuardFront, 1);
    EXPECT_EQ(backend.watchedBytes(), kPageSize);
}

} // namespace
} // namespace safemem
