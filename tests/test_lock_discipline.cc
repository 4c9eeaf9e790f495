/**
 * @file
 * Lock-discipline regression tests: the runtime side of the static
 * lock-discipline layer (common/thread_annotations.h).
 *
 * The headline regression here was found *by* the annotation sweep: the
 * kernel's DisableWatchMemory panics on an unwatched line after taking
 * the memory-bus lock, and before BusLockGuard existed the unwind left
 * the bus locked forever — every later WatchMemory call then died with
 * the misleading "bus already locked" panic instead of doing its job.
 * The rest of the file locks down the contract of SimCheck, the
 * annotated concurrency primitive the refactor touched.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "check/simcheck.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "os/machine.h"

namespace safemem {
namespace {

class LockDisciplineTest : public ::testing::Test
{
  protected:
    LockDisciplineTest() : machine(MachineConfig{4u << 20, CacheConfig{16, 2}, 64})
    {
    }

    Machine machine;
};

TEST_F(LockDisciplineTest, BusLockGuardPairsLockAndUnlock)
{
    MemoryController &controller = machine.controller();
    EXPECT_FALSE(controller.busLocked());
    {
        BusLockGuard bus(controller);
        EXPECT_TRUE(controller.busLocked());
    }
    EXPECT_FALSE(controller.busLocked());
}

TEST_F(LockDisciplineTest, BusLockGuardReleasesOnUnwind)
{
    MemoryController &controller = machine.controller();
    try {
        BusLockGuard bus(controller);
        panic("deliberate unwind with the bus locked");
    } catch (const PanicError &) {
    }
    EXPECT_FALSE(controller.busLocked());
}

/**
 * Regression (pre-BusLockGuard this failed): DisableWatchMemory panics
 * on a mapped-but-unwatched line *after* locking the bus; the unwind
 * must release the bus or the kernel is wedged for every later watch.
 */
TEST_F(LockDisciplineTest, DisableUnwatchedPanicReleasesBusLock)
{
    Kernel &kernel = machine.kernel();
    VirtAddr base = kernel.mapRegion(kPageSize);
    machine.store<std::uint64_t>(base, 7);

    EXPECT_THROW(kernel.disableWatchMemory(base, kCacheLineSize),
                 PanicError);
    EXPECT_FALSE(machine.controller().busLocked())
        << "panic unwound with the memory bus still locked";

    // The kernel must still be fully operational: a watch/unwatch round
    // trip would previously die with "bus already locked".
    kernel.watchMemory(base, kCacheLineSize);
    EXPECT_TRUE(kernel.isWatched(base));
    kernel.disableWatchMemory(base, kCacheLineSize);
    EXPECT_FALSE(kernel.isWatched(base));
    EXPECT_EQ(machine.load<std::uint64_t>(base), 7u);
}

/**
 * Same unwind discipline for the partially-watched case: the panic
 * fires mid-loop (first line watched, second not) and must still
 * release the bus on the way out.
 */
TEST_F(LockDisciplineTest, PartiallyWatchedDisablePanicReleasesBusLock)
{
    Kernel &kernel = machine.kernel();
    VirtAddr base = kernel.mapRegion(kPageSize);
    kernel.watchMemory(base, kCacheLineSize);

    EXPECT_THROW(kernel.disableWatchMemory(base, 2 * kCacheLineSize),
                 PanicError);
    EXPECT_FALSE(machine.controller().busLocked());

    // The first line was unwatched before the panic; watching it again
    // must succeed now that the bus is free.
    kernel.watchMemory(base, kCacheLineSize);
    kernel.disableWatchMemory(base, kCacheLineSize);
}

TEST(SimCheckDiscipline, ConcurrentReportsAreAllRecorded)
{
    SimCheck &auditor = SimCheck::instance();
    auditor.setThrowOnViolation(false);
    auditor.clearViolations();

    const Log quiet = Log::quiet();
    constexpr int kThreads = 4;
    constexpr int kReports = 50;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&quiet] {
            LogScope scope(quiet); // keep warn() spam out of test output
            for (int i = 0; i < kReports; ++i)
                SimCheck::instance().report(AuditDomain::Kernel,
                                            "discipline_smoke", "");
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(auditor.violations().size(),
              static_cast<std::size_t>(kThreads * kReports));
    auditor.clearViolations();
    auditor.setThrowOnViolation(true);
}

} // namespace
} // namespace safemem
