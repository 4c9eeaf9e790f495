/**
 * @file
 * Equivalence lock for the enum-indexed StatSet rework: across real
 * machine traffic and a full workload run, the slot-registered counters
 * must snapshot to exactly the name->value map the old string-keyed
 * implementation produced — same names, same values, enum and string
 * views always agreeing.
 */

#include <gtest/gtest.h>

#include "alloc/heap_allocator.h"
#include "cache/cache.h"
#include "mem/memory_controller.h"
#include "os/kernel.h"
#include "os/machine.h"
#include "os/tlb.h"
#include "workloads/driver.h"

namespace safemem {
namespace {

/**
 * Assert that @p stats is internally consistent the way the old
 * implementation was by construction: every snapshot entry is readable
 * back through the string get(), every registered slot agrees between
 * its index and its name, and untouched slots read 0 and stay out of
 * the snapshot.
 */
template <typename E>
void
expectEnumStringAgreement(const StatSet &stats)
{
    auto snapshot = stats.all();
    for (const auto &[name, value] : snapshot)
        EXPECT_EQ(stats.get(name), value) << name;

    const auto &names = stats.slotNames();
    for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(stats.get(static_cast<E>(i)), stats.get(names[i]))
            << names[i];
        if (!snapshot.count(names[i])) {
            EXPECT_EQ(stats.get(names[i]), 0u) << names[i];
        }
    }
}

TEST(StatsEquivalence, MachineTrafficSnapshotsMatchStringView)
{
    Machine machine;
    VirtAddr region = machine.kernel().mapRegion(64 * kPageSize);

    // Mixed traffic: hits, misses, writebacks, TLB churn, block spans.
    for (std::uint64_t i = 0; i < 20000; ++i) {
        VirtAddr addr = region + (i * 264) % (64 * kPageSize - 8);
        if (i % 3 == 0)
            machine.store<std::uint64_t>(addr, i);
        else
            machine.load<std::uint64_t>(addr);
    }
    std::vector<std::uint8_t> buffer(kPageSize);
    machine.write(region, buffer.data(), buffer.size());
    machine.read(region + kPageSize, buffer.data(), buffer.size());

    expectEnumStringAgreement<CacheStat>(machine.cache().stats());
    const StatSet &tlb = machine.kernel().currentProcess().tlb().stats();
    expectEnumStringAgreement<TlbStat>(tlb);
    expectEnumStringAgreement<KernelStat>(machine.kernel().stats());
    expectEnumStringAgreement<ControllerStat>(
        machine.controller().stats());

    // The traffic above must actually have exercised the hot counters.
    EXPECT_GT(machine.cache().stats().get(CacheStat::Hits), 0u);
    EXPECT_GT(machine.cache().stats().get(CacheStat::Misses), 0u);
    EXPECT_GT(tlb.get(TlbStat::Hits), 0u);
}

TEST(StatsEquivalence, WorkloadRunKeepsHistoricalStatNames)
{
    RunParams params;
    params.requests = defaultRequests("ypserv1");
    params.buggy = true;
    params.seed = 42;
    RunResult result =
        runWorkload("ypserv1", ToolKind::SafeMemBoth, params);

    // The driver merges each module's all() snapshot under a dotted
    // prefix; these exact keys predate the enum rework and must survive
    // it (report_writer and the table tooling key on them).
    for (const char *key :
         {"cache.hits", "cache.misses", "cache.writebacks", "tlb.hits",
          "tlb.misses", "kernel.pages_mapped", "kernel.lines_watched",
          "controller.line_fills", "controller.line_evictions",
          "alloc.allocs", "alloc.frees", "leak.allocs_tracked",
          "watch.regions_watched"}) {
        ASSERT_TRUE(result.stats.count(key)) << key;
        EXPECT_GT(result.stats.at(key), 0u) << key;
    }

    // Slot names never leak enum spellings into snapshots.
    for (const auto &[name, value] : result.stats)
        EXPECT_EQ(name.find("Stat::"), std::string::npos) << name;
}

} // namespace
} // namespace safemem
