/**
 * @file
 * A faithful model of Purify, the paper's dynamic-tool baseline (§5).
 *
 * Purify instruments the object code so *every* memory access is checked
 * against 2-bit-per-byte shadow state (allocated/freed x init/uninit);
 * red zones around each block catch out-of-bounds accesses and the
 * Freed state catches dangling accesses. Memory leaks are found by a
 * periodic conservative mark-and-sweep over the whole heap.
 *
 * Cost model (the paper's reason Purify cannot run in production):
 *  - every application access pays a shadow check;
 *  - compute-bound code pays an instrumentation multiplier, since real
 *    Purify instruments stack/register spills and local accesses too;
 *  - every mark-and-sweep loads every word of every *reachable* block
 *    through the machine, one Machine::readWords() call per block
 *    (polluting the cache exactly like the real thing), and pauses the
 *    program for its duration. It starts from the sorted root set, so
 *    its order does not depend on the root provider's container.
 *
 * A sweep runs from inside malloc, free or realloc once a period of
 * application time has passed, and only at a point where the program
 * holds every block it has not lost: malloc sweeps before the new
 * block goes live (the caller has not stored the pointer yet), and
 * realloc sweeps once, after the old block is freed and before the new
 * one goes live. A freed address leaves the set of reported leaks, so
 * a block the allocator later hands out there is judged afresh.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <map>

#include "alloc/heap_allocator.h"
#include "common/stats.h"
#include "common/tool.h"
#include "os/machine.h"
#include "purify/shadow_memory.h"
#include "safemem/report.h"

namespace safemem {

/** Returns the application root set (addresses of held pointers). */
using RootProvider = std::function<std::vector<VirtAddr>()>;

/** Slot indices into the Purify tool StatSet; order matches kPurifyStatNames. */
enum class PurifyStat : std::size_t
{
    BlocksInstrumented,
    BlocksFreed,
    CorruptionReports,
    AccessesChecked,
    UninitReads,
    Sweeps,
    LeakedBlocks,
};

/** Report/snapshot names for PurifyStat, in enumerator order. */
inline constexpr const char *kPurifyStatNames[] = {
    "blocks_instrumented",
    "blocks_freed",
    "corruption_reports",
    "accesses_checked",
    "uninit_reads",
    "sweeps",
    "leaked_blocks",
};

class PurifyTool : public Tool
{
  public:
    PurifyTool(Machine &machine, HeapAllocator &allocator);

    /** Hook every machine access. Call once after construction. */
    void install();

    /** Supply the conservative root set for mark-and-sweep. */
    void setRootProvider(RootProvider provider);

    /** @name Tool interface */
    /// @{
    VirtAddr toolAlloc(std::size_t size, const ShadowStack &stack,
                       std::uint64_t site_tag) override;
    VirtAddr toolCalloc(std::size_t count, std::size_t size,
                        const ShadowStack &stack,
                        std::uint64_t site_tag) override;
    VirtAddr toolRealloc(VirtAddr addr, std::size_t new_size,
                         const ShadowStack &stack,
                         std::uint64_t site_tag) override;
    void toolFree(VirtAddr addr) override;
    void onCompute(Cycles cycles) override;
    void finish() override;
    /// @}

    /** @return corruption findings (bounds errors, dangling accesses). */
    const std::vector<CorruptionReport> &corruptionReports() const
    {
        return corruptionReports_;
    }

    /** @return leak findings from mark-and-sweep. */
    const std::vector<LeakReport> &leakReports() const
    {
        return leakReports_;
    }

    /** @return tool statistics. */
    const StatSet &stats() const { return stats_; }

  private:
    struct Block
    {
        VirtAddr base = 0;     ///< red-zone start
        VirtAddr userAddr = 0;
        std::size_t size = 0;
        std::uint64_t siteTag = 0;
    };

    /** Allocate a red-zoned block of @p size user bytes and shadow it;
     *  the block is not live until adopt(). */
    Block placeBlock(std::size_t size, std::uint64_t site_tag);

    /** Make @p block live: sweeps scan it and may report it. */
    void adopt(const Block &block);

    /** Shadow the live block at @p addr Freed and return it to the
     *  allocator. */
    void retire(VirtAddr addr);

    /** Run markAndSweep() once a sweep period of application time has
     *  passed since the last one. Called only where every live block
     *  the program still holds is in the root set. */
    void maybeSweep();

    /** The per-access instrumentation (machine access hook). */
    void onAccess(VirtAddr addr, std::size_t size, bool is_write);

    /** Conservative mark-and-sweep over the heap (paper §5). */
    void markAndSweep();

    void reportCorruption(CorruptionKind kind, const Block *block,
                          VirtAddr fault_addr);

    Cycles appNow() const;

    Machine &machine_;
    HeapAllocator &allocator_;
    ShadowMemory shadow_;

    /** Live instrumented blocks, sorted by user address. */
    std::map<VirtAddr, Block> live_;
    /** Freed blocks, sorted by user address (dangling diagnosis). */
    std::map<VirtAddr, Block> freed_;

    RootProvider rootProvider_;
    Cycles lastSweep_ = 0;
    bool inToolCode_ = false;

    std::vector<CorruptionReport> corruptionReports_;
    std::vector<LeakReport> leakReports_;
    /** Live blocks already reported leaked (no duplicates across
     *  sweeps); freeing a block removes its address. */
    std::unordered_set<VirtAddr> reportedLeaked_;
    StatSet stats_{kPurifyStatNames};
};

} // namespace safemem
