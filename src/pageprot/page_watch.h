/**
 * @file
 * Page-protection watch backend — the mechanism the paper compares ECC
 * protection against (Tables 2 and 4).
 *
 * Watching a region means mprotect(PROT_NONE) over its (page-aligned)
 * range; the first access raises SIGSEGV, which the kernel delivers to
 * the handler this backend registers. Identical detector logic runs on
 * top — only the granule (4096 vs 64 bytes) and the syscall costs
 * differ, which is exactly what drives the paper's 64-74x memory-waste
 * gap.
 */

#pragma once

#include <cstdint>

#include "os/machine.h"
#include "safemem/region_table.h"
#include "safemem/watch_backend.h"

namespace safemem {

/** Slot indices into the page-watch backend StatSet; order matches kPageWatchStatNames. */
enum class PageWatchStat : std::size_t
{
    RegionsWatched,
    PeakWatchedBytes,
    RegionsUnwatched,
    ForeignSegvs,
    AccessFaults,
};

/** Report/snapshot names for PageWatchStat, in enumerator order. */
inline constexpr const char *kPageWatchStatNames[] = {
    "regions_watched",
    "peak_watched_bytes",
    "regions_unwatched",
    "foreign_segvs",
    "access_faults",
};

class PageWatchBackend : public WatchBackend
{
  public:
    explicit PageWatchBackend(Machine &machine);

    /** Register the SIGSEGV handler with the kernel. */
    void install();

    /** @name WatchBackend interface */
    /// @{
    std::size_t granule() const override { return kPageSize; }
    void setFaultCallback(WatchFaultCallback callback) override;
    void watch(VirtAddr base, std::size_t size, WatchKind kind,
               std::uint64_t cookie) override;
    void unwatch(VirtAddr base) override;
    bool isWatched(VirtAddr base) const override
    {
        return table_.regions.contains(base);
    }
    std::size_t regionCount() const override { return table_.armedCount(); }
    std::uint64_t watchedBytes() const override { return table_.armedBytes(); }
    const StatSet &stats() const override { return stats_; }
    /// @}

    /** SIGSEGV entry point. @return true when the fault was ours. */
    bool onSegv(VirtAddr addr);

  private:
    Machine &machine_;
    WatchFaultCallback callback_;
    StatSet stats_{kPageWatchStatNames};
    RegionTable<WatchRegion, PageWatchStat> table_{"PageWatchBackend",
                                                     kPageSize, stats_};
};

} // namespace safemem
