/**
 * @file
 * The ECC watch backend — SafeMem's user-level library side of the
 * mechanism (paper §2.2).
 *
 * Responsibilities beyond calling the kernel's WatchMemory /
 * DisableWatchMemory:
 *
 *  - keep a private copy of each watched line's original contents, used
 *    to recompute the scramble signature and tell access faults apart
 *    from genuine hardware ECC errors (§2.2.2 "Data Scrambling");
 *  - dispatch verified access faults to the owning detector through the
 *    WatchFaultCallback, after disabling the watch (only the first
 *    access matters, §2.2.1);
 *  - coordinate with memory scrubbing and swapping: park watched
 *    regions before a scrub pass or a swap-out and re-arm them
 *    afterwards (§2.2.2 "Dealing with ECC Memory Scrubbing").
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "ecc/scramble.h"
#include "mem/line.h"
#include "os/machine.h"
#include "safemem/region_table.h"
#include "safemem/watch_backend.h"

namespace safemem {

/** Slot indices into the watch manager StatSet; order matches kWatchStatNames. */
enum class WatchStat : std::size_t
{
    ScrubUnwatchPasses,
    RegionsSwapParked,
    RegionsSwapRestored,
    RegionsWatched,
    PeakWatchedBytes,
    RegionsUnwatched,
    ParkedRegionsCancelled,
    ForeignFaults,
    HardwareErrorsDetected,
    AccessFaults,
};

/** Report/snapshot names for WatchStat, in enumerator order. */
inline constexpr const char *kWatchStatNames[] = {
    "scrub_unwatch_passes",
    "regions_swap_parked",
    "regions_swap_restored",
    "regions_watched",
    "peak_watched_bytes",
    "regions_unwatched",
    "parked_regions_cancelled",
    "foreign_faults",
    "hardware_errors_detected",
    "access_faults",
};

class EccWatchManager : public WatchBackend
{
  public:
    explicit EccWatchManager(Machine &machine);

    /** Wire this manager into the kernel's ECC fault delivery. */
    void installFaultHandler();

    /** Register the pre/post scrub hooks with the kernel. */
    void installScrubHooks();

    /**
     * Lift every armed watch ahead of a scrub pass, parking the regions
     * for restoreAfterScrub() (paper §2.2.2 "Dealing with ECC Memory
     * Scrubbing"). A parked region keeps its table entry, so it stays
     * logically watched: isWatched() reports it, unwatch() cancels it,
     * watch() refuses overlaps with it, and a hardware error on its
     * clean lines is repaired from the private copy.
     *
     * Park/restore is a simulated lock on the watch set, and earlier
     * double-park/lost-restore bugs lived here — so it is annotated as
     * a capability: any call path Clang can see that parks twice, or
     * restores without parking, is a compile error. The pairing across
     * the kernel's separate hooks (no park while an earlier park awaits
     * restore) is audited at runtime by SimCheck.
     */
    void parkAllForScrub() ACQUIRE(scrubPark_);

    /** Re-establish every region parked by parkAllForScrub(). */
    void restoreAfterScrub() RELEASE(scrubPark_);

    /**
     * Register swap hooks for the kernel's UnwatchRewatch policy
     * (paper §2.2.2's proposed alternative to pinning): watches on a
     * page that swaps out are parked, and re-established when the page
     * swaps back in.
     */
    void installSwapHooks();

    /** @name WatchBackend interface */
    /// @{
    std::size_t granule() const override { return kCacheLineSize; }
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

    /**
     * The user-level ECC fault handler (registered via the kernel).
     * Classifies the fault by scramble signature and dispatches access
     * faults; hardware errors are repaired from the private copy.
     */
    FaultDecision onEccFault(const UserEccFault &fault);

  private:
    /** Why a region's lines are clean while it stays logically
     *  watched; None means armed. */
    enum class Park : std::uint8_t { None, Scrub, Swap };

    struct Region : WatchRegion
    {
        Park park = Park::None;
        /** The region's place in park order, which restore() keeps. */
        std::uint64_t parkSeq = 0;
        /** Private copy of the original data, one entry per line. */
        std::vector<LineWords> originalLines;
    };

    using Table = RegionTable<Region, WatchStat>;

    /** Save @p region's lines, watch them and enter it in the table. */
    void arm(VirtAddr base, Region region);
    /** Lift @p it's kernel watch, keeping its entry. */
    void disarm(Table::Map::iterator it);
    /** Take @p it out of the table: disarm it, or cancel its park. */
    Region drop(Table::Map::iterator it);
    /** Park, for @p why, every armed region intersecting [lo, hi). */
    void park(Park why, VirtAddr lo, VirtAddr hi);
    /** Re-arm, in park order, the regions in [lo, hi) parked for @p why. */
    void restore(Park why, VirtAddr lo, VirtAddr hi);

    /**
     * @name Kernel scrub-hook trampolines
     * The kernel invokes park and restore from *separate* std::function
     * hooks, so the acquire/release pairing spans call paths the
     * analysis cannot follow; these two opt-outs are the only sanctioned
     * unpaired entries (the pairing itself is exercised by the scrub
     * tests and audited at runtime by SimCheck).
     */
    /// @{
    void scrubHookPark() NO_THREAD_SAFETY_ANALYSIS { parkAllForScrub(); }
    void scrubHookRestore() NO_THREAD_SAFETY_ANALYSIS
    {
        restoreAfterScrub();
    }
    /// @}

    Machine &machine_;
    const ScramblePattern &scramble_;
    Trace *trace_;
    WatchFaultCallback callback_;

    /** Guards the hardware-error repair block against re-entry: a
     *  nested ECC fault while rewriting the corrupted region means the
     *  repair itself pulled the bad line through the controller. */
    bool inRepair_ = false;

    /** Compile-time face of the park/restore pairing discipline. */
    Capability scrubPark_;
    /** Parks so far, the source of Region::parkSeq. */
    std::uint64_t parks_ = 0;

    StatSet stats_{kWatchStatNames};
    /** Every region, armed or parked, keyed by base. */
    Table table_{"EccWatchManager", kCacheLineSize, stats_};
};

} // namespace safemem
