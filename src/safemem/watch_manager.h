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
 *  - coordinate with memory scrubbing: unwatch everything before a scrub
 *    pass and rewatch afterwards (§2.2.2 "Dealing with ECC Memory
 *    Scrubbing").
 */

#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "ecc/scramble.h"
#include "os/machine.h"
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
     * Lift every watch ahead of a scrub pass, parking the regions for
     * restoreAfterScrub() (paper §2.2.2 "Dealing with ECC Memory
     * Scrubbing"). Parked regions stay logically watched: isWatched()
     * reports them, unwatch() cancels them, and watch() refuses
     * overlaps with them — exactly like swap-parked regions.
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
    bool isWatched(VirtAddr base) const override;
    std::size_t regionCount() const override { return regions_.size(); }
    std::uint64_t watchedBytes() const override { return watchedBytes_; }
    const StatSet &stats() const override { return stats_; }
    /// @}

    /**
     * The user-level ECC fault handler (registered via the kernel).
     * Classifies the fault by scramble signature and dispatches access
     * faults; hardware errors are repaired from the private copy.
     */
    FaultDecision onEccFault(const UserEccFault &fault);

  private:
    struct Region
    {
        VirtAddr base = 0;
        std::size_t size = 0;
        WatchKind kind = WatchKind::LeakSuspect;
        std::uint64_t cookie = 0;
        /** Private copy of the original data (one word per ECC group). */
        std::vector<std::uint64_t> originalWords;
    };

    /** Remove @p region's kernel watches and bookkeeping. */
    void dropRegion(std::map<VirtAddr, Region>::iterator it);

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

    /** Watched regions keyed by base address. */
    std::map<VirtAddr, Region> regions_;
    /** Line address -> owning region base. */
    std::unordered_map<VirtAddr, VirtAddr> lineToRegion_;

    /** Compile-time face of the park/restore pairing discipline. */
    Capability scrubPark_;
    /** Regions temporarily lifted for a scrub pass. */
    std::vector<Region> scrubParked_;
    /** Regions parked while their page is swapped out. */
    std::vector<Region> swapParked_;

    std::uint64_t watchedBytes_ = 0;
    StatSet stats_{kWatchStatNames};
};

} // namespace safemem
