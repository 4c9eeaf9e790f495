#include "safemem/watch_manager.h"

#include <iterator>

#include "check/simcheck.h"
#include "common/logging.h"
#include "trace/trace.h"

namespace safemem {

EccWatchManager::EccWatchManager(Machine &machine)
    : machine_(machine), scramble_(machine.kernel().scramblePattern()),
      trace_(machine.trace())
{
}

void
EccWatchManager::installFaultHandler()
{
    machine_.kernel().registerEccFaultHandler(
        [this](const UserEccFault &fault) { return onEccFault(fault); });
}

void
EccWatchManager::installScrubHooks()
{
    machine_.kernel().setScrubHooks(
        [this] { scrubHookPark(); }, [this] { scrubHookRestore(); });
}

void
EccWatchManager::parkAllForScrub()
{
    // Pairing discipline: the kernel runs park → scrub → restore
    // strictly nested, so no region may still await restore from an
    // earlier pass when the next one parks.
    SIMCHECK_AUDIT(AuditDomain::Kernel, "scrub_park_pairing",
                   scrubParked_.empty(), "scrub park while region ",
                   scrubParked_.front().base,
                   " from the previous pass awaits restore");
    // Lift every watch so the scrubber sees clean lines (paper §2.2.2:
    // SafeMem temporarily unmonitors watched regions and blocks the
    // program until scrubbing finishes).
    std::vector<VirtAddr> bases;
    for (const auto &[base, region] : regions_)
        bases.push_back(base);
    for (VirtAddr base : bases) {
        auto it = regions_.find(base);
        scrubParked_.push_back(it->second);
        SAFEMEM_TRACE_EMIT(trace_, TraceEvent::WatchScrubPark,
                           machine_.clock().now(), it->second.base,
                           it->second.size);
        dropRegion(it);
    }
    stats_.add(WatchStat::ScrubUnwatchPasses);
}

void
EccWatchManager::restoreAfterScrub()
{
    // Detach the parked regions first — watch() consults the parking
    // list for overlaps, so restoring in place would see each region
    // as overlapping itself.
    std::vector<Region> restore = std::move(scrubParked_);
    scrubParked_.clear();
    for (const Region &region : restore) {
        SAFEMEM_TRACE_EMIT(trace_, TraceEvent::WatchScrubRestore,
                           machine_.clock().now(), region.base, region.size);
        watch(region.base, region.size, region.kind, region.cookie);
    }
}

void
EccWatchManager::installSwapHooks()
{
    machine_.kernel().setSwapHooks(
        [this](VirtAddr vpage) {
            // Pre swap-out: park every watched region that intersects
            // the departing page.
            std::vector<VirtAddr> bases;
            for (const auto &[base, region] : regions_) {
                if (base < vpage + kPageSize &&
                    base + region.size > vpage)
                    bases.push_back(base);
            }
            for (VirtAddr base : bases) {
                auto it = regions_.find(base);
                swapParked_.push_back(it->second);
                SAFEMEM_TRACE_EMIT(trace_, TraceEvent::WatchSwapPark,
                                   machine_.clock().now(), it->second.base,
                                   it->second.size);
                dropRegion(it);
                stats_.add(WatchStat::RegionsSwapParked);
            }
        },
        [this](VirtAddr vpage) {
            // Post swap-in: restore the parked regions of this page.
            // Detach them from the parking list first — watch()
            // consults it for overlaps.
            std::vector<Region> restore;
            std::vector<Region> keep;
            for (const Region &region : swapParked_) {
                if (region.base < vpage + kPageSize &&
                    region.base + region.size > vpage)
                    restore.push_back(region);
                else
                    keep.push_back(region);
            }
            swapParked_ = std::move(keep);
            for (const Region &region : restore) {
                SAFEMEM_TRACE_EMIT(trace_, TraceEvent::WatchSwapRestore,
                                   machine_.clock().now(), region.base,
                                   region.size);
                watch(region.base, region.size, region.kind,
                      region.cookie);
                stats_.add(WatchStat::RegionsSwapRestored);
            }
        });
}

void
EccWatchManager::setFaultCallback(WatchFaultCallback callback)
{
    callback_ = std::move(callback);
}

void
EccWatchManager::watch(VirtAddr base, std::size_t size, WatchKind kind,
                       std::uint64_t cookie)
{
    if (!isAligned(base, kCacheLineSize) || !isAligned(size, kCacheLineSize)
        || size == 0)
        panic("EccWatchManager: region ", base, "+", size,
              " is not line aligned");

    // Regions never overlap, so only the neighbours on either side of
    // base can overlap the new one.
    auto next = regions_.lower_bound(base);
    if (next != regions_.begin()) {
        const Region &prev = std::prev(next)->second;
        if (prev.base + prev.size > base)
            panic("EccWatchManager: line ", base, " already watched");
    }
    if (next != regions_.end() && next->first < base + size)
        panic("EccWatchManager: line ", next->first, " already watched");
    for (const Region &parked : swapParked_) {
        if (base < parked.base + parked.size && parked.base < base + size)
            panic("EccWatchManager: region ", base,
                  " overlaps a swap-parked watch at ", parked.base);
    }
    // Scrub-parked regions are just as logically watched as swap-parked
    // ones: they come back the moment the scrub pass finishes, so
    // letting a new watch overlap one would double-watch on restore.
    for (const Region &parked : scrubParked_) {
        if (base < parked.base + parked.size && parked.base < base + size)
            panic("EccWatchManager: region ", base,
                  " overlaps a scrub-parked watch at ", parked.base);
    }

    Region region;
    region.base = base;
    region.size = size;
    region.kind = kind;
    region.cookie = cookie;

    // Save the original contents into SafeMem's private memory — the
    // hardware-error discriminator needs them (§2.2.2).
    region.originalLines.resize(size / kCacheLineSize);
    machine_.read(base, region.originalLines.data(), size);

    machine_.kernel().watchMemory(base, size);

    watchedBytes_ += size;
    stats_.add(WatchStat::RegionsWatched);
    stats_.maxOf(WatchStat::PeakWatchedBytes, watchedBytes_);
    regions_.emplace(base, std::move(region));
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::WatchEstablish,
                       machine_.clock().now(), base, size,
                       static_cast<std::uint64_t>(kind));
}

EccWatchManager::RegionMap::iterator
EccWatchManager::regionHolding(VirtAddr addr)
{
    auto it = regions_.upper_bound(addr);
    if (it == regions_.begin())
        return regions_.end();
    --it;
    return addr < it->first + it->second.size ? it : regions_.end();
}

void
EccWatchManager::dropRegion(RegionMap::iterator it)
{
    const Region &region = it->second;
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::WatchDrop,
                       machine_.clock().now(), region.base, region.size);
    machine_.kernel().disableWatchMemory(region.base, region.size);
    watchedBytes_ -= region.size;
    regions_.erase(it);
}

void
EccWatchManager::unwatch(VirtAddr base)
{
    auto it = regions_.find(base);
    if (it != regions_.end()) {
        dropRegion(it);
        stats_.add(WatchStat::RegionsUnwatched);
        return;
    }
    // A parked region — swap- or scrub-parked — is still logically
    // watched; cancelling it only removes the parking entry (its lines
    // were already unscrambled when it was parked).
    for (auto parked = swapParked_.begin(); parked != swapParked_.end();
         ++parked) {
        if (parked->base == base) {
            SAFEMEM_TRACE_EMIT(trace_, TraceEvent::WatchSwapCancel,
                               machine_.clock().now(), base);
            swapParked_.erase(parked);
            stats_.add(WatchStat::ParkedRegionsCancelled);
            return;
        }
    }
    for (auto parked = scrubParked_.begin(); parked != scrubParked_.end();
         ++parked) {
        if (parked->base == base) {
            SAFEMEM_TRACE_EMIT(trace_, TraceEvent::WatchScrubCancel,
                               machine_.clock().now(), base);
            scrubParked_.erase(parked);
            stats_.add(WatchStat::ParkedRegionsCancelled);
            return;
        }
    }
    panic("EccWatchManager: unwatch of unknown region ", base);
}

bool
EccWatchManager::isWatched(VirtAddr base) const
{
    if (regions_.count(base) != 0)
        return true;
    for (const Region &region : swapParked_) {
        if (region.base == base)
            return true;
    }
    for (const Region &region : scrubParked_) {
        if (region.base == base)
            return true;
    }
    return false;
}

FaultDecision
EccWatchManager::onEccFault(const UserEccFault &fault)
{
    VirtAddr vline = alignDown(fault.vaddr, kCacheLineSize);
    auto it = regionHolding(vline);
    if (it == regions_.end()) {
        // Not one of ours: a genuine hardware error somewhere else.
        if (inRepair_)
            panic("EccWatchManager: nested ECC fault at line ", vline,
                  " while repairing a hardware error — the repair path "
                  "pulled the corrupted region back through the cache");
        stats_.add(WatchStat::ForeignFaults);
        SAFEMEM_TRACE_EMIT(trace_, TraceEvent::WatchFaultForeign,
                           machine_.clock().now(), vline);
        return FaultDecision::HardwareError;
    }

    const Region &region = it->second;

    // Everything from here on is monitoring work, not application work.
    CostScope scope(machine_.clock(),
                    region.kind == WatchKind::LeakSuspect
                        ? CostCenter::ToolLeak
                        : CostCenter::ToolCorruption);

    // Recompute the scramble signature for the faulting line and compare
    // against memory: a mismatch means a real hardware error struck the
    // watched line (§2.2.2).
    MemoryController &controller = machine_.controller();
    const LineWords current =
        controller.peekLine(alignDown(fault.lineAddr, kCacheLineSize));
    const LineWords &original =
        region.originalLines[(vline - region.base) / kCacheLineSize];
    bool signature_intact = true;
    for (std::size_t i = 0; i < kEccGroupsPerLine; ++i) {
        if (current[i] != scramble_.apply(original[i])) {
            signature_intact = false;
            break;
        }
    }

    if (!signature_intact) {
        // Hardware error under a watch. The watched data is expendable
        // (padding or a suspected leak) and we hold a pristine copy:
        // repair the region, then report the hardware error.
        stats_.add(WatchStat::HardwareErrorsDetected);
        SAFEMEM_TRACE_EMIT(trace_, TraceEvent::WatchFaultHardware,
                           machine_.clock().now(), vline, region.base);
        if (inRepair_)
            panic("EccWatchManager: nested hardware fault inside the "
                  "repair path at line ", vline);
        inRepair_ = true;
        Region saved = region;
        dropRegion(it);
        // Repair through the device-op path: writeLineDeviceOp rewrites
        // each line with freshly encoded check bytes without any cache
        // traffic. A machine_.write() here would write-allocate, and the
        // read-for-ownership fill would pull the still-corrupted line
        // through the controller — a nested ECC fault inside the fault
        // handler (the inRepair_ guard above turns that into a panic
        // rather than unbounded recursion).
        Kernel &kernel = machine_.kernel();
        for (std::size_t off = 0; off < saved.size; off += kCacheLineSize) {
            PhysAddr pline = kernel.translate(saved.base + off);
            // The region's lines cannot be cache-resident (watchMemory
            // flushed them and faulted fills never install), but flush
            // defensively so a stale copy can never shadow the repair.
            machine_.cache().flushLine(pline);
            controller.writeLineDeviceOp(
                pline, saved.originalLines[off / kCacheLineSize]);
        }
        inRepair_ = false;
        SAFEMEM_TRACE_EMIT(trace_, TraceEvent::WatchRepairDone,
                           machine_.clock().now(), saved.base, saved.size);
        return FaultDecision::HardwareError;
    }

    // Access fault: remove the watch (only the first access matters),
    // then hand the event to the owning detector.
    stats_.add(WatchStat::AccessFaults);
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::WatchFaultAccess,
                       machine_.clock().now(), vline, region.base,
                       fault.isWrite ? 1 : 0);
    Region saved = region;
    dropRegion(it);
    if (callback_)
        callback_(saved.base, saved.kind, saved.cookie, vline,
                  fault.isWrite);
    return FaultDecision::Handled;
}

} // namespace safemem
