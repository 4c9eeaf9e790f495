#include "safemem/watch_manager.h"

#include <algorithm>

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
                   std::none_of(table_.regions.begin(), table_.regions.end(),
                                [](const auto &entry) {
                                    return entry.second.park == Park::Scrub;
                                }),
                   "scrub park while a region from the previous pass "
                   "awaits restore");
    // Lift every watch so the scrubber sees clean lines (paper §2.2.2:
    // SafeMem temporarily unmonitors watched regions and blocks the
    // program until scrubbing finishes).
    park(Park::Scrub, 0, ~VirtAddr{0});
    stats_.add(WatchStat::ScrubUnwatchPasses);
}

void
EccWatchManager::restoreAfterScrub()
{
    restore(Park::Scrub, 0, ~VirtAddr{0});
}

void
EccWatchManager::installSwapHooks()
{
    machine_.kernel().setSwapHooks(
        [this](VirtAddr page) { park(Park::Swap, page, page + kPageSize); },
        [this](VirtAddr page) { restore(Park::Swap, page, page + kPageSize); });
}

void
EccWatchManager::park(Park why, VirtAddr lo, VirtAddr hi)
{
    // Disarming makes no memory access, so nothing re-enters this loop.
    for (auto it = table_.firstEndingAbove(lo);
         it != table_.regions.end() && it->first < hi; ++it) {
        if (it->second.park != Park::None)
            continue;
        SAFEMEM_TRACE_EMIT(trace_,
                           why == Park::Scrub ? TraceEvent::WatchScrubPark
                                              : TraceEvent::WatchSwapPark,
                           machine_.clock().now(), it->first,
                           it->second.size);
        disarm(it);
        it->second.park = why;
        it->second.parkSeq = parks_++;
        if (why == Park::Swap)
            stats_.add(WatchStat::RegionsSwapParked);
    }
}

void
EccWatchManager::restore(Park why, VirtAddr lo, VirtAddr hi)
{
    // Take the whole batch out before arming any of it: arming reads
    // memory, which may page in a neighbour page, and that page's own
    // restore must not see this batch.
    std::vector<std::pair<VirtAddr, Region>> batch;
    for (auto it = table_.firstEndingAbove(lo);
         it != table_.regions.end() && it->first < hi;) {
        if (it->second.park != why) {
            ++it;
            continue;
        }
        batch.emplace_back(it->first, std::move(it->second));
        it = table_.regions.erase(it);
    }
    // Park order, not base order: a region reaching into a neighbour
    // page may have parked at that page's earlier swap-out.
    std::sort(batch.begin(), batch.end(), [](const auto &x, const auto &y) {
        return x.second.parkSeq < y.second.parkSeq;
    });
    for (auto &[base, region] : batch) {
        SAFEMEM_TRACE_EMIT(trace_,
                           why == Park::Scrub ? TraceEvent::WatchScrubRestore
                                              : TraceEvent::WatchSwapRestore,
                           machine_.clock().now(), base, region.size);
        arm(base, std::move(region));
        if (why == Park::Swap)
            stats_.add(WatchStat::RegionsSwapRestored);
    }
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
    table_.checkFree(base, size);
    arm(base, Region{{size, kind, cookie}, Park::None, 0, {}});
}

void
EccWatchManager::arm(VirtAddr base, Region region)
{
    // The region stays out of the table while its lines are read: the
    // read may run a scrub pass or page in a neighbour page, and
    // neither may park or restore a half-armed region.
    region.park = Park::None;
    // Save the original contents into SafeMem's private memory — the
    // hardware-error discriminator needs them (§2.2.2).
    region.originalLines.resize(region.size / kCacheLineSize);
    machine_.read(base, region.originalLines.data(), region.size);
    machine_.kernel().watchMemory(base, region.size);
    table_.countArm(region.size);
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::WatchEstablish,
                       machine_.clock().now(), base, region.size,
                       static_cast<std::uint64_t>(region.kind));
    table_.regions.emplace(base, std::move(region));
}

void
EccWatchManager::disarm(Table::Map::iterator it)
{
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::WatchDrop, machine_.clock().now(),
                       it->first, it->second.size);
    machine_.kernel().disableWatchMemory(it->first, it->second.size);
    table_.countDisarm(it->second.size);
}

EccWatchManager::Region
EccWatchManager::drop(Table::Map::iterator it)
{
    if (it->second.park == Park::None) {
        disarm(it);
    } else {
        // A parked region is still logically watched; cancelling it
        // only forgets it (its lines were unscrambled when it parked).
        SAFEMEM_TRACE_EMIT(trace_,
                           it->second.park == Park::Scrub
                               ? TraceEvent::WatchScrubCancel
                               : TraceEvent::WatchSwapCancel,
                           machine_.clock().now(), it->first);
        stats_.add(WatchStat::ParkedRegionsCancelled);
    }
    Region region = std::move(it->second);
    table_.regions.erase(it);
    return region;
}

void
EccWatchManager::unwatch(VirtAddr base)
{
    auto it = table_.regions.find(base);
    if (it == table_.regions.end())
        panic("EccWatchManager: unwatch of unknown region ", base);
    if (it->second.park == Park::None)
        stats_.add(WatchStat::RegionsUnwatched);
    drop(it);
}

FaultDecision
EccWatchManager::onEccFault(const UserEccFault &fault)
{
    VirtAddr vline = alignDown(fault.vaddr, kCacheLineSize);
    auto it = table_.holding(vline);
    // Not one of ours: a genuine hardware error somewhere else. So is
    // one on a swap-parked region: it may be half paged out, and the
    // program may have written its resident lines since it parked.
    if (it == table_.regions.end() || it->second.park == Park::Swap) {
        if (inRepair_)
            panic("EccWatchManager: nested ECC fault at line ", vline,
                  " while repairing a hardware error — the repair path "
                  "pulled the corrupted region back through the cache");
        stats_.add(WatchStat::ForeignFaults);
        SAFEMEM_TRACE_EMIT(trace_, TraceEvent::WatchFaultForeign,
                           machine_.clock().now(), vline);
        return FaultDecision::HardwareError;
    }

    const VirtAddr base = it->first;
    const Region &region = it->second;

    // Everything from here on is monitoring work, not application work.
    CostScope scope(machine_.clock(),
                    region.kind == WatchKind::LeakSuspect
                        ? CostCenter::ToolLeak
                        : CostCenter::ToolCorruption);

    // A scrub-parked region's lines are clean, resident and, with the
    // program blocked until the pass ends, unchanged, so only a hardware
    // error can fault on one. On an armed line, recompute the scramble
    // signature and compare against memory: a mismatch means a real
    // hardware error struck the watched line (§2.2.2).
    MemoryController &controller = machine_.controller();
    bool hardware_error = region.park == Park::Scrub;
    if (!hardware_error) {
        const LineWords current =
            controller.peekLine(alignDown(fault.lineAddr, kCacheLineSize));
        const LineWords &original =
            region.originalLines[(vline - base) / kCacheLineSize];
        for (std::size_t i = 0; i < kEccGroupsPerLine && !hardware_error;
             ++i)
            hardware_error = current[i] != scramble_.apply(original[i]);
    }

    if (hardware_error) {
        // The watched data is expendable (padding or a suspected leak)
        // and we hold a pristine copy: repair the region, then report
        // the hardware error.
        stats_.add(WatchStat::HardwareErrorsDetected);
        SAFEMEM_TRACE_EMIT(trace_, TraceEvent::WatchFaultHardware,
                           machine_.clock().now(), vline, base);
        if (inRepair_)
            panic("EccWatchManager: nested hardware fault inside the "
                  "repair path at line ", vline);
        inRepair_ = true;
        // Dropping a scrub-parked region cancels its restore.
        const Region saved = drop(it);
        // Repair with device ops, which re-encode each line without
        // cache traffic: a machine_.write() would write-allocate, and
        // its read-for-ownership fill would pull the corrupted line
        // through the controller — a nested fault inside the handler,
        // which the inRepair_ guard turns into a panic.
        Kernel &kernel = machine_.kernel();
        for (std::size_t off = 0; off < saved.size; off += kCacheLineSize) {
            PhysAddr pline = kernel.translate(base + off);
            // No line can be cache-resident (watchMemory flushed them,
            // and the program cannot touch a scrub-parked one), but
            // flush so a stale copy can never shadow the repair.
            machine_.cache().flushLine(pline);
            controller.writeLineDeviceOp(
                pline, saved.originalLines[off / kCacheLineSize]);
        }
        inRepair_ = false;
        SAFEMEM_TRACE_EMIT(trace_, TraceEvent::WatchRepairDone,
                           machine_.clock().now(), base, saved.size);
        return FaultDecision::HardwareError;
    }

    // Access fault: remove the watch (only the first access matters),
    // then hand the event to the owning detector.
    stats_.add(WatchStat::AccessFaults);
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::WatchFaultAccess,
                       machine_.clock().now(), vline, base,
                       fault.isWrite ? 1 : 0);
    const Region saved = drop(it);
    if (callback_)
        callback_(base, saved.kind, saved.cookie, vline, fault.isWrite);
    return FaultDecision::Handled;
}

} // namespace safemem
