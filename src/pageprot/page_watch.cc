#include "pageprot/page_watch.h"

#include "common/logging.h"

namespace safemem {

PageWatchBackend::PageWatchBackend(Machine &machine)
    : machine_(machine)
{
}

void
PageWatchBackend::install()
{
    machine_.kernel().registerSegvHandler(
        [this](VirtAddr addr) { return onSegv(addr); });
}

void
PageWatchBackend::setFaultCallback(WatchFaultCallback callback)
{
    callback_ = std::move(callback);
}

void
PageWatchBackend::watch(VirtAddr base, std::size_t size, WatchKind kind,
                        std::uint64_t cookie)
{
    table_.checkFree(base, size);
    machine_.kernel().mprotectRange(base, size, false);
    table_.regions.emplace(base, WatchRegion{size, kind, cookie});
    table_.countArm(size);
}

void
PageWatchBackend::unwatch(VirtAddr base)
{
    auto it = table_.regions.find(base);
    if (it == table_.regions.end())
        panic("PageWatchBackend: unwatch of unknown region ", base);
    machine_.kernel().mprotectRange(base, it->second.size, true);
    table_.countDisarm(it->second.size);
    table_.regions.erase(it);
    stats_.add(PageWatchStat::RegionsUnwatched);
}

bool
PageWatchBackend::onSegv(VirtAddr addr)
{
    auto it = table_.holding(addr);
    if (it == table_.regions.end()) {
        stats_.add(PageWatchStat::ForeignSegvs);
        return false;
    }
    const VirtAddr base = it->first;
    const WatchRegion region = it->second;

    CostScope scope(machine_.clock(),
                    region.kind == WatchKind::LeakSuspect
                        ? CostCenter::ToolLeak
                        : CostCenter::ToolCorruption);

    // First access is all we need: lift the protection, then dispatch.
    unwatch(base);
    stats_.add(PageWatchStat::AccessFaults);
    if (callback_)
        callback_(base, region.kind, region.cookie,
                  alignDown(addr, kPageSize),
                  machine_.kernel().lastAccessWasWrite());
    return true;
}

} // namespace safemem
