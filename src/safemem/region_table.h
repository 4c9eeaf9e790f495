/**
 * @file
 * The region table both watch backends keep: one map of non-overlapping,
 * granule-aligned regions keyed by base, with the overlap check, the
 * holding-region lookup and the armed-region accounting behind
 * WatchBackend::regionCount() and watchedBytes(). A region the ECC
 * backend parks (paper §2.2.2) keeps its entry, so every check and
 * lookup still sees it, but is not armed.
 */

#pragma once

#include <cstdint>
#include <iterator>
#include <map>

#include "common/logging.h"
#include "common/stats.h"
#include "safemem/watch_backend.h"

namespace safemem {

/** What a backend records per region; the base is the map's key. */
struct WatchRegion
{
    std::size_t size = 0;
    WatchKind kind = WatchKind::LeakSuspect;
    std::uint64_t cookie = 0;
};

/** One backend's regions. @p Region is a WatchRegion, possibly extended
 *  with backend state; each arm counts into the RegionsWatched and
 *  PeakWatchedBytes slots of the backend's stat enum @p Stat. */
template <typename Region, typename Stat>
class RegionTable
{
  public:
    using Map = std::map<VirtAddr, Region>;

    /** @param owner names the backend in panic messages. */
    RegionTable(const char *owner, std::size_t granule, StatSet &stats)
        : owner_(owner), granule_(granule), stats_(stats)
    {}

    /** Panic unless [@p base, @p base + @p size) is non-empty, granule
     *  aligned and clear of every region, armed or parked. */
    void
    checkFree(VirtAddr base, std::size_t size)
    {
        if (size == 0 || !isAligned(base, granule_) ||
            !isAligned(size, granule_))
            panic(owner_, ": region ", base, "+", size, " is not ",
                  granule_, "-byte aligned");
        auto it = firstEndingAbove(base);
        if (it != regions.end() && it->first < base + size)
            panic(owner_, ": region ", base, "+", size,
                  " overlaps the watch at ", it->first);
    }

    /** @return the first region ending above @p addr: the one holding
     *  it, else the next one up. Regions never overlap, so they end in
     *  base order and only the nearest lower one can hold @p addr. */
    typename Map::iterator
    firstEndingAbove(VirtAddr addr)
    {
        auto it = regions.upper_bound(addr);
        if (it != regions.begin() &&
            addr < std::prev(it)->first + std::prev(it)->second.size)
            --it;
        return it;
    }

    /** @return the region holding @p addr, or regions.end(). */
    typename Map::iterator
    holding(VirtAddr addr)
    {
        auto it = firstEndingAbove(addr);
        return it != regions.end() && it->first <= addr ? it : regions.end();
    }

    /** Count an arm, or a disarm, of @p size bytes. */
    void
    countArm(std::size_t size)
    {
        ++armedCount_;
        armedBytes_ += size;
        stats_.add(Stat::RegionsWatched);
        stats_.maxOf(Stat::PeakWatchedBytes, armedBytes_);
    }
    void
    countDisarm(std::size_t size)
    {
        --armedCount_;
        armedBytes_ -= size;
    }

    std::size_t armedCount() const { return armedCount_; }
    std::uint64_t armedBytes() const { return armedBytes_; }

    /** Every region, armed or parked, keyed by base. */
    Map regions;

  private:
    const char *owner_;
    std::size_t granule_;
    StatSet &stats_;
    std::size_t armedCount_ = 0;
    std::uint64_t armedBytes_ = 0;
};

} // namespace safemem
