/**
 * @file
 * A small fully-associative TLB with LRU replacement.
 *
 * Translation hits are free (folded into the cache-access latency);
 * misses charge a page-walk. Permission changes (mprotect), unmapping
 * and swap transitions shoot the TLB down — which is precisely why
 * mprotect-based monitoring (the page-protection baseline) perturbs the
 * surrounding code more than its syscall price alone suggests.
 *
 * Each slot also caches the page-table entry its walk found, so the
 * kernel answers a hit on a resident, accessible page from the slot
 * alone. That is host speed only: the LRU order, the victim choice and
 * the hit/miss counts are those of the slot-less model.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/stats.h"
#include "common/types.h"

namespace safemem {

struct PageTableEntry;

/** Slot indices into the TLB StatSet; order matches kTlbStatNames. */
enum class TlbStat : std::size_t
{
    Hits,
    Misses,
    Invalidations,
    Flushes,
};

/** Report/snapshot names for TlbStat, in enumerator order. */
inline constexpr const char *kTlbStatNames[] = {
    "hits", "misses", "invalidations", "flushes",
};

class Tlb
{
  public:
    /** @param entries capacity (non-zero); 64 models a small
     *  first-level TLB. */
    explicit Tlb(std::size_t entries = 64) : capacity_(entries)
    {
        if (entries == 0)
            fatal("Tlb: capacity must be non-zero");
        slots_.reserve(entries);
    }

    /**
     * Look up @p vpage, inserting it on a miss, and set @p hit.
     * @return the slot's cached page-table entry: the one stored after
     *         an earlier walk on a hit, null on a miss. The caller
     *         stores its walk's entry through the reference, which is
     *         valid until the next lookup, invalidate() or flush().
     */
    PageTableEntry *&
    lookup(VirtAddr vpage, bool &hit)
    {
        ++stamp_;
        hit = true;
        if (mru_ < slots_.size() && slots_[mru_].vpage == vpage)
            return touch(slots_[mru_]);
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            if (slots_[i].vpage == vpage) {
                mru_ = i;
                return touch(slots_[i]);
            }
        }
        hit = false;
        stats_.add(TlbStat::Misses);
        if (slots_.size() < capacity_) {
            mru_ = slots_.size();
            slots_.push_back(Slot{vpage, stamp_});
        } else {
            mru_ = 0;
            for (std::size_t i = 1; i < slots_.size(); ++i) {
                if (slots_[i].lastUse < slots_[mru_].lastUse)
                    mru_ = i;
            }
            slots_[mru_] = Slot{vpage, stamp_};
        }
        return slots_[mru_].entry;
    }

    /**
     * Look up @p vpage, inserting it on a miss.
     * @return true on a hit.
     */
    bool
    access(VirtAddr vpage)
    {
        bool hit = false;
        lookup(vpage, hit);
        return hit;
    }

    /**
     * @return the cached entry of the slot last hit or filled when that
     *         slot holds @p vpage, else null. Counts nothing: hitMru()
     *         charges the lookups this answers.
     */
    PageTableEntry *
    mruEntry(VirtAddr vpage) const
    {
        return mru_ < slots_.size() && slots_[mru_].vpage == vpage
            ? slots_[mru_].entry
            : nullptr;
    }

    /** Record @p count hits on the slot mruEntry() found, exactly as
     *  @p count lookup()s of its vpage would. */
    void
    hitMru(std::uint64_t count)
    {
        stamp_ += count;
        slots_[mru_].lastUse = stamp_;
        stats_.add(TlbStat::Hits, count);
    }

    /** Remove any entry for @p vpage (single-page invalidation). */
    void
    invalidate(VirtAddr vpage)
    {
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            if (slots_[i].vpage == vpage) {
                slots_[i] = slots_.back();
                slots_.pop_back();
                stats_.add(TlbStat::Invalidations);
                return;
            }
        }
    }

    /** Full shootdown. */
    void
    flush()
    {
        slots_.clear();
        stats_.add(TlbStat::Flushes);
    }

    /** @return TLB statistics. */
    const StatSet &stats() const { return stats_; }

    /** Visit the vpage and cached page-table entry of every cached
     *  translation (SimCheck audits). */
    template <typename Fn>
    void
    forEachEntry(Fn &&fn) const
    {
        for (const Slot &slot : slots_)
            fn(slot.vpage, slot.entry);
    }

  private:
    struct Slot
    {
        VirtAddr vpage = 0;
        std::uint64_t lastUse = 0;
        /** The entry the kernel's walk found; null until it stores it. */
        PageTableEntry *entry = nullptr;
    };

    /** Record a hit on @p slot. @return its cached entry. */
    PageTableEntry *&
    touch(Slot &slot)
    {
        slot.lastUse = stamp_;
        stats_.add(TlbStat::Hits);
        return slot.entry;
    }

    std::size_t capacity_;
    std::uint64_t stamp_ = 0;
    /** Index of the slot last hit or filled; a stale index only costs
     *  the full scan, since slots are matched on their vpage. */
    std::size_t mru_ = 0;
    std::vector<Slot> slots_;
    StatSet stats_{kTlbStatNames};
};

} // namespace safemem
