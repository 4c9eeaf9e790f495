/**
 * @file
 * Per-process page table for the simulated kernel.
 *
 * Maps 4 KiB virtual pages onto physical frames and carries the state the
 * rest of the OS layer needs: an accessibility bit (mprotect/PROT_NONE —
 * the page-protection monitoring baseline), a pin count (ECC watchpoints
 * pin their pages, paper §2.2.2 "Dealing with Page Swapping"),
 * swap-residency, and which of the page's lines WatchMemory scrambled.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "common/types.h"

namespace safemem {

/** Cache lines per page: one bit each in PageTableEntry::watchedLines. */
inline constexpr std::size_t kLinesPerPage = kPageSize / kCacheLineSize;
static_assert(kLinesPerPage == 64, "watchedLines holds one bit per line");

/** @return the PageTableEntry::watchedLines bit of the line holding
 *  @p addr, a virtual or physical address (their page offsets agree). */
inline std::uint64_t
watchBit(std::uint64_t addr)
{
    return std::uint64_t{1} << (addr % kPageSize / kCacheLineSize);
}

/** State of one mapped virtual page. */
struct PageTableEntry
{
    PhysAddr frame = 0;      ///< base physical address of the frame
    bool present = true;     ///< false while swapped out
    bool accessible = true;  ///< false under PROT_NONE
    std::uint32_t pinCount = 0; ///< >0 blocks swapping
    /** Bit i set: line i of the frame is scrambled by WatchMemory.
     *  While non-zero, swap-out must lift the watches first and unmap
     *  panics. */
    std::uint64_t watchedLines = 0;
};

class PageTable
{
  public:
    /** Install a mapping for the page containing @p vaddr. */
    void map(VirtAddr vpage, PhysAddr frame);

    /** Remove the mapping for @p vpage (must exist). */
    void unmap(VirtAddr vpage);

    /** @return the entry for @p vpage, or nullptr when unmapped. */
    PageTableEntry *find(VirtAddr vpage);
    const PageTableEntry *find(VirtAddr vpage) const;

    /** @return the virtual page owning physical @p frame, if any. */
    std::optional<VirtAddr> reverse(PhysAddr frame) const;

    /** Mark @p vpage swapped out, releasing its frame from the map. */
    void markSwappedOut(VirtAddr vpage);

    /** Re-attach @p vpage to @p frame after a swap-in. */
    void markSwappedIn(VirtAddr vpage, PhysAddr frame);

    /** @return number of mapped pages. */
    std::size_t size() const { return entries_.size(); }

    /** Visit every (vpage, entry) pair. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &[vpage, entry] : entries_)
            fn(vpage, entry);
    }

  private:
    std::unordered_map<VirtAddr, PageTableEntry> entries_;
    std::unordered_map<PhysAddr, VirtAddr> reverse_;
};

} // namespace safemem
