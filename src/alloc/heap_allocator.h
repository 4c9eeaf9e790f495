/**
 * @file
 * Segregated-free-list heap allocator over the simulated virtual memory.
 *
 * This is the substrate SafeMem, Purify and the page-protection monitor
 * interpose on, the way the paper preloads wrappers over glibc
 * malloc/free/calloc/realloc. Power-of-two size classes are carved from
 * page-backed slabs; larger requests map dedicated regions. Alignment is
 * a first-class parameter because SafeMem requires every monitored buffer
 * to be cache-line aligned (paper §4) and the page-protection baseline
 * requires page alignment.
 *
 * Block metadata is kept out-of-band (host-side), so an overflowing
 * application write lands in neighbouring *data*, never in allocator
 * metadata — which matches the paper's threat model: the tools, not the
 * allocator, are responsible for catching stray accesses.
 */

#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "os/machine.h"

namespace safemem {

/** Slot indices into the allocator StatSet; order matches kAllocStatNames. */
enum class AllocStat : std::size_t
{
    SlabsMapped,
    Allocs,
    LargeAllocs,
    Frees,
    Reallocs,
};

/** Report/snapshot names for AllocStat, in enumerator order. */
inline constexpr const char *kAllocStatNames[] = {
    "slabs_mapped",
    "allocs",
    "large_allocs",
    "frees",
    "reallocs",
};

class HeapAllocator
{
  public:
    /** Default alignment of returned blocks. */
    static constexpr std::size_t kDefaultAlignment = 16;

    explicit HeapAllocator(Machine &machine);

    /**
     * Allocate @p size bytes aligned to @p alignment (power of two,
     * >= 16). @return the block's base virtual address.
     */
    VirtAddr allocate(std::size_t size,
                      std::size_t alignment = kDefaultAlignment);

    /** Free a block previously returned by allocate()/reallocate(). */
    void deallocate(VirtAddr addr);

    /**
     * Grow/shrink @p addr to @p new_size, copying the overlapping bytes
     * through the machine (so the copy is charged and observable).
     * When the block must move, the fresh block honours @p alignment —
     * callers keeping granule-aligned (watchable) buffers must pass the
     * granule here, or a moved block silently loses its alignment.
     */
    VirtAddr reallocate(VirtAddr addr, std::size_t new_size,
                        std::size_t alignment = kDefaultAlignment);

    /** @return the requested size of live block @p addr. */
    std::size_t blockSize(VirtAddr addr) const;

    /** @return the rounded (size-class) capacity of live block @p addr. */
    std::size_t blockCapacity(VirtAddr addr) const;

    /** @return true when @p addr is the base of a live block. */
    bool isLive(VirtAddr addr) const;

    /**
     * @return true when block @p addr (live or freed) came from a slab;
     * false for direct-mapped large blocks, whose pages are returned to
     * the kernel on free.
     */
    bool isSlabBacked(VirtAddr addr) const;

    /** @return bytes currently live (sum of requested sizes). */
    std::uint64_t liveBytes() const { return liveBytes_; }

    /** @return allocator statistics. */
    const StatSet &stats() const { return stats_; }

    /**
     * SimCheck deep audit: free-list integrity, live-block overlap,
     * metadata canaries, byte accounting. No-op when auditing is disabled;
     * runs automatically every few hundred allocator mutations and
     * directly from tests.
     */
    void auditInvariants() const;

    /** @name SimCheck self-test backdoors
     * Deliberately corrupt allocator metadata so the self-test can prove
     * the auditor notices. Never call these outside tests. */
    /// @{

    /** Overwrite one free-list link with a bogus, misaligned address. */
    void testOnlyClobberFreeList();

    /** Stomp the metadata canary of block @p addr. */
    void testOnlyClobberCanary(VirtAddr addr);
    /// @}

  private:
    /** Guard value stamped into every Block (metadata canary). */
    static constexpr std::uint64_t kBlockCanary = 0x5afe'c0de'5afe'c0deULL;

    struct Block
    {
        std::size_t requested = 0; ///< size the caller asked for
        std::size_t capacity = 0;  ///< size-class capacity
        bool live = false;
        bool slabBacked = true;    ///< false for direct-mapped large blocks
        std::uint64_t canary = kBlockCanary; ///< metadata integrity guard
    };

    /** @return the size class (chunk size) covering @p size / @p align. */
    static std::size_t sizeClass(std::size_t size, std::size_t alignment);

    /** Carve a new slab for @p chunk_size and refill its free list. */
    void refill(std::size_t chunk_size);

    /** Rate-limit auditInvariants() to every few hundred mutations. */
    void noteMutation();

    Machine &machine_;
    /** Free chunks per size class (key = chunk size). */
    std::unordered_map<std::size_t, std::vector<VirtAddr>> freeLists_;
    /** All known blocks, live and freed, ordered by base address. */
    std::map<VirtAddr, Block> blocks_;

    std::uint64_t liveBytes_ = 0;
    std::uint32_t mutationsSinceAudit_ = 0;
    StatSet stats_{kAllocStatNames};
};

} // namespace safemem
