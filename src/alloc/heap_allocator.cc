#include "alloc/heap_allocator.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <unordered_set>

#include "check/simcheck.h"
#include "common/logging.h"

namespace safemem {

namespace {

/** Slab size for small size classes. */
constexpr std::size_t kSlabBytes = 64 * 1024;

/** Largest request served from slabs; above this we map directly. */
constexpr std::size_t kMaxSlabClass = 16 * 1024;

/** Allocator mutations between automatic SimCheck audits. */
constexpr std::uint32_t kAuditEveryMutations = 256;

} // namespace

HeapAllocator::HeapAllocator(Machine &machine)
    : machine_(machine)
{
}

std::size_t
HeapAllocator::sizeClass(std::size_t size, std::size_t alignment)
{
    // Classes are multiples of the requested alignment (at least the
    // default), so chunks carved at class-size strides inside an aligned
    // slab stay aligned, and class rounding wastes at most one stride.
    std::size_t stride = std::max(alignment, kDefaultAlignment);
    return alignUp(std::max(size, kDefaultAlignment), stride);
}

void
HeapAllocator::refill(std::size_t chunk_size)
{
    VirtAddr slab = machine_.kernel().mapRegion(kSlabBytes);
    std::vector<VirtAddr> &list = freeLists_[chunk_size];
    // Carve back-to-front so allocation order is front-to-back.
    for (std::size_t off = kSlabBytes; off >= chunk_size; off -= chunk_size)
        list.push_back(slab + off - chunk_size);
    stats_.add(AllocStat::SlabsMapped);
}

VirtAddr
HeapAllocator::allocate(std::size_t size, std::size_t alignment)
{
    if (size == 0)
        size = 1;
    if (!std::has_single_bit(alignment))
        panic("HeapAllocator: alignment ", alignment, " not a power of two");

    stats_.add(AllocStat::Allocs);

    VirtAddr addr;
    std::size_t capacity;
    bool slab_backed;

    std::size_t cls = sizeClass(size, alignment);
    if (cls <= kMaxSlabClass) {
        std::vector<VirtAddr> &list = freeLists_[cls];
        if (list.empty())
            refill(cls);
        addr = list.back();
        list.pop_back();
        capacity = cls;
        slab_backed = true;
    } else {
        // Large allocation: dedicated page-backed region.
        addr = machine_.kernel().mapRegion(alignUp(size, kPageSize));
        capacity = alignUp(size, kPageSize);
        slab_backed = false;
        stats_.add(AllocStat::LargeAllocs);
    }

    Block &block = blocks_[addr];
    block.requested = size;
    block.capacity = capacity;
    block.live = true;
    block.slabBacked = slab_backed;

    liveBytes_ += size;
    noteMutation();
    return addr;
}

void
HeapAllocator::deallocate(VirtAddr addr)
{
    auto it = blocks_.find(addr);
    if (it == blocks_.end() || !it->second.live)
        panic("HeapAllocator: free of non-live address ", addr);

    Block &block = it->second;
    block.live = false;
    liveBytes_ -= block.requested;
    stats_.add(AllocStat::Frees);

    if (block.slabBacked) {
        freeLists_[block.capacity].push_back(addr);
    } else {
        machine_.kernel().unmapRegion(addr, block.capacity);
        blocks_.erase(it);
    }
    noteMutation();
}

VirtAddr
HeapAllocator::reallocate(VirtAddr addr, std::size_t new_size,
                          std::size_t alignment)
{
    if (addr == 0)
        return allocate(new_size, alignment);
    auto it = blocks_.find(addr);
    if (it == blocks_.end() || !it->second.live)
        panic("HeapAllocator: realloc of non-live address ", addr);

    stats_.add(AllocStat::Reallocs);
    std::size_t old_size = it->second.requested;
    if (new_size <= it->second.capacity && addr % alignment == 0) {
        // Fits in place; adjust the accounted size.
        liveBytes_ += new_size;
        liveBytes_ -= old_size;
        it->second.requested = new_size;
        noteMutation();
        return addr;
    }

    VirtAddr fresh = allocate(new_size, alignment);
    std::vector<std::uint8_t> buffer(std::min(old_size, new_size));
    machine_.read(addr, buffer.data(), buffer.size());
    machine_.write(fresh, buffer.data(), buffer.size());
    deallocate(addr);
    return fresh;
}

std::size_t
HeapAllocator::blockSize(VirtAddr addr) const
{
    auto it = blocks_.find(addr);
    if (it == blocks_.end() || !it->second.live)
        panic("HeapAllocator: blockSize of non-live address ", addr);
    return it->second.requested;
}

std::size_t
HeapAllocator::blockCapacity(VirtAddr addr) const
{
    auto it = blocks_.find(addr);
    if (it == blocks_.end() || !it->second.live)
        panic("HeapAllocator: blockCapacity of non-live address ", addr);
    return it->second.capacity;
}

bool
HeapAllocator::isLive(VirtAddr addr) const
{
    auto it = blocks_.find(addr);
    return it != blocks_.end() && it->second.live;
}

bool
HeapAllocator::isSlabBacked(VirtAddr addr) const
{
    auto it = blocks_.find(addr);
    if (it == blocks_.end())
        panic("HeapAllocator: isSlabBacked of unknown address ", addr);
    return it->second.slabBacked;
}

void
HeapAllocator::noteMutation()
{
    if (!simCheckActive())
        return;
    if (++mutationsSinceAudit_ >= kAuditEveryMutations) {
        mutationsSinceAudit_ = 0;
        auditInvariants();
    }
}

void
HeapAllocator::auditInvariants() const
{
    if (!simCheckActive())
        return;

    // Block map: canaries intact, sane sizes, no overlap between
    // consecutive blocks (chunks tile slabs at class strides, large blocks
    // own whole page ranges), and byte accounting that reconciles.
    std::uint64_t live_bytes = 0;
    VirtAddr prev_end = 0;
    VirtAddr prev_addr = 0;
    for (const auto &[addr, block] : blocks_) {
        SIMCHECK_AUDIT(AuditDomain::Allocator, "metadata_canary",
                       block.canary == kBlockCanary,
                       "metadata canary of block ", addr, " clobbered");
        SIMCHECK_AUDIT(AuditDomain::Allocator, "block_capacity_sane",
                       block.capacity > 0 &&
                           (!block.live || block.requested <= block.capacity),
                       "block ", addr, " requested ", block.requested,
                       " exceeds capacity ", block.capacity);
        SIMCHECK_AUDIT(AuditDomain::Allocator, "blocks_disjoint",
                       addr >= prev_end, "block ", addr,
                       " overlaps block ", prev_addr);
        prev_end = addr + block.capacity;
        prev_addr = addr;
        if (block.live)
            live_bytes += block.requested;
    }
    SIMCHECK_AUDIT(AuditDomain::Allocator, "live_bytes_reconcile",
                   live_bytes == liveBytes_, "live blocks sum to ",
                   live_bytes, " bytes but the gauge reads ", liveBytes_);

    // Free lists: every chunk aligned, not live, of the class it is filed
    // under, and present at most once across all lists.
    std::unordered_set<VirtAddr> seen;
    for (const auto &[cls, list] : freeLists_) {
        for (VirtAddr addr : list) {
            SIMCHECK_AUDIT(AuditDomain::Allocator, "free_chunk_aligned",
                           isAligned(addr, kDefaultAlignment),
                           "free chunk ", addr, " of class ", cls,
                           " is misaligned");
            SIMCHECK_AUDIT(AuditDomain::Allocator, "free_chunk_unique",
                           seen.insert(addr).second, "chunk ", addr,
                           " appears on a free list twice");
            auto it = blocks_.find(addr);
            if (it == blocks_.end())
                continue; // carved but never handed out: no metadata yet
            SIMCHECK_AUDIT(AuditDomain::Allocator, "free_chunk_not_live",
                           !it->second.live, "live block ", addr,
                           " sits on the class-", cls, " free list");
            SIMCHECK_AUDIT(AuditDomain::Allocator, "free_chunk_class_match",
                           it->second.capacity == cls, "chunk ", addr,
                           " of capacity ", it->second.capacity,
                           " filed under class ", cls);
        }
    }
}

void
HeapAllocator::testOnlyClobberFreeList()
{
    for (auto &[cls, list] : freeLists_) {
        if (!list.empty()) {
            // Mimic a stray metadata write: the link now points one byte
            // into the chunk, which is both misaligned and off-class.
            list.back() += 1;
            return;
        }
    }
    panic("HeapAllocator::testOnlyClobberFreeList: no free chunk to "
          "clobber; free a block first");
}

void
HeapAllocator::testOnlyClobberCanary(VirtAddr addr)
{
    auto it = blocks_.find(addr);
    if (it == blocks_.end())
        panic("HeapAllocator::testOnlyClobberCanary: unknown block ", addr);
    it->second.canary ^= 0xdeadULL;
}

} // namespace safemem
