#include "purify/shadow_memory.h"

#include <algorithm>
#include <bit>

namespace safemem {

namespace {

/** Visit [addr, addr + len) one page at a time: fn(vpage, first, end)
 *  gets the page and the byte offsets [first, end) inside it. */
template <typename Fn>
void
forEachPageRun(VirtAddr addr, std::size_t len, Fn &&fn)
{
    while (len > 0) {
        VirtAddr vpage = alignDown(addr, kPageSize);
        std::size_t first = addr - vpage;
        std::size_t run = std::min<std::size_t>(len, kPageSize - first);
        fn(vpage, first, first + run);
        addr += run;
        len -= run;
    }
}

/** @return the state of byte @p offset of a shadow page. */
template <typename Page>
ByteState
stateAt(const Page &page, std::size_t offset)
{
    unsigned shift = static_cast<unsigned>((offset % 4) * 2);
    return static_cast<ByteState>((page[offset / 4] >> shift) & 0x3u);
}

/** The low bit of every 2-bit field of a shadow byte. */
constexpr unsigned kLowBits = 0x55;

/** @return the bits of a shadow byte that hold its app bytes
 *  [from, to), 0 <= from < to <= 4. */
constexpr unsigned
fieldMask(std::size_t from, std::size_t to)
{
    return ((1u << (2 * (to - from))) - 1) << (2 * from);
}

/**
 * Visit the shadow bytes behind page offsets [first, end), first < end:
 * fn(slot, mask) for each, where mask selects the fields inside the
 * run. Every byte but the first and the last gets the full mask 0xff.
 */
template <typename Fn>
void
forEachShadowByte(std::size_t first, std::size_t end, Fn &&fn)
{
    const std::size_t head = first / 4;
    const std::size_t tail = (end - 1) / 4;
    if (head == tail) {
        fn(head, fieldMask(first % 4, (end - 1) % 4 + 1));
        return;
    }
    fn(head, fieldMask(first % 4, 4));
    for (std::size_t slot = head + 1; slot < tail; ++slot)
        fn(slot, 0xffu);
    fn(tail, fieldMask(0, (end - 1) % 4 + 1));
}

/** @return the low bits of the fields of @p x that hold 01 (AllocUninit). */
constexpr unsigned
uninitFields(unsigned x)
{
    return x & kLowBits & ~(x >> 1);
}

} // namespace

void
ShadowMemory::setRange(VirtAddr addr, std::size_t len, ByteState state)
{
    // A shadow byte holding four bytes of one state is that state's
    // 2-bit code repeated: 0x00, 0x55, 0xaa or 0xff.
    const unsigned fill = static_cast<unsigned>(state) * kLowBits;
    forEachPageRun(addr, len,
                   [&](VirtAddr vpage, std::size_t first, std::size_t end) {
        ShadowPage &page = pages_[vpage]; // zero-filled on first touch
        forEachShadowByte(first, end, [&](std::size_t slot, unsigned mask) {
            page[slot] = static_cast<std::uint8_t>((page[slot] & ~mask) |
                                                   (fill & mask));
        });
    });
}

SpanStates
ShadowMemory::classify(VirtAddr addr, std::size_t len) const
{
    SpanStates states;
    // fields: low bits of the matching fields of shadow byte @p slot.
    auto note = [](bool &any, VirtAddr &first, VirtAddr vpage,
                   std::size_t slot, unsigned fields) {
        if (fields == 0 || any)
            return;
        any = true;
        first = vpage + slot * 4 +
                static_cast<unsigned>(std::countr_zero(fields)) / 2;
    };
    forEachPageRun(addr, len,
                   [&](VirtAddr vpage, std::size_t first, std::size_t end) {
        auto it = pages_.find(vpage);
        if (it == pages_.end()) {
            if (!states.anyUnallocated) {
                states.anyUnallocated = true;
                states.firstUnallocated = vpage + first;
            }
            return;
        }
        const ShadowPage &page = it->second;
        forEachShadowByte(first, end, [&](std::size_t slot, unsigned mask) {
            const unsigned x = page[slot];
            if ((x & mask) == (0xaau & mask))
                return; // all AllocInit
            const unsigned lows = mask & kLowBits;
            note(states.anyUnallocated, states.firstUnallocated, vpage,
                 slot, ~x & ~(x >> 1) & lows);
            note(states.anyFreed, states.firstFreed, vpage, slot,
                 x & (x >> 1) & lows);
            if (uninitFields(x) & lows)
                states.anyUninit = true;
        });
    });
    return states;
}

void
ShadowMemory::markWritten(VirtAddr addr, std::size_t len)
{
    forEachPageRun(addr, len,
                   [&](VirtAddr vpage, std::size_t first, std::size_t end) {
        auto it = pages_.find(vpage);
        if (it == pages_.end())
            return; // unallocated bytes stay unallocated
        ShadowPage &page = it->second;
        forEachShadowByte(first, end, [&](std::size_t slot, unsigned mask) {
            // XOR with 11 turns each 01 field into 10 and leaves the
            // others as they are.
            const unsigned x = page[slot];
            page[slot] = static_cast<std::uint8_t>(
                x ^ (3 * uninitFields(x) & mask));
        });
    });
}

ByteState
ShadowMemory::get(VirtAddr addr) const
{
    VirtAddr vpage = alignDown(addr, kPageSize);
    auto it = pages_.find(vpage);
    if (it == pages_.end())
        return ByteState::Unallocated;
    return stateAt(it->second, addr - vpage);
}

bool
ShadowMemory::covered(VirtAddr addr) const
{
    return pages_.count(alignDown(addr, kPageSize)) != 0;
}

} // namespace safemem
