#include "purify/shadow_memory.h"

#include <algorithm>

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

/** Set byte @p offset of a shadow page to @p state. */
template <typename Page>
void
setStateAt(Page &page, std::size_t offset, ByteState state)
{
    std::size_t slot = offset / 4;
    unsigned shift = static_cast<unsigned>((offset % 4) * 2);
    page[slot] = static_cast<std::uint8_t>(
        (page[slot] & ~(0x3u << shift)) |
        (static_cast<unsigned>(state) << shift));
}

} // namespace

void
ShadowMemory::setRange(VirtAddr addr, std::size_t len, ByteState state)
{
    forEachPageRun(addr, len,
                   [&](VirtAddr vpage, std::size_t first, std::size_t end) {
        ShadowPage &page = pages_[vpage]; // zero-filled on first touch
        for (std::size_t offset = first; offset < end; ++offset)
            setStateAt(page, offset, state);
    });
}

SpanStates
ShadowMemory::classify(VirtAddr addr, std::size_t len) const
{
    SpanStates states;
    auto note = [](bool &any, VirtAddr &first, VirtAddr byte) {
        if (!any)
            first = byte;
        any = true;
    };
    forEachPageRun(addr, len,
                   [&](VirtAddr vpage, std::size_t first, std::size_t end) {
        auto it = pages_.find(vpage);
        if (it == pages_.end()) {
            note(states.anyUnallocated, states.firstUnallocated,
                 vpage + first);
            return;
        }
        for (std::size_t offset = first; offset < end; ++offset) {
            switch (stateAt(it->second, offset)) {
              case ByteState::Unallocated:
                note(states.anyUnallocated, states.firstUnallocated,
                     vpage + offset);
                break;
              case ByteState::Freed:
                note(states.anyFreed, states.firstFreed, vpage + offset);
                break;
              case ByteState::AllocUninit:
                states.anyUninit = true;
                break;
              case ByteState::AllocInit:
                break;
            }
        }
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
        for (std::size_t offset = first; offset < end; ++offset) {
            if (stateAt(it->second, offset) == ByteState::AllocUninit)
                setStateAt(it->second, offset, ByteState::AllocInit);
        }
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
