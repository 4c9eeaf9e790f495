/**
 * @file
 * Purify-style shadow memory: two state bits per byte of application
 * memory (paper §5: "Purify maintains two bits for each byte of memory
 * to track its status: allocated or freed, and initialized or
 * uninitialized").
 */

#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>

#include "common/types.h"

namespace safemem {

/** Per-byte state, two bits. */
enum class ByteState : std::uint8_t
{
    Unallocated = 0, ///< not part of any live block (incl. red zones)
    AllocUninit = 1, ///< allocated, never written
    AllocInit = 2,   ///< allocated and written
    Freed = 3        ///< was allocated, has been freed
};

/** What a span of bytes holds, as the per-access check asks it. */
struct SpanStates
{
    bool anyUnallocated = false;
    VirtAddr firstUnallocated = 0; ///< valid when anyUnallocated
    bool anyFreed = false;
    VirtAddr firstFreed = 0;       ///< valid when anyFreed
    bool anyUninit = false;        ///< some byte is AllocUninit
};

/**
 * Shadow pages are created on first write and looked up once per page
 * a range touches, never once per byte.
 */
class ShadowMemory
{
  public:
    /** Set @p len bytes starting at @p addr to @p state. */
    void setRange(VirtAddr addr, std::size_t len, ByteState state);

    /** @return the states found in the @p len bytes at @p addr. */
    SpanStates classify(VirtAddr addr, std::size_t len) const;

    /** A store to @p len bytes at @p addr: every AllocUninit byte
     *  becomes AllocInit; other states are left alone. */
    void markWritten(VirtAddr addr, std::size_t len);

    /** @return the state of the byte at @p addr. */
    ByteState get(VirtAddr addr) const;

    /** @return true when any shadow page covers @p addr. */
    bool covered(VirtAddr addr) const;

    /** @return bytes of shadow storage in use (2 bits per app byte). */
    std::uint64_t shadowBytes() const
    {
        return pages_.size() * (kPageSize / 4);
    }

  private:
    /** Two bits per byte, packed four states per shadow byte. */
    using ShadowPage = std::array<std::uint8_t, kPageSize / 4>;

    std::unordered_map<VirtAddr, ShadowPage> pages_;
};

} // namespace safemem
