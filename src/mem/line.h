/**
 * @file
 * Cache-line data buffers: bytes with word-granularity accessors, and
 * the line as its ECC-group words.
 */

#pragma once

#include <array>
#include <cstdint>
#include <cstring>

#include "common/types.h"

namespace safemem {

/** One cache line worth of bytes. */
using LineData = std::array<std::uint8_t, kCacheLineSize>;

/** One cache line as its kEccGroupsPerLine 64-bit ECC-group words. */
using LineWords = std::array<std::uint64_t, kEccGroupsPerLine>;

/** @return 64-bit word @p index (0-7) of @p line. */
inline std::uint64_t
lineWord(const LineData &line, std::size_t index)
{
    std::uint64_t value;
    std::memcpy(&value, line.data() + index * kEccGroupSize, sizeof(value));
    return value;
}

/** Store @p value as 64-bit word @p index (0-7) of @p line. */
inline void
setLineWord(LineData &line, std::size_t index, std::uint64_t value)
{
    std::memcpy(line.data() + index * kEccGroupSize, &value, sizeof(value));
}

} // namespace safemem
