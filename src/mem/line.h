/**
 * @file
 * The cache line as its ECC-group words: the one line buffer of the
 * memory path (cache ways, fills, writebacks, device writes, the swap
 * store).
 */

#pragma once

#include <array>
#include <cstdint>

#include "common/types.h"

namespace safemem {

/** One cache line as its kEccGroupsPerLine 64-bit ECC-group words. */
using LineWords = std::array<std::uint64_t, kEccGroupsPerLine>;

} // namespace safemem
