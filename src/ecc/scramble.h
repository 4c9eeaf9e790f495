/**
 * @file
 * The SafeMem data-scrambling signature (paper §2.2.2, Figure 2).
 *
 * WatchMemory cannot modify ECC check bits directly, so it disables ECC,
 * flips 3 *fixed* data bits in every ECC group of the watched line, and
 * re-enables ECC. The three positions must satisfy two properties:
 *
 *  1. the stale check bits must decode as an *uncorrectable* (multi-bit)
 *     fault — never as a silently "corrected" single-bit error, and never
 *     as a miscorrection to some other bit; and
 *  2. the flipped pattern is a recognisable signature, letting the fault
 *     handler distinguish an access fault from a genuine hardware error.
 *
 * Whether such a triple exists at all depends on the codec. For linear
 * codes property 1 holds exactly when the XOR of the three H-matrix
 * columns is a syndrome the decoder refuses to correct; a pure-SEC code
 * (EccCodecKind::Hamming64_8) corrects *every* syndrome, so no triple
 * works and findScramblePositions() reports failure instead of a
 * pattern. Unit tests re-verify the guarantee against the real
 * decoders.
 */

#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "ecc/codec.h"

namespace safemem {

/** Three fixed data-bit positions flipped by WatchMemory. */
struct ScramblePattern
{
    std::array<int, 3> bits{};

    /** @return @p data with the three signature bits flipped. */
    std::uint64_t
    apply(std::uint64_t data) const
    {
        return data ^ mask();
    }

    /** @return the XOR mask corresponding to the three positions. */
    std::uint64_t
    mask() const
    {
        return (1ULL << bits[0]) | (1ULL << bits[1]) | (1ULL << bits[2]);
    }
};

/**
 * Search @p code for the lowest-indexed bit triple whose combined
 * syndrome is guaranteed uncorrectable, probing each candidate through
 * the codec's own decode() so search and decoder can never drift.
 *
 * @return the triple, or nullopt when @p code cannot host a scramble
 *         signature (e.g. a correction-only code with no Uncorrectable
 *         outcome). Callers that *require* a signature — the kernel at
 *         machine boot — turn nullopt into a panic; the campaign engine
 *         reports it as the codec's scramble-viability verdict instead.
 */
std::optional<ScramblePattern> findScramblePositions(const EccCodec &code);

} // namespace safemem
