/**
 * @file
 * Protection geometry: how the memory system arranges its redundancy.
 *
 * The paper's chipset hard-wires one shape — a (72,64) per-word SEC-DED
 * code, one check byte fetched and verified with every 64-bit group.
 * Ramulator2_ECC-style controllers instead protect a *large codeword*
 * (512 B / 1 KB / 4 KB): a cheap error-DETECTION code (EDC) rides with
 * every read granule and is verified on every fill, while the heavier
 * error-CORRECTION code covers the whole codeword and is only fetched
 * and decoded when the EDC check fails. The win is redundancy bandwidth
 * and storage (ECC check bits grow logarithmically with codeword size);
 * the cost is decode latency on EDC misses and a read-modify-write on
 * every sub-codeword partial write.
 *
 * ProtectionGeometry is a value type carried on MachineConfig and
 * RunParams, part of the run identity exactly like the codec spec: same
 * spec, same RunResult. The default ("word") names the per-word SEC-DED
 * datapath and constructs nothing new — word-geometry runs are
 * bit-identical to the pre-geometry machine.
 *
 * All codeword-size arithmetic is confined to src/mem/ and src/ecc/
 * (lint rule `codeword-arithmetic`); other layers treat the geometry as
 * an opaque value and use the helpers below.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/types.h"

namespace safemem {

/** Which error-detection code rides with each read granule. */
enum class EdcKind : std::uint8_t
{
    Parity, ///< interleaved parity fold, 8 EDC bits per line
    Crc32,  ///< CRC-32 fold, 32 EDC bits per line
};

/**
 * The protection shape of the memory system.
 *
 * codewordBytes == 0 is the per-word SEC-DED geometry ("word"): every
 * 64-bit group carries its own check byte, verified on every fill —
 * exactly the paper's chipset. A non-zero codewordBytes selects the
 * large-codeword EDC+ECC split with that codeword size (a power of two
 * in [512, kPageSize], so a codeword never crosses a page and therefore
 * never crosses a process boundary).
 */
struct ProtectionGeometry
{
    /** Codeword size in bytes; 0 = per-word SEC-DED (the default). */
    std::uint32_t codewordBytes = 0;
    /** EDC flavour for block geometries; ignored for "word". */
    EdcKind edc = EdcKind::Parity;

    bool operator==(const ProtectionGeometry &) const = default;

    /** @return true for the per-word SEC-DED default. */
    bool isWord() const { return codewordBytes == 0; }
};

/**
 * Parse a geometry spec: "word", or "block:<512|1024|4096>" with an
 * optional "/parity" or "/crc32" EDC suffix (parity is the default).
 * @return std::nullopt on a malformed or unsupported spec.
 */
std::optional<ProtectionGeometry> parseGeometry(const std::string &text);

/** @return the canonical spec string of @p geometry (parse round-trips). */
std::string geometryName(const ProtectionGeometry &geometry);

/** @return a short label suffix for @p geometry ("" for word,
 *  "block512" / "block1024crc32" ... otherwise) — trace-section labels. */
std::string geometryLabel(const ProtectionGeometry &geometry);

/**
 * @return ECC check bytes protecting one codeword of @p codeword_bytes
 * under the block geometry's long SEC-DED code: r parity bits with
 * 2^r >= k + r + 1 over k data bits, plus one DED bit, rounded up to
 * whole bytes. Grows logarithmically — the redundancy-storage win large
 * codewords exist for (2 bytes at 512 B and 1 KB, 3 bytes at 4 KB,
 * against 64/128/512 bytes of per-word check storage).
 */
std::uint32_t blockEccCheckBytes(std::uint32_t codeword_bytes);

/** @return true when @p codeword_bytes is a supported block codeword
 *  size: a power of two, >= 8 cache lines, <= kPageSize. */
bool validCodewordBytes(std::uint32_t codeword_bytes);

} // namespace safemem
