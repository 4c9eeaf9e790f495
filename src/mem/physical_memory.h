/**
 * @file
 * Simulated DRAM: data words plus their stored ECC check bytes.
 *
 * PhysicalMemory is deliberately dumb — it models the DIMMs, not the
 * controller. All ECC policy (encode on write, check on read, scrubbing,
 * fault raising) lives in MemoryController, including which codec fills
 * the check bits; the DIMM only knows how many check bits per group it
 * physically has. Raw accessors here neither charge cycles nor validate
 * codes; they are what the controller's datapath and the test
 * fault-injection hooks are built from.
 *
 * Every lane is an anonymous zero-fill host mapping (ZeroLane): booting
 * a DIMM costs O(1) host work whatever its capacity, and only the pages
 * a run writes become resident.
 *
 * One more lane holds a tag byte per line that the controller's fill
 * path reads: which encoder's encode of the stored words the stored
 * check bytes are, if any (see encodedBy()). It models no hardware; it
 * lets the simulator skip recomputing syndromes it knows are zero.
 */

#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.h"
#include "ecc/geometry.h"
#include "mem/line.h"

namespace safemem {

/**
 * A lane of @c T cells on an anonymous zero-fill host mapping: every
 * cell reads as zero until written, and construction and destruction
 * cost O(1) host work. A zero-length lane maps nothing and is empty().
 * Instantiated for the DIMM's 8-bit and 64-bit lanes only.
 */
template <typename T>
class ZeroLane
{
  public:
    /** Map @p count cells; fatal() if the host cannot map them. */
    explicit ZeroLane(std::size_t count);
    ~ZeroLane();
    ZeroLane(const ZeroLane &) = delete;
    ZeroLane &operator=(const ZeroLane &) = delete;

    bool empty() const { return cells_ == nullptr; }
    T &operator[](std::size_t i) { return cells_[i]; }
    T operator[](std::size_t i) const { return cells_[i]; }

  private:
    T *cells_ = nullptr;
    std::size_t count_;
};

class PhysicalMemory
{
  public:
    /**
     * @param bytes      capacity; must be a non-zero multiple of the
     *                   cache-line size.
     * @param check_bits stored check bits per 64-bit ECC group, in
     *                   [1, 8] — the width of the DIMM's check lane
     *                   (8 for the paper's x72 modules). Fault
     *                   injection validates bit indices against it.
     * @param geometry   protection geometry the DIMM is organised for.
     *                   A block geometry adds an EDC lane (one fold
     *                   word per cache line, riding with the data
     *                   burst); the word default adds nothing and is
     *                   bit-identical to the pre-geometry DIMM.
     */
    explicit PhysicalMemory(std::size_t bytes, int check_bits = 8,
                            ProtectionGeometry geometry = {});

    /** @return capacity in bytes. */
    std::size_t size() const { return bytes_; }

    /** @return stored check bits per ECC group. */
    int checkBits() const { return checkBits_; }

    /** @return the data word at 8-byte-aligned physical address @p addr. */
    std::uint64_t readWord(PhysAddr addr) const;

    /** Store @p value at 8-byte-aligned @p addr without touching ECC. */
    void writeWord(PhysAddr addr, std::uint64_t value);

    /** @return the stored check byte for the word at @p addr. */
    std::uint8_t readCheck(PhysAddr addr) const;

    /** Copy the data words and check bytes of the line at line-aligned
     *  @p line_addr into @p words and @p checks (a null @p checks skips
     *  the check bytes). */
    void readLine(PhysAddr line_addr, LineWords &words,
                  std::uint8_t *checks) const;

    /** Store @p words into the line at line-aligned @p line_addr,
     *  leaving the stored check bytes as they are. */
    void writeLine(PhysAddr line_addr, const LineWords &words);

    /** Store the line's words and the check bytes at @p checks, which
     *  must be encoder @p encoder's encode of them: the one store after
     *  which encodedBy(line_addr, encoder) holds. */
    void writeEncodedLine(PhysAddr line_addr, const LineWords &words,
                          const std::uint8_t *checks, std::uint8_t encoder);

    /** Overwrite the stored check byte for the word at @p addr. */
    void writeCheck(PhysAddr addr, std::uint8_t check);

    /** Flip one stored data bit — models a hardware memory error. */
    void flipDataBit(PhysAddr addr, int bit);

    /** Flip one stored check bit (< checkBits()) — models a hardware
     *  memory error. */
    void flipCheckBit(PhysAddr addr, int bit);

    /** @name Encoded-line tags
     *  A line's tag names the encoder whose encode of the stored words
     *  the stored check bytes are. writeEncodedLine() sets it; every
     *  other store of words or check bytes, and every injected bit
     *  flip, clears it. A zero-filled line counts as encoded by every
     *  encoder, because zero data has zero check bits under any linear
     *  code. */
    /// @{

    /** The tag of no encoder: encodedBy() holds for it only on
     *  zero-filled lines. */
    static constexpr std::uint8_t kNoEncoder = 0xff;

    /** @return a tag no other encoder of this DIMM holds, or kNoEncoder
     *  once all 254 are taken. Each controller takes one, so it trusts
     *  only the lines its own codec encoded. */
    std::uint8_t newEncoderTag();

    /** @return whether the stored check bytes of the line at
     *  line-aligned @p line_addr are encoder @p encoder's encode of its
     *  stored words, so every one of its syndromes is zero. */
    bool encodedBy(PhysAddr line_addr, std::uint8_t encoder) const;
    /// @}

    /** @name EDC lane (block geometries only)
     *  One fold word per cache line, stored with the data burst. The
     *  accessors panic on a word-geometry DIMM — the lane physically
     *  does not exist there. */
    /// @{

    /** @return whether this DIMM carries an EDC lane. */
    bool hasEdcLane() const { return !edc_.empty(); }

    /** @return the geometry this DIMM was organised for. */
    const ProtectionGeometry &geometry() const { return geometry_; }

    /** @return the stored EDC fold of the line at @p line_addr. */
    std::uint64_t readEdc(PhysAddr line_addr) const;

    /** Overwrite the stored EDC fold of the line at @p line_addr. */
    void writeEdc(PhysAddr line_addr, std::uint64_t fold);

    /** Flip one stored EDC bit (< the geometry's EDC width) — models a
     *  hardware memory error in the EDC lane. */
    void flipEdcBit(PhysAddr line_addr, int bit);
    /// @}

  private:
    /** Tag of a line never stored to since boot. */
    static constexpr std::uint8_t kZeroFilled = 0;

    /** Clear the encoded-line tag of the line holding @p addr. */
    void clearTag(PhysAddr addr) { tags_[addr / kCacheLineSize] = kNoEncoder; }

    std::size_t wordIndex(PhysAddr addr) const;
    /** @return the word index of the first word of the line at
     *  @p line_addr (which must be line aligned). */
    std::size_t firstWordIndex(PhysAddr line_addr) const;
    std::size_t lineIndex(PhysAddr addr) const;

    std::size_t bytes_;
    int checkBits_;
    ProtectionGeometry geometry_;
    ZeroLane<std::uint64_t> words_;
    /** Zero check bytes are exact for zero data under any linear code. */
    ZeroLane<std::uint8_t> checks_;
    /**
     * EDC lane: one fold word per line, empty for word geometry. Each
     * fold is stored XORed with edcZero_, the all-zero line's fold, so
     * zero-filled storage reads as consistent with zero data.
     */
    ZeroLane<std::uint64_t> edc_;
    std::uint64_t edcZero_;
    /** Encoded-line tags, one per line; zero-filled reads kZeroFilled. */
    ZeroLane<std::uint8_t> tags_;
    std::uint8_t nextEncoder_ = kZeroFilled + 1;
};

} // namespace safemem
