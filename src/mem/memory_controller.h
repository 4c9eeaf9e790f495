/**
 * @file
 * The ECC memory controller (paper §2.1, Figure 1).
 *
 * Sits between the cache and PhysicalMemory. On a line writeback it encodes
 * a check byte per 64-bit ECC group (unless ECC is Disabled, in which case
 * stored check bytes go stale — the hook SafeMem's scramble trick relies
 * on). On a line fill it decodes every group: single-bit errors are
 * corrected in CorrectError modes, and uncorrectable mismatches raise an
 * interrupt on the wire registered with setInterruptHandler().
 *
 * One memory bus serves all of DRAM. The kernel locks it around each
 * scramble (paper §2.2.2, Figure 2); while it is held, every fill,
 * writeback and scrub panics.
 *
 * Device-initiated accesses used by the kernel (whole-line writes during
 * a scramble, raw line peeks) charge no cycles; the kernel bills
 * calibrated syscall totals instead. Cache-initiated fills/evictions charge
 * kDramLineCycles.
 */

#pragma once

#include <cstddef>
#include <cstdint>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/stats.h"
#include "common/types.h"
#include "ecc/codec.h"
#include "ecc/geometry.h"
#include "mem/fault.h"
#include "mem/line.h"
#include "mem/physical_memory.h"

namespace safemem {

class Trace;

/** Slot indices into the controller StatSet; order matches the names. */
enum class ControllerStat : std::size_t
{
    BusLocks,
    InterruptsRaised,
    SingleBitReported,
    SingleBitCorrected,
    MultiBitDetected,
    LineFills,
    LineEvictions,
    ScrubPasses,
};

/** Report/snapshot names for ControllerStat, in enumerator order. */
inline constexpr const char *kControllerStatNames[] = {
    "bus_locks",          "interrupts_raised", "single_bit_reported",
    "single_bit_corrected", "multi_bit_detected", "line_fills",
    "line_evictions",     "scrub_passes",
};

/**
 * Slot indices into the block-geometry StatSet; order matches
 * kGeometryStatNames. These slots only move on block-geometry machines:
 * the per-word SEC-DED default never touches them, and the driver only
 * merges them into run results under a block geometry, keeping
 * word-geometry stat maps byte-identical to the pre-geometry machine.
 */
enum class GeometryStat : std::size_t
{
    EdcChecksPassed,  ///< fills declared clean by the EDC fast path
    EdcChecksFailed,  ///< fills that missed EDC and took the full decode
    BlockDecodes,     ///< whole-codeword ECC decodes (one per EDC miss)
    BlockDecodeWords, ///< words decoded across all block decodes
    PartialWriteRmws, ///< writebacks that opened a new codeword (full RMW)
    OpenCodewordHits, ///< writebacks folded into the open codeword
    LatentFaultWords, ///< uncorrectable words outside the requested line
    EdcRefreshes,     ///< stale-but-clean EDC folds rewritten
    RedundancyBytesRead,    ///< EDC + ECC + RMW traffic read
    RedundancyBytesWritten, ///< EDC + ECC traffic written
    DataBytesRead,    ///< demand data read by fills
    DataBytesWritten, ///< demand data written by evictions
};

/** Report/snapshot names for GeometryStat, in enumerator order. */
inline constexpr const char *kGeometryStatNames[] = {
    "edc_checks_passed",
    "edc_checks_failed",
    "block_decodes",
    "block_decode_words",
    "partial_write_rmws",
    "open_codeword_hits",
    "latent_fault_words",
    "edc_refreshes",
    "redundancy_bytes_read",
    "redundancy_bytes_written",
    "data_bytes_read",
    "data_bytes_written",
};

class MemoryController
{
  public:
    /**
     * @param code the ECC codec wired into the datapath (must outlive
     *        the controller). The machine geometry requires 64 data
     *        bits and a check word that fits the DIMM's check lane;
     *        anything else panics at construction.
     * @param geometry protection geometry of the datapath. A block
     *        geometry requires a DIMM organised with the matching EDC
     *        lane; the word default is bit-identical to the
     *        pre-geometry controller.
     */
    MemoryController(PhysicalMemory &memory, CycleClock &clock,
                     Trace *trace = nullptr,
                     const EccCodec &code = defaultCodec(),
                     ProtectionGeometry geometry = {});

    /** @return the codec wired into the datapath. */
    const EccCodec &code() const { return code_; }

    /** @return the protection geometry wired into the datapath. */
    const ProtectionGeometry &geometry() const { return geometry_; }

    /** Switch the controller operating mode (device register write). */
    void setMode(EccMode mode) { mode_ = mode; }

    /** @return the current operating mode. */
    EccMode mode() const { return mode_; }

    /** Register the interrupt wire into the kernel. */
    void setInterruptHandler(EccInterruptHandler handler);

    /**
     * @name Memory-bus lock (held around scrambles, paper §2.2.2).
     *
     * lockBus()/unlockBus() acquire and release busCapability(), so
     * Clang's thread-safety analysis rejects double-locking and
     * lock-leaking call paths at compile time. Prefer the RAII
     * BusLockGuard below — a panic() between a bare lock/unlock pair
     * would otherwise unwind with the bus stuck locked.
     */
    /// @{
    void lockBus() ACQUIRE(busCapability_);
    void unlockBus() RELEASE(busCapability_);

    /** @return whether the memory bus is locked. */
    bool busLocked() const { return busLocked_; }

    /** The bus-lock capability, for ACQUIRE/RELEASE/REQUIRES clauses. */
    const Capability &
    busCapability() const RETURN_CAPABILITY(busCapability_)
    {
        return busCapability_;
    }
    /// @}

    /**
     * Cache-initiated line fill with full ECC decode. A word-geometry
     * fill of a line this controller encoded itself (see
     * PhysicalMemory::encodedBy()) skips the syndrome check, which
     * could only come out zero.
     *
     * @param line_addr line-aligned physical address.
     * @param out       receives the (possibly corrected) line contents;
     *                  left untouched when the fill fails.
     * @return false when any group had an uncorrectable error; the
     *         interrupt handler has already run by then and the caller is
     *         expected to retry the fill.
     */
    bool fillLine(PhysAddr line_addr, LineWords &out);

    /** Cache-initiated writeback: stores @p words through
     *  writeLineDeviceOp(), then (block geometries) their EDC fold. */
    void evictLine(PhysAddr line_addr, const LineWords &words);

    /**
     * Store the whole line at line-aligned @p line_addr by the
     * controller's one rule: with ECC Disabled the stored check bytes
     * are left untouched, otherwise every word is encoded afresh.
     * Charges no cycles and leaves any EDC fold as is. Device writes
     * (scramble, swap-in, watch restore) call it directly.
     */
    void writeLineDeviceOp(PhysAddr line_addr, const LineWords &words);

    /** Uncharged, unchecked read of the stored words of the line at
     *  line-aligned @p line_addr: no decode, so an error in DRAM comes
     *  back as stored (scramble, signature check, swap-out, tests). */
    LineWords peekLine(PhysAddr line_addr) const;

    /**
     * Scrub @p lines cache lines starting at @p start_line: decode every
     * group, rewrite corrected singles, raise ScrubMultiBit interrupts on
     * uncorrectable groups. The bus must be unlocked.
     */
    void scrubRange(PhysAddr start_line, std::size_t lines);

    /** One full scrub pass over all of physical memory, in ascending
     *  address order. */
    void scrubAll();

    /** @return controller statistics. */
    const StatSet &stats() const { return stats_; }

    /** @return block-geometry statistics (all-zero on the word
     *  default). */
    const StatSet &geometryStats() const { return geomStats_; }

    /** @return whether the stored EDC fold of the line at @p line_addr
     *  matches its stored data. Trivially true on the word default
     *  (no EDC lane exists). Uncharged — SimCheck audits and tests. */
    bool edcConsistent(PhysAddr line_addr) const;

    /** @return underlying DRAM (fault injection in tests). */
    PhysicalMemory &memory() { return memory_; }

  private:
    /**
     * Decode one group during a fill/scrub.
     * @return false on an uncorrectable error (interrupt already raised).
     */
    bool decodeWord(PhysAddr word_addr, bool scrubbing,
                    std::uint64_t &data_out);

    /** @return the EDC fold of the stored data of the line at
     *  @p line_addr (block geometries only). */
    std::uint64_t storedLineFold(PhysAddr line_addr) const;

    /**
     * Full long-code ECC decode of the codeword containing
     * @p line_addr, after an EDC miss. Words of the requested line get
     * the word-default fault semantics (heal / report / raise);
     * uncorrectable words elsewhere in the codeword are counted latent
     * instead of raising, so one scrambled neighbour cannot storm the
     * interrupt wire with faults nobody demanded. Lines that decode
     * clean get stale EDC folds refreshed — correcting modes only,
     * because CheckOnly never heals and a refresh would bless the very
     * error a stale fold is flagging.
     * @param out receives the requested line when non-null.
     * @return false when a word of the requested line was uncorrectable.
     */
    bool blockDecode(PhysAddr line_addr, bool scrubbing, LineWords *out);

    /** decodeWord for codeword words outside the requested line: heals
     *  singles in correcting modes, counts uncorrectable words as
     *  latent instead of raising. @return whether the stored word ends
     *  up clean. */
    bool latentDecodeWord(PhysAddr word_addr);

    /** Heal a corrected single-bit error: store @p data and its fresh
     *  check byte at @p word_addr, and audit that they decode clean. */
    void heal(PhysAddr word_addr, std::uint64_t data);

    /** Scrub one line: per-word decode on the word default; EDC
     *  fast-check with decode-on-miss under a block geometry. */
    void scrubLine(PhysAddr line_addr);

    /** SimCheck: written-back line must read back verbatim and decode
     *  clean (run only while auditing is enabled). */
    void auditWritebackCoherence(PhysAddr line_addr,
                                 const LineWords &words) const;

    /** Raise a @p kind interrupt for the word at @p word_addr, whose
     *  stored data is @p data. */
    void raise(EccFaultKind kind, PhysAddr word_addr, std::uint64_t data);

    PhysicalMemory &memory_;
    CycleClock &clock_;
    const EccCodec &code_;
    /** This controller's encoded-line tag on the DIMM. */
    const std::uint8_t encoder_;
    EccMode mode_ = EccMode::CorrectError;
    Capability busCapability_; ///< compile-time face of the bus lock
    bool busLocked_ = false;   ///< runtime face, audited by SimCheck
    EccInterruptHandler interruptHandler_;
    Trace *trace_;
    ProtectionGeometry geometry_;
    StatSet stats_{kControllerStatNames};
    StatSet geomStats_{kGeometryStatNames};
    /** Codeword held open in the write-combine buffer: further
     *  writebacks into it fold their redundancy update incrementally
     *  instead of paying the full read-modify-write (block geometry
     *  only; ~0 = nothing open). */
    PhysAddr openCodeword_ = ~PhysAddr{0};
};

/**
 * RAII holder of the memory bus. The kernel's scramble and unscramble
 * paths panic on malformed requests *while the bus is locked*;
 * unwinding through this guard releases the bus instead of wedging
 * every later lockBus() (see test_lock_discipline.cc).
 */
class SCOPED_CAPABILITY BusLockGuard
{
  public:
    explicit BusLockGuard(MemoryController &controller)
        ACQUIRE(controller.busCapability())
        : controller_(controller)
    {
        controller_.lockBus();
    }

    ~BusLockGuard() RELEASE() { controller_.unlockBus(); }

    BusLockGuard(const BusLockGuard &) = delete;
    BusLockGuard &operator=(const BusLockGuard &) = delete;

  private:
    MemoryController &controller_;
};

} // namespace safemem
