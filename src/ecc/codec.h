/**
 * @file
 * The pluggable ECC codec abstraction.
 *
 * SafeMem's mechanism (paper §2.1, §2.2.2) stands on two properties of
 * the controller's code: real single-bit errors correct transparently,
 * and the 3-bit scramble signature decodes as *uncorrectable*. Neither
 * property is free — it depends on which code the controller implements.
 * EccCodec makes the code a run parameter so fault-injection campaigns
 * can compare codes (and show where the scramble trick breaks), while
 * the machine datapath stays wired to whichever codec its MachineConfig
 * names.
 *
 * All implementations are stateless after construction: every method is
 * const and thread-compatible, so one codec instance may serve many
 * concurrent machines or campaign workers.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

namespace safemem {

/** Outcome categories of decoding one ECC group. */
enum class EccDecodeStatus : std::uint8_t
{
    Ok,              ///< syndrome zero: data clean
    CorrectedSingle, ///< single-bit error found and corrected
    Uncorrectable    ///< multi-bit error: detected, cannot be corrected
};

/** Result of decoding one ECC group. */
struct EccDecodeResult
{
    EccDecodeStatus status = EccDecodeStatus::Ok;
    /**
     * The decoder's data output. For Ok / CorrectedSingle this is the
     * (possibly corrected) word. For Uncorrectable it is the *raw*,
     * still-corrupt word as read — the controller forwards it as
     * EccFaultInfo::rawData, which is how SafeMem's fault handler
     * recovers the original contents of a scrambled group (unscramble
     * is just re-applying the 3-bit mask). Always set.
     */
    std::uint64_t data = 0;
    /**
     * Bit position fixed when status == CorrectedSingle: [0, dataBits)
     * for data bits, [dataBits, dataBits + checkBits) for check bits.
     * -1 otherwise — including the pure-SEC Hamming decoder's phantom
     * "corrections" of codeword positions that do not exist in the
     * shortened code (see EccCodecKind::Hamming64_8). Consumers must
     * not assume the value indexes a data word.
     */
    int correctedBit = -1;
};

/**
 * Interface of one (d + k, d) binary ECC code: d data bits protected by
 * k check bits, both at most 64 so a codeword fits two machine words.
 *
 * The machine datapath additionally requires d == 64 and k <= 8 (one
 * check byte per ECC group, the paper's geometry); the campaign engine
 * accepts any EccCodec.
 */
class EccCodec
{
  public:
    virtual ~EccCodec() = default;

    /** @return a short printable name, e.g. "hsiao-72-64". */
    virtual const char *name() const = 0;

    /** @return the number of data bits d per codeword. */
    virtual int dataBits() const = 0;

    /** @return the number of check bits k per codeword. */
    virtual int checkBits() const = 0;

    /** @return the k check bits protecting @p data (low k bits). */
    virtual std::uint64_t encode(std::uint64_t data) const = 0;

    /**
     * Check @p data against the stored @p check bits, correcting a
     * single-bit error when the code can.
     */
    virtual EccDecodeResult decode(std::uint64_t data,
                                   std::uint64_t check) const = 0;

    /** @return the H-matrix column (k-bit syndrome) of data bit @p bit. */
    virtual std::uint64_t column(int bit) const = 0;

    /**
     * @return true when each of the @p n words @p data[i] decodes Ok
     * against its stored check byte @p check[i] — the controller's
     * one-branch test for a clean line fill. The default asks decode()
     * word by word and stops at the first word that is not clean.
     */
    virtual bool allClean(const std::uint64_t *data,
                          const std::uint8_t *check, std::size_t n) const;
};

/**
 * The code families selectable per run. Both run on one linear-code
 * engine and differ only in their columns and in what a non-zero
 * syndrome that names no codeword bit decodes to.
 */
enum class EccCodecKind : std::uint8_t
{
    Hsiao,       ///< SEC-DED over d data bits, k auto-sized when 0; the
                 ///< 64-bit auto-sized code is the paper's (72,64) one
    Hamming64_8, ///< classic Hamming pure SEC: never Uncorrectable
};

/**
 * Value-type description of a codec — the piece of a RunSpec that names
 * which code the machine (or a campaign cell) runs. Default-constructed
 * it names the paper's (72,64) Hsiao code.
 */
struct EccCodecSpec
{
    EccCodecKind kind = EccCodecKind::Hsiao;
    /** Data bits d (Hsiao only; Hamming64_8 is fixed at 64). */
    int dataBits = 64;
    /** Check bits k, 0 = auto-size (Hsiao only; Hamming64_8 has 8). */
    int checkBits = 0;

    bool operator==(const EccCodecSpec &) const = default;
};

/** @return a freshly built codec implementing @p spec (panics on a
 *  spec no code satisfies; parseCodecSpec() never returns one). */
std::unique_ptr<EccCodec> makeCodec(const EccCodecSpec &spec);

/** @return the shared immutable (72,64) Hsiao codec every machine uses
 *  unless its config says otherwise. */
const EccCodec &defaultCodec();

/**
 * Parse a codec name as accepted by the CLI: "hsiao" (the default
 * (72,64) code), "hamming64/8", or "hsiao:<d>" / "hsiao:<d>/<k>" for
 * any other Hsiao code ("hsiao:64" is the default). @return nullopt on
 * anything else, including dimensions no Hsiao code fills.
 */
std::optional<EccCodecSpec> parseCodecSpec(const std::string &name);

/** @return the canonical CLI/report name of @p spec. */
std::string codecSpecName(const EccCodecSpec &spec);

} // namespace safemem
