/**
 * @file
 * Multithreaded ECC fault-injection campaign engine.
 *
 * Sweeps {fail mode: none / random / random-burst} x {error count
 * 1..maxErrors} x {codec}, injecting bit upsets into whole codewords
 * (data + check bits) and scoring each decode against ground truth:
 *
 *   - corrected:    decoder output equals the original data word;
 *   - detected:     decoder raised Uncorrectable (the interrupt case);
 *   - miscorrected: decoder claimed success but returned *wrong* data —
 *                   the silent corruption SEC-DED exists to prevent and
 *                   the number that decides whether SafeMem's scramble
 *                   trick survives a codec (mat_ecc_ram's methodology).
 *
 * Small spaces run exhaustively (every 1- and 2-bit upset, every burst
 * offset); larger ones are seeded-random sampled. Cells fan out over
 * the run-matrix thread pool; every cell derives its RNG from the
 * campaign seed and its own index, so results are bit-identical for
 * any worker count. Each codec also carries a scramble-viability
 * verdict from findScramblePositions() — the paper's (72,64) Hsiao
 * code hosts a signature, classic Hamming 64/8 cannot.
 */

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "ecc/codec.h"

namespace safemem {

class Rng;

/** How a campaign cell injects errors into a codeword. */
enum class FailMode : std::uint8_t
{
    None,       ///< no upsets: the clean-path control cell
    Random,     ///< n errors at independent random bit positions
    RandomBurst ///< n errors at contiguous positions (one burst)
};

/** @return a short printable name for @p mode. */
const char *failModeName(FailMode mode);

/** Parameters of one campaign run. */
struct CampaignConfig
{
    /** Codecs to sweep; empty = the full zoo (hsiao, hamming64/8,
     *  hsiao:64/8). */
    std::vector<EccCodecSpec> codecs;
    /** Largest injected error count per codeword. */
    int maxErrors = 8;
    /** Trials per cell when the space is too large to exhaust. */
    std::uint64_t samples = 20000;
    /** Campaign seed; every cell mixes in its own index. */
    std::uint64_t seed = 42;
    /** Worker threads (0 = all cores); never changes the results. */
    unsigned workers = 1;
};

/** Outcome counts of one (codec, mode, error count) cell. */
struct CampaignCell
{
    FailMode mode = FailMode::None;
    /** Injected errors per codeword (0 for FailMode::None). */
    int errors = 0;
    /** True when every error pattern in the space was enumerated. */
    bool exhaustive = false;
    std::uint64_t trials = 0;
    std::uint64_t corrected = 0;
    std::uint64_t detected = 0;
    std::uint64_t miscorrected = 0;

    bool operator==(const CampaignCell &) const = default;
};

/** One codec's campaign slice: its cells plus the scramble verdict. */
struct CodecCampaign
{
    EccCodecSpec spec;
    std::string name;
    int dataBits = 0;
    int checkBits = 0;
    /** True when findScramblePositions() found a guaranteed-
     *  uncorrectable bit triple for this codec. */
    bool scrambleViable = false;
    /** The triple (valid only when scrambleViable). */
    std::array<int, 3> scrambleBits{};
    /** Cells in sweep order: none, random 1..max, burst 1..max. */
    std::vector<CampaignCell> cells;

    bool operator==(const CodecCampaign &) const = default;
};

/** Everything a campaign produced, in codec sweep order. */
struct CampaignResult
{
    int maxErrors = 0;
    std::uint64_t samples = 0;
    std::uint64_t seed = 0;
    std::vector<CodecCampaign> codecs;

    /** Field-for-field equality — the bit-identical-sweeps contract. */
    bool operator==(const CampaignResult &) const = default;
};

/** One injected error pattern over a whole codeword: the data and
 *  check bits it flips. */
struct ErrorPattern
{
    std::uint64_t dataMask = 0;
    std::uint64_t checkMask = 0;
};

/**
 * @return @p errors distinct codeword positions of @p code (data bits
 * first, then check bits), drawn from @p rng, as one pattern with
 * exactly @p errors bits set. A position already in the pattern is
 * redrawn, never merged. The random cells' sampler.
 */
ErrorPattern randomPattern(const EccCodec &code, int errors, Rng &rng);

/** Run the campaign described by @p config. */
CampaignResult runCampaign(const CampaignConfig &config);

/** @return the human-readable campaign report (CLI output). */
std::string formatCampaignReport(const CampaignResult &result);

/**
 * @return the BENCH_ecc_campaign.json document for @p result: config
 * echo, per-codec cells with corrected/detected/miscorrected counts,
 * per-codec rate CDFs over cells, and the scramble-viability verdicts.
 */
std::string campaignJson(const CampaignResult &result);

} // namespace safemem
