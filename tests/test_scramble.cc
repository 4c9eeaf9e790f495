/**
 * @file
 * Tests for the 3-bit scramble signature (paper §2.2.2, Figure 2).
 */

#include <gtest/gtest.h>

#include "common/random.h"
#include "ecc/scramble.h"

namespace safemem {
namespace {

/** The signature every default-codec machine boots with. */
ScramblePattern
defaultPattern()
{
    return *findScramblePositions(defaultCodec());
}

TEST(Scramble, PatternHasThreeDistinctBits)
{
    const ScramblePattern p = defaultPattern();
    EXPECT_NE(p.bits[0], p.bits[1]);
    EXPECT_NE(p.bits[1], p.bits[2]);
    EXPECT_NE(p.bits[0], p.bits[2]);
    EXPECT_EQ(__builtin_popcountll(p.mask()), 3);
}

TEST(Scramble, ApplyIsAnInvolution)
{
    const ScramblePattern p = defaultPattern();
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        std::uint64_t v = rng.next();
        EXPECT_EQ(p.apply(p.apply(v)), v);
    }
}

TEST(Scramble, ScrambledWordIsUncorrectable)
{
    // The core guarantee: scrambled data against a stale check byte
    // must decode as an uncorrectable multi-bit fault, never as a
    // silently "corrected" single-bit error (paper §2.2.2, property 1).
    const EccCodec &code = defaultCodec();
    const ScramblePattern p = defaultPattern();
    Rng rng(17);
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t data = rng.next();
        std::uint8_t check = code.encode(data);
        EccDecodeResult result = code.decode(p.apply(data), check);
        EXPECT_EQ(result.status, EccDecodeStatus::Uncorrectable);
    }
}

TEST(Scramble, SearchAgreesWithDecoder)
{
    // Re-run the search and verify the returned triple against the
    // actual decoder for a spread of data values.
    const EccCodec &code = defaultCodec();
    std::optional<ScramblePattern> p = findScramblePositions(code);
    ASSERT_TRUE(p.has_value());
    for (std::uint64_t data : {0ULL, ~0ULL, 0x8000000000000001ULL}) {
        EccDecodeResult result =
            code.decode(p->apply(data), code.encode(data));
        EXPECT_EQ(result.status, EccDecodeStatus::Uncorrectable);
    }
}

TEST(Scramble, ViableTripleDecodesUncorrectableForEveryWord)
{
    // The search probes candidates through decode() itself (not a
    // syndrome-table shortcut), so the returned triple must hold for
    // *any* data content — the decode-probe rewrite of
    // looksCorrectable() is load-bearing here.
    const EccCodec &code = defaultCodec();
    std::optional<ScramblePattern> p = findScramblePositions(code);
    ASSERT_TRUE(p.has_value());
    Rng rng(0x5c2a3b1e);
    for (int i = 0; i < 256; ++i) {
        std::uint64_t data = rng.next();
        EccDecodeResult result =
            code.decode(p->apply(data), code.encode(data));
        ASSERT_EQ(result.status, EccDecodeStatus::Uncorrectable);
    }
}

TEST(Scramble, ParamHsiaoCodesHostSignaturesToo)
{
    // Any odd-weight-column Hsiao geometry keeps property 1: three odd
    // columns XOR to an odd-weight syndrome no column matches.
    for (int data_bits : {16, 32, 64}) {
        auto built = makeCodec({EccCodecKind::Hsiao, data_bits, 0});
        const EccCodec &code = *built;
        std::optional<ScramblePattern> p = findScramblePositions(code);
        ASSERT_TRUE(p.has_value()) << "d=" << data_bits;
        std::uint64_t data =
            0x1234567890abcdefULL &
            (data_bits == 64 ? ~0ULL : (1ULL << data_bits) - 1);
        EccDecodeResult result =
            code.decode(p->apply(data), code.encode(data));
        EXPECT_EQ(result.status, EccDecodeStatus::Uncorrectable);
    }
}

TEST(Scramble, PureSecHammingCannotHostASignature)
{
    // The campaign's headline negative result: classic Hamming 64/8
    // corrects every non-zero syndrome, so no bit triple is guaranteed
    // uncorrectable and the search must report failure rather than a
    // pattern that would silently corrupt watched data.
    auto code = makeCodec({EccCodecKind::Hamming64_8, 64, 0});
    EXPECT_FALSE(findScramblePositions(*code).has_value());
}

TEST(Scramble, NotEveryTripleWouldWork)
{
    // Sanity of the search itself: some bit triples alias to a single
    // correctable error (their column XOR matches another column), so
    // the search is load-bearing, not decorative.
    const EccCodec &code = defaultCodec();
    bool found_bad_triple = false;
    for (int a = 0; a < 64 && !found_bad_triple; ++a) {
        for (int b = a + 1; b < 64 && !found_bad_triple; ++b) {
            for (int c = b + 1; c < 64 && !found_bad_triple; ++c) {
                std::uint8_t syndrome = static_cast<std::uint8_t>(
                    code.column(a) ^ code.column(b) ^ code.column(c));
                for (int d = 0; d < 64; ++d) {
                    if (code.column(d) == syndrome) {
                        found_bad_triple = true;
                        break;
                    }
                }
            }
        }
    }
    EXPECT_TRUE(found_bad_triple);
}

} // namespace
} // namespace safemem
