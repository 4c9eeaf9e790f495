/**
 * @file
 * Tests of the codec-zoo plumbing: auto-sizing of check bits, spec
 * parsing/naming round-trips, dimension validation, and the pure-SEC
 * decode policy. test_codec_oracle.cc checks the engine itself against
 * a naive reference model.
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/random.h"
#include "ecc/codec.h"

namespace safemem {
namespace {

TEST(CodecZoo, AutoCheckBitsMatchesTheCombinatorics)
{
    // Smallest k with enough odd-weight >= 3 columns: C(6, 3) + C(6, 5)
    // = 26 covers 16, C(7, 3) + C(7, 5) + C(7, 7) = 57 covers 32,
    // C(8, 3) + C(8, 5) + C(8, 7) = 120 covers 64, and C(3, 3) = 1
    // covers 1.
    for (auto [data_bits, check_bits] :
         {std::pair{64, 8}, {32, 7}, {16, 6}, {1, 3}}) {
        auto code = makeCodec({EccCodecKind::Hsiao, data_bits, 0});
        EXPECT_EQ(code->checkBits(), check_bits) << data_bits;
    }
}

TEST(CodecZoo, BadGeometryPanics)
{
    // 64 data columns cannot fit in 4 check bits (only C(4,3) = 4
    // odd-weight >= 3 values exist below 2^4).
    EXPECT_THROW(makeCodec({EccCodecKind::Hsiao, 64, 4}), PanicError);
    EXPECT_THROW(makeCodec({EccCodecKind::Hsiao, 0, 8}), PanicError);
    EXPECT_THROW(makeCodec({EccCodecKind::Hsiao, 65, 0}), PanicError);
    EXPECT_THROW(makeCodec({EccCodecKind::Hsiao, 64, 65}), PanicError);
}

TEST(CodecZoo, MakeCodecBuildsEveryKind)
{
    auto hsiao = makeCodec({EccCodecKind::Hsiao, 64, 0});
    auto hamming = makeCodec({EccCodecKind::Hamming64_8, 64, 0});
    auto narrow = makeCodec({EccCodecKind::Hsiao, 16, 0});
    EXPECT_STREQ(hsiao->name(), "hsiao-72-64");
    EXPECT_STREQ(hamming->name(), "hamming-64-8");
    EXPECT_STREQ(narrow->name(), "hsiao-22-16");
    EXPECT_EQ(narrow->checkBits(), 6);
}

TEST(CodecZoo, SpecParsingRoundTrips)
{
    for (const char *name :
         {"hsiao", "hamming64/8", "hsiao:32", "hsiao:64/8", "hsiao:16/6"}) {
        auto spec = parseCodecSpec(name);
        ASSERT_TRUE(spec.has_value()) << name;
        EXPECT_EQ(codecSpecName(*spec), name);
    }

    // Aliases normalize to the canonical name; hsiao:64 is the default.
    EXPECT_EQ(codecSpecName(*parseCodecSpec("hamming")), "hamming64/8");
    EXPECT_EQ(codecSpecName(*parseCodecSpec("hsiao-72-64")), "hsiao");
    EXPECT_TRUE(parseCodecSpec("hsiao:64") == EccCodecSpec{});

    for (const char *bad :
         {"", "crc32", "hsiao:", "hsiao:x", "hsiao:65", "hsiao:64/65",
          "hsiao:-1", "hamming64", "hsiao:32abc", "hsiao: 16",
          "hsiao:16 ", "hsiao:+16", "hsiao:0x10", "hsiao:64/",
          "hsiao:/8", "hsiao:64/8/1", "hsiao:64/-0", "hsiao:4294967360",
          // Dimensions no Hsiao code fills: too few check bits, no data.
          "hsiao:64/4", "hsiao:64/2", "hsiao:2/1", "hsiao:0"})
        EXPECT_FALSE(parseCodecSpec(bad).has_value()) << bad;
}

TEST(CodecZoo, DefaultSpecNamesTheDefaultCodec)
{
    EccCodecSpec spec;
    auto built = makeCodec(spec);
    EXPECT_STREQ(built->name(), defaultCodec().name());
    Rng rng(5);
    for (int trial = 0; trial < 64; ++trial) {
        std::uint64_t data = rng.next();
        EXPECT_EQ(built->encode(data), defaultCodec().encode(data));
    }
}

TEST(CodecZoo, HammingDecoderNeverReportsUncorrectable)
{
    // The property the scramble result rests on: no syndrome at all
    // decodes Uncorrectable, so no bit pattern can host a signature.
    const auto hamming = makeCodec({EccCodecKind::Hamming64_8, 64, 0});
    const EccCodec &code = *hamming;
    const std::uint64_t data = 0x123456789abcdef0ULL;
    const std::uint64_t check = code.encode(data);
    for (unsigned syndrome = 0; syndrome < 256; ++syndrome) {
        EccDecodeResult result = code.decode(data, check ^ syndrome);
        EXPECT_NE(result.status, EccDecodeStatus::Uncorrectable)
            << "syndrome " << syndrome;
    }
}

TEST(CodecZoo, HammingPhantomCorrectionKeepsDataAndFlagsNoBit)
{
    // A syndrome naming a shortened-away position must come back as a
    // "correction" that touches nothing: data unchanged, correctedBit
    // -1 (see the EccDecodeResult contract).
    const auto hamming = makeCodec({EccCodecKind::Hamming64_8, 64, 0});
    const EccCodec &code = *hamming;
    const std::uint64_t data = 0x5a5a5a5a5a5a5a5aULL;
    const std::uint64_t check = code.encode(data);

    // Find a syndrome that is neither a unit vector nor a data column.
    for (unsigned syndrome = 3; syndrome < 256; ++syndrome) {
        if (__builtin_popcount(syndrome) < 2)
            continue;
        bool is_column = false;
        for (int bit = 0; bit < 64 && !is_column; ++bit)
            is_column = code.column(bit) == syndrome;
        if (is_column)
            continue;
        EccDecodeResult result = code.decode(data, check ^ syndrome);
        EXPECT_EQ(result.status, EccDecodeStatus::CorrectedSingle);
        EXPECT_EQ(result.data, data);
        EXPECT_EQ(result.correctedBit, -1);
        return;
    }
    FAIL() << "no phantom syndrome found in an 8-bit space";
}

} // namespace
} // namespace safemem
