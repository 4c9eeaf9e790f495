/**
 * @file
 * Unit and property tests for defaultCodec(), the paper's (72,64)
 * Hsiao SEC-DED code every machine runs unless configured otherwise.
 */

#include <gtest/gtest.h>

#include "common/random.h"
#include "ecc/codec.h"

namespace safemem {
namespace {

const EccCodec &code = defaultCodec();

TEST(DefaultHsiao, ZeroDataHasZeroCheck)
{
    EXPECT_EQ(code.encode(0), 0);
}

TEST(DefaultHsiao, CleanWordDecodesOk)
{
    std::uint64_t data = 0xdeadbeefcafef00dULL;
    std::uint8_t check = code.encode(data);
    EccDecodeResult result = code.decode(data, check);
    EXPECT_EQ(result.status, EccDecodeStatus::Ok);
    EXPECT_EQ(result.data, data);
}

TEST(DefaultHsiao, EncodeIsLinear)
{
    // Hsiao codes are linear: check(a ^ b) == check(a) ^ check(b).
    Rng rng(7);
    for (int i = 0; i < 100; ++i) {
        std::uint64_t a = rng.next();
        std::uint64_t b = rng.next();
        EXPECT_EQ(code.encode(a ^ b), code.encode(a) ^ code.encode(b));
    }
}

TEST(DefaultHsiao, ColumnsAreOddWeightAndDistinct)
{
    for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(__builtin_popcount(code.column(i)) % 2, 1) << i;
        for (int j = i + 1; j < 64; ++j)
            EXPECT_NE(code.column(i), code.column(j)) << i << "," << j;
        // Never a unit vector (those belong to check bits).
        EXPECT_NE(__builtin_popcount(code.column(i)), 1) << i;
    }
}

/** Property sweep: every single data-bit flip is corrected. */
class DefaultHsiaoSingleBit : public ::testing::TestWithParam<int>
{
};

TEST_P(DefaultHsiaoSingleBit, DataBitFlipCorrected)
{
    int bit = GetParam();
    Rng rng(static_cast<std::uint64_t>(bit) + 1);
    for (int trial = 0; trial < 8; ++trial) {
        std::uint64_t data = rng.next();
        std::uint8_t check = code.encode(data);
        EccDecodeResult result =
            code.decode(data ^ (1ULL << bit), check);
        EXPECT_EQ(result.status, EccDecodeStatus::CorrectedSingle);
        EXPECT_EQ(result.data, data);
        EXPECT_EQ(result.correctedBit, bit);
    }
}

INSTANTIATE_TEST_SUITE_P(AllDataBits, DefaultHsiaoSingleBit,
                         ::testing::Range(0, 64));

/** Property sweep: every single check-bit flip is absorbed. */
class DefaultHsiaoCheckBit : public ::testing::TestWithParam<int>
{
};

TEST_P(DefaultHsiaoCheckBit, CheckBitFlipAbsorbed)
{
    int bit = GetParam();
    std::uint64_t data = 0x0123456789abcdefULL;
    std::uint8_t check = code.encode(data);
    EccDecodeResult result = code.decode(
        data, static_cast<std::uint8_t>(check ^ (1u << bit)));
    EXPECT_EQ(result.status, EccDecodeStatus::CorrectedSingle);
    EXPECT_EQ(result.data, data);
    EXPECT_EQ(result.correctedBit, 64 + bit);
}

INSTANTIATE_TEST_SUITE_P(AllCheckBits, DefaultHsiaoCheckBit,
                         ::testing::Range(0, 8));

/** Property sweep: every double data-bit flip is detected, never
 *  miscorrected to clean status (the DED property). */
class DefaultHsiaoDoubleBit
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(DefaultHsiaoDoubleBit, DoubleFlipDetected)
{
    auto [a, b] = GetParam();
    std::uint64_t data = 0x5a5a5a5a5a5a5a5aULL;
    std::uint8_t check = code.encode(data);
    std::uint64_t corrupted = data ^ (1ULL << a) ^ (1ULL << b);
    EccDecodeResult result = code.decode(corrupted, check);
    EXPECT_EQ(result.status, EccDecodeStatus::Uncorrectable)
        << "bits " << a << "," << b;
}

std::vector<std::pair<int, int>>
allDataBitPairs()
{
    std::vector<std::pair<int, int>> pairs;
    for (int a = 0; a < 64; ++a)
        for (int b = a + 1; b < 64; ++b)
            pairs.emplace_back(a, b);
    return pairs;
}

INSTANTIATE_TEST_SUITE_P(AllPairs, DefaultHsiaoDoubleBit,
                         ::testing::ValuesIn(allDataBitPairs()));

TEST(DefaultHsiao, DataPlusCheckFlipDetectedOrHarmless)
{
    // One data bit plus one check bit flipped: even total weight, so
    // the syndrome never looks like a correctable single data error in
    // a way that returns wrong data as "Ok".
    std::uint64_t data = 0xfedcba9876543210ULL;
    std::uint8_t check = code.encode(data);
    for (int d = 0; d < 64; ++d) {
        for (int c = 0; c < 8; ++c) {
            EccDecodeResult result = code.decode(
                data ^ (1ULL << d),
                static_cast<std::uint8_t>(check ^ (1u << c)));
            EXPECT_NE(result.status, EccDecodeStatus::Ok);
            if (result.status == EccDecodeStatus::CorrectedSingle) {
                // A miscorrection here would be silent data corruption.
                // Hsiao's odd-weight columns forbid it.
                ADD_FAILURE() << "miscorrected d=" << d << " c=" << c;
            }
        }
    }
}

} // namespace
} // namespace safemem
