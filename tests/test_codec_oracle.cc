/**
 * @file
 * An independent reference model of the linear-code engine behind
 * makeCodec(): columns rebuilt by brute force from each family's
 * recipe, a naive encoder that XORs them bit by bit, and a naive
 * decoder that classifies a syndrome by scanning — zero, a data column,
 * a unit vector, otherwise the code's policy. The engine must agree
 * with the model on every syndrome where k <= 8, and on a sample of
 * syndromes above that. The paper's (72,64) H-matrix is pinned as a
 * hand-written list.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/random.h"
#include "ecc/codec.h"
#include "tests/pass_through_codec.h"

namespace safemem {
namespace {

/** The paper's H-matrix data columns: the 56 weight-3 bytes in
 *  ascending order, then the first 8 weight-5 bytes. */
constexpr std::array<std::uint8_t, 64> kPaperColumns = {
    0x07, 0x0b, 0x0d, 0x0e, 0x13, 0x15, 0x16, 0x19,
    0x1a, 0x1c, 0x23, 0x25, 0x26, 0x29, 0x2a, 0x2c,
    0x31, 0x32, 0x34, 0x38, 0x43, 0x45, 0x46, 0x49,
    0x4a, 0x4c, 0x51, 0x52, 0x54, 0x58, 0x61, 0x62,
    0x64, 0x68, 0x70, 0x83, 0x85, 0x86, 0x89, 0x8a,
    0x8c, 0x91, 0x92, 0x94, 0x98, 0xa1, 0xa2, 0xa4,
    0xa8, 0xb0, 0xc1, 0xc2, 0xc4, 0xc8, 0xd0, 0xe0,
    0x1f, 0x2f, 0x37, 0x3b, 0x3d, 0x3e, 0x4f, 0x57,
};

TEST(CodecOracle, PaperHMatrixIsPinned)
{
    auto explicit_k = makeCodec(*parseCodecSpec("hsiao:64/8"));
    const EccCodec *codes[] = {&defaultCodec(), explicit_k.get()};
    for (const EccCodec *code : codes) {
        ASSERT_EQ(code->dataBits(), 64);
        ASSERT_EQ(code->checkBits(), 8);
        for (int bit = 0; bit < 64; ++bit)
            EXPECT_EQ(code->column(bit), kPaperColumns[bit])
                << code->name() << " bit " << bit;
    }
}

/** One codec under test and the shape the model expects of it. */
struct OracleCase
{
    const char *spec;
    std::size_t dataBits;
    int checkBits;
    /** SEC-DED: a syndrome naming no bit is Uncorrectable; pure SEC
     *  turns it into a phantom correction. */
    bool secDed;

    friend void PrintTo(const OracleCase &c, std::ostream *os)
    {
        *os << c.spec;
    }
};

/** The reference model of one code. */
class NaiveCode
{
  public:
    explicit NaiveCode(const OracleCase &c)
        : checkBits_(c.checkBits), secDed_(c.secDed)
    {
        if (!c.secDed) {
            // Hamming: the values of weight >= 2, ascending.
            for (std::uint64_t v = 1; columns_.size() < c.dataBits; ++v)
                if (std::popcount(v) >= 2)
                    columns_.push_back(v);
            return;
        }
        // Hsiao: odd weights >= 3, ascending weight then value.
        for (int weight = 3; weight <= c.checkBits; weight += 2)
            for (std::uint64_t v = 0; v < (1ULL << c.checkBits) &&
                                      columns_.size() < c.dataBits;
                 ++v)
                if (std::popcount(v) == weight)
                    columns_.push_back(v);
    }

    const std::vector<std::uint64_t> &columns() const { return columns_; }

    /** @return the XOR of the columns of @p data's set bits. */
    std::uint64_t
    encode(std::uint64_t data) const
    {
        std::uint64_t check = 0;
        for (std::size_t bit = 0; bit < columns_.size(); ++bit)
            if ((data >> bit) & 1)
                check ^= columns_[bit];
        return check;
    }

    EccDecodeResult
    decode(std::uint64_t data, std::uint64_t check) const
    {
        EccDecodeResult result;
        result.data = data;
        std::uint64_t syndrome =
            (encode(data) ^ check) & ((1ULL << checkBits_) - 1);
        if (syndrome == 0)
            return result;
        result.status = EccDecodeStatus::CorrectedSingle;
        for (std::size_t bit = 0; bit < columns_.size(); ++bit) {
            if (columns_[bit] == syndrome) {
                result.data ^= 1ULL << bit;
                result.correctedBit = static_cast<int>(bit);
                return result;
            }
        }
        for (int bit = 0; bit < checkBits_; ++bit) {
            if (syndrome == 1ULL << bit) {
                result.correctedBit =
                    static_cast<int>(columns_.size()) + bit;
                return result;
            }
        }
        if (secDed_)
            result.status = EccDecodeStatus::Uncorrectable;
        return result;
    }

  private:
    int checkBits_;
    bool secDed_;
    std::vector<std::uint64_t> columns_;
};

class CodecOracle : public ::testing::TestWithParam<OracleCase>
{
  protected:
    std::unique_ptr<EccCodec> code_ =
        makeCodec(*parseCodecSpec(GetParam().spec));
    NaiveCode model_{GetParam()};

    /** Decode @p data against its check bits upset by @p syndrome,
     *  through the engine and the model, and compare every field. */
    ::testing::AssertionResult
    sameVerdict(std::uint64_t data, std::uint64_t syndrome) const
    {
        std::uint64_t check = model_.encode(data) ^ syndrome;
        EccDecodeResult got = code_->decode(data, check);
        EccDecodeResult want = model_.decode(data, check);
        if (got.status == want.status && got.data == want.data &&
            got.correctedBit == want.correctedBit)
            return ::testing::AssertionSuccess();
        return ::testing::AssertionFailure()
               << "syndrome " << syndrome << " on word " << data
               << ": engine status " << static_cast<int>(got.status)
               << " bit " << got.correctedBit << ", model status "
               << static_cast<int>(want.status) << " bit "
               << want.correctedBit;
    }
};

TEST_P(CodecOracle, ColumnsFollowTheFamilyRecipe)
{
    ASSERT_EQ(static_cast<std::size_t>(code_->dataBits()),
              GetParam().dataBits);
    ASSERT_EQ(code_->checkBits(), GetParam().checkBits);
    for (int bit = 0; bit < code_->dataBits(); ++bit)
        EXPECT_EQ(code_->column(bit),
                  model_.columns()[static_cast<std::size_t>(bit)])
            << "bit " << bit;
}

TEST_P(CodecOracle, EncodeMatchesTheNaiveXor)
{
    Rng rng(0x0eac1e);
    for (int i = 0; i < 4096; ++i) {
        std::uint64_t data = rng.next();
        ASSERT_EQ(code_->encode(data), model_.encode(data)) << data;
    }
}

TEST_P(CodecOracle, DecodeMatchesTheNaiveClassifier)
{
    const int k = GetParam().checkBits;
    Rng rng(0xdec0de + static_cast<std::uint64_t>(k));
    if (k <= 8) {
        // Every syndrome the code can present, each on fresh words.
        for (std::uint64_t syndrome = 0; syndrome < (1ULL << k);
             ++syndrome)
            for (int word = 0; word < 16; ++word)
                ASSERT_TRUE(sameVerdict(rng.next(), syndrome));
        return;
    }
    // Too many syndromes to enumerate: every single-bit syndrome, every
    // double-data-bit one, and random k-bit values.
    const std::vector<std::uint64_t> &columns = model_.columns();
    for (std::size_t a = 0; a < columns.size(); ++a) {
        ASSERT_TRUE(sameVerdict(rng.next(), columns[a]));
        for (std::size_t b = a + 1; b < columns.size(); ++b)
            ASSERT_TRUE(sameVerdict(rng.next(), columns[a] ^ columns[b]));
    }
    for (int bit = 0; bit < k; ++bit)
        ASSERT_TRUE(sameVerdict(rng.next(), 1ULL << bit));
    for (int i = 0; i < 20000; ++i)
        ASSERT_TRUE(sameVerdict(rng.next(), rng.next() & ((1ULL << k) - 1)));
}

TEST_P(CodecOracle, AllCleanMatchesPerWordDecode)
{
    constexpr std::size_t kWords = 8;
    const PassThroughCodec wrapped(*code_);
    // The check lane holds one byte per word, so only check bits below
    // the lesser of k and 8 can be stored or flipped.
    const int stored_check_bits = std::min(GetParam().checkBits, 8);
    const auto top_data_bit =
        static_cast<std::uint64_t>(code_->dataBits() - 1);
    const auto top_check_bit =
        static_cast<std::uint64_t>(stored_check_bits - 1);
    Rng rng(0xa11c1ea + static_cast<std::uint64_t>(GetParam().checkBits));

    auto agree = [&](const std::uint64_t *data, const std::uint8_t *check,
                     std::size_t n) -> ::testing::AssertionResult {
        bool want = true;
        for (std::size_t i = 0; i < n; ++i)
            want = want && code_->decode(data[i], check[i]).status ==
                               EccDecodeStatus::Ok;
        bool got = code_->allClean(data, check, n);
        bool via_default = wrapped.allClean(data, check, n);
        if (got == want && via_default == want)
            return ::testing::AssertionSuccess();
        return ::testing::AssertionFailure()
               << "per-word decode says " << want << ", allClean " << got
               << ", the default " << via_default;
    };

    // A random clean line: words whose check bits all fit the lane.
    auto clean_line = [&](std::uint64_t *data, std::uint8_t *check) {
        for (std::size_t i = 0; i < kWords; ++i) {
            do {
                data[i] = rng.next();
            } while (code_->encode(data[i]) >> stored_check_bits != 0);
            check[i] = static_cast<std::uint8_t>(code_->encode(data[i]));
        }
    };

    std::uint64_t data[kWords] = {};
    std::uint8_t check[kWords] = {};
    ASSERT_TRUE(agree(data, check, 0)) << "an empty line is clean";
    for (int trial = 0; trial < 64; ++trial) {
        clean_line(data, check);
        ASSERT_TRUE(agree(data, check, kWords));
        ASSERT_TRUE(code_->allClean(data, check, kWords));

        // One flipped data or check bit, at every word index.
        for (std::size_t i = 0; i < kWords; ++i) {
            std::uint64_t data_bit = 1ULL << rng.range(0, top_data_bit);
            data[i] ^= data_bit;
            ASSERT_TRUE(agree(data, check, kWords)) << "data, word " << i;
            data[i] ^= data_bit;

            auto check_bit = static_cast<std::uint8_t>(
                1u << rng.range(0, top_check_bit));
            check[i] ^= check_bit;
            ASSERT_TRUE(agree(data, check, kWords)) << "check, word " << i;
            EXPECT_FALSE(code_->allClean(data, check, kWords));
            check[i] ^= check_bit;
        }

        // Scrambled words: the same three data bits flipped in every
        // word, as a watch scrambles a whole line.
        std::uint64_t mask = 0;
        while (std::popcount(mask) < 3)
            mask |= 1ULL << rng.range(0, top_data_bit);
        for (std::size_t i = 0; i < kWords; ++i)
            data[i] ^= mask;
        ASSERT_TRUE(agree(data, check, kWords)) << "scrambled line";
        // Only the first word scrambled, then only the last.
        for (std::size_t i = 1; i < kWords; ++i)
            data[i] ^= mask;
        ASSERT_TRUE(agree(data, check, kWords)) << "first word scrambled";
        data[0] ^= mask;
        data[kWords - 1] ^= mask;
        ASSERT_TRUE(agree(data, check, kWords)) << "last word scrambled";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, CodecOracle,
    ::testing::Values(OracleCase{"hsiao", 64, 8, true},
                      OracleCase{"hamming64/8", 64, 8, false},
                      OracleCase{"hsiao:64/8", 64, 8, true},
                      OracleCase{"hsiao:32", 32, 7, true},
                      OracleCase{"hsiao:16/6", 16, 6, true},
                      OracleCase{"hsiao:64/12", 64, 12, true}),
    [](const ::testing::TestParamInfo<OracleCase> &info) {
        std::string name = info.param.spec;
        for (char &c : name)
            if (c == ':' || c == '/')
                c = '_';
        return name;
    });

} // namespace
} // namespace safemem
