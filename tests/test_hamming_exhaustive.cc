/**
 * @file
 * Exhaustive SEC/SEC-DED property suite, parameterized over the codec
 * zoo.
 *
 * Single-error correction: for every codeword bit (data + check), a
 * flip must decode back to the original word — this holds for every
 * codec in the zoo. Double-error behaviour is where they split: the
 * Hsiao-family SEC-DED codes must flag every pair of flipped bits as
 * detected-but-uncorrectable, while classic Hamming 64/8 — a pure SEC
 * code with no detect-only outcome — must *silently miscorrect* a
 * nonzero share of them. The suite asserts the miscorrections are
 * present (not merely tolerated): they are the reason the paper's
 * mechanism demands a SEC-DED code.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/random.h"
#include "ecc/codec.h"

namespace safemem {
namespace {

/** Deterministic word sample: edge patterns plus PRNG fill. */
std::vector<std::uint64_t>
sampleWords(std::size_t count)
{
    std::vector<std::uint64_t> words = {
        0x0000000000000000ULL, 0xffffffffffffffffULL,
        0xaaaaaaaaaaaaaaaaULL, 0x5555555555555555ULL,
        0x0123456789abcdefULL,
    };
    Rng rng(0xecc7e57);
    while (words.size() < count)
        words.push_back(rng.next());
    return words;
}

/** Flip codeword bit @p bit (data bits first, then check bits). */
void
flipBit(const EccCodec &code, int bit, std::uint64_t &data,
        std::uint64_t &check)
{
    if (bit < code.dataBits())
        data ^= 1ULL << bit;
    else
        check ^= 1ULL << (bit - code.dataBits());
}

/** One zoo member plus its expected double-flip behaviour. */
struct ZooEntry
{
    EccCodecSpec spec;
    /** SEC-DED codes detect every double; pure SEC Hamming cannot. */
    bool secDed;
};

class CodecExhaustive : public ::testing::TestWithParam<ZooEntry>
{
  protected:
    std::unique_ptr<EccCodec> code_ = makeCodec(GetParam().spec);
};

TEST_P(CodecExhaustive, AllSingleBitFlipsCorrectToOriginal)
{
    const EccCodec &code = *code_;
    const int total = code.dataBits() + code.checkBits();
    for (std::uint64_t data : sampleWords(16)) {
        std::uint64_t check = code.encode(data);
        for (int bit = 0; bit < total; ++bit) {
            std::uint64_t bad_data = data;
            std::uint64_t bad_check = check;
            flipBit(code, bit, bad_data, bad_check);

            EccDecodeResult result = code.decode(bad_data, bad_check);
            ASSERT_EQ(result.status, EccDecodeStatus::CorrectedSingle)
                << "bit " << bit << " of word " << data;
            ASSERT_EQ(result.data, data)
                << "flip of bit " << bit
                << " did not correct back to the original word";
            ASSERT_EQ(result.correctedBit, bit);
        }
    }
}

TEST_P(CodecExhaustive, DoubleBitFlipsNeverReturnWrongDataAsClean)
{
    // Shared floor for every codec: whatever a double flip decodes to,
    // the decoder must never claim a clean (status Ok) word that is
    // wrong. SEC-DED vs SEC only changes *how* doubles surface.
    const EccCodec &code = *code_;
    const int total = code.dataBits() + code.checkBits();
    const std::uint64_t data = 0x0123456789abcdefULL;
    const std::uint64_t check = code.encode(data);
    for (int a = 0; a < total; ++a) {
        for (int b = a + 1; b < total; ++b) {
            std::uint64_t bad_data = data;
            std::uint64_t bad_check = check;
            flipBit(code, a, bad_data, bad_check);
            flipBit(code, b, bad_data, bad_check);
            EccDecodeResult result = code.decode(bad_data, bad_check);
            ASSERT_FALSE(result.status == EccDecodeStatus::Ok &&
                         result.data != data)
                << "bits " << a << "+" << b
                << " decoded as clean with wrong data";
        }
    }
}

TEST_P(CodecExhaustive, DoubleBitFlipBehaviourMatchesCodeClass)
{
    const EccCodec &code = *code_;
    const int total = code.dataBits() + code.checkBits();
    std::size_t cases = 0;
    std::size_t detected = 0;
    std::size_t miscorrected = 0;

    // Every bit pair — data+data, data+check, check+check — over two
    // contrasting words. For the 72-bit codecs that is 2 * C(72,2) =
    // 5112 deterministic double flips.
    for (std::uint64_t data :
         {0x0123456789abcdefULL, 0xfedcba9876543210ULL}) {
        std::uint64_t check = code.encode(data);
        for (int a = 0; a < total; ++a) {
            for (int b = a + 1; b < total; ++b) {
                std::uint64_t bad_data = data;
                std::uint64_t bad_check = check;
                flipBit(code, a, bad_data, bad_check);
                flipBit(code, b, bad_data, bad_check);

                EccDecodeResult result = code.decode(bad_data, bad_check);
                ++cases;
                if (result.status == EccDecodeStatus::Uncorrectable) {
                    ++detected;
                } else if (result.data != data) {
                    ++miscorrected;
                    ASSERT_FALSE(GetParam().secDed)
                        << "SEC-DED codec miscorrected bits " << a << "+"
                        << b << " of word " << data;
                }
            }
        }
    }

    // The issue's floor for the paper-geometry codecs: a deterministic
    // sample of at least 2000 pairs. (hsiao:32 has fewer pairs total.)
    if (code.dataBits() == 64) {
        EXPECT_GE(cases, 2000u);
    }
    if (GetParam().secDed) {
        // DED: every double flip detected, none slipped through.
        EXPECT_EQ(detected, cases);
        EXPECT_EQ(miscorrected, 0u);
    } else {
        // Pure SEC Hamming has no Uncorrectable outcome at all, and a
        // *nonzero* share of doubles lands on another column and
        // silently corrupts data — the campaign's headline number.
        EXPECT_EQ(detected, 0u);
        EXPECT_GT(miscorrected, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, CodecExhaustive,
    ::testing::Values(
        ZooEntry{{EccCodecKind::Hsiao, 64, 0}, true},
        ZooEntry{{EccCodecKind::Hsiao, 64, 8}, true},
        ZooEntry{{EccCodecKind::Hsiao, 32, 0}, true},
        ZooEntry{{EccCodecKind::Hamming64_8, 64, 0}, false}),
    [](const ::testing::TestParamInfo<ZooEntry> &info) {
        std::string name = codecSpecName(info.param.spec);
        for (char &c : name)
            if (c == ':' || c == '/')
                c = '_';
        return name;
    });

} // namespace
} // namespace safemem
