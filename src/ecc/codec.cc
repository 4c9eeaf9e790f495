/**
 * @file
 * The one linear-code engine behind every codec spec (see codec.h).
 */

#include "ecc/codec.h"

#include <algorithm>
#include <array>
#include <bit>
#include <string_view>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "ecc/parse_number.h"

namespace safemem {

namespace {

/** The H-matrix and decode policy one codec spec names. */
struct CodeShape
{
    std::string name;
    /** Syndrome column of each data bit; check bit j owns 1 << j. */
    std::vector<std::uint64_t> columns;
    int checkBits = 0;
    /** What a non-zero syndrome naming no codeword bit decodes to:
     *  Uncorrectable (SEC-DED), or a phantom correction that leaves
     *  the data alone (pure SEC). */
    bool secDed = true;
};

/**
 * A binary linear (d + k, d) code with d, k <= 64. Encoding is
 * byte-sliced: by linearity a word's check bits are the XOR of one
 * table entry per data byte. Decoding finds the syndrome's data bit in
 * one open-addressed table, the same structure for every k. Stateless
 * after construction; every method is const and thread-compatible.
 */
class LinearCode final : public EccCodec
{
  public:
    explicit LinearCode(CodeShape shape);

    const char *name() const override { return name_.c_str(); }
    int dataBits() const override { return dataBits_; }
    int checkBits() const override { return checkBits_; }
    std::uint64_t encode(std::uint64_t data) const override;
    EccDecodeResult decode(std::uint64_t data,
                           std::uint64_t check) const override;
    std::uint64_t column(int bit) const override { return columns_[bit]; }
    bool allClean(const std::uint64_t *data, const std::uint8_t *check,
                  std::size_t n) const override;

  private:
    /** 256 slots for at most 64 columns: a probe run stays short and
     *  always ends at an empty slot. */
    static constexpr int kSlotBits = 8;
    static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;

    /** @return the first slot probed for @p syndrome (Fibonacci
     *  hashing: the top bits of a golden-ratio product). */
    static std::size_t
    homeSlot(std::uint64_t syndrome)
    {
        return static_cast<std::size_t>(
            (syndrome * 0x9e3779b97f4a7c15ULL) >> (64 - kSlotBits));
    }

    /** @return the data bit whose column is @p syndrome, or -1. */
    int dataBitOf(std::uint64_t syndrome) const;

    std::string name_;
    int dataBits_;
    int checkBits_;
    std::uint64_t syndromeMask_;
    bool secDed_;
    /** Data columns, zero past dataBits_ so those bits encode to 0. */
    std::array<std::uint64_t, 64> columns_{};
    /** byteTables_[i][v]: the check bits of value v in data byte i. */
    std::array<std::array<std::uint64_t, 256>, 8> byteTables_{};
    /** Open-addressed syndrome -> data bit; -1 marks an empty slot. */
    std::array<std::int8_t, kSlots> slots_{};
};

LinearCode::LinearCode(CodeShape shape)
    : name_(std::move(shape.name)),
      dataBits_(static_cast<int>(shape.columns.size())),
      checkBits_(shape.checkBits),
      syndromeMask_(checkBits_ == 64 ? ~0ULL : (1ULL << checkBits_) - 1),
      secDed_(shape.secDed)
{
    std::copy(shape.columns.begin(), shape.columns.end(), columns_.begin());

    slots_.fill(-1);
    for (int bit = 0; bit < dataBits_; ++bit) {
        std::size_t slot = homeSlot(columns_[bit]);
        while (slots_[slot] >= 0)
            slot = (slot + 1) % kSlots;
        slots_[slot] = static_cast<std::int8_t>(bit);
    }

    // Each entry is a smaller one plus the column of its lowest set bit.
    for (int byte = 0; byte < 8; ++byte) {
        std::array<std::uint64_t, 256> &table = byteTables_[byte];
        for (unsigned value = 1; value < 256; ++value)
            table[value] = table[value & (value - 1)] ^
                           columns_[8 * byte + std::countr_zero(value)];
    }
}

int
LinearCode::dataBitOf(std::uint64_t syndrome) const
{
    for (std::size_t slot = homeSlot(syndrome);; slot = (slot + 1) % kSlots) {
        int bit = slots_[slot];
        if (bit < 0 || columns_[bit] == syndrome)
            return bit;
    }
}

std::uint64_t
LinearCode::encode(std::uint64_t data) const
{
    // Spelled out: GCC at -O2 leaves the byte loop rolled, with a
    // variable shift, on the path of every line fill and writeback.
    const auto &t = byteTables_;
    return t[0][data & 0xff] ^ t[1][(data >> 8) & 0xff] ^
           t[2][(data >> 16) & 0xff] ^ t[3][(data >> 24) & 0xff] ^
           t[4][(data >> 32) & 0xff] ^ t[5][(data >> 40) & 0xff] ^
           t[6][(data >> 48) & 0xff] ^ t[7][data >> 56];
}

EccDecodeResult
LinearCode::decode(std::uint64_t data, std::uint64_t check) const
{
    EccDecodeResult result;
    result.data = data;
    std::uint64_t syndrome = (encode(data) ^ check) & syndromeMask_;
    if (syndrome == 0)
        return result;

    if (int bit = dataBitOf(syndrome); bit >= 0) {
        result.status = EccDecodeStatus::CorrectedSingle;
        result.data ^= 1ULL << bit;
        result.correctedBit = bit;
    } else if (std::has_single_bit(syndrome)) {
        // A unit vector: the error hit a check bit; the data is fine.
        result.status = EccDecodeStatus::CorrectedSingle;
        result.correctedBit = dataBits_ + std::countr_zero(syndrome);
    } else {
        // No codeword bit has this syndrome. SEC-DED refuses to guess;
        // pure SEC "fixes" a shortened-away position that is stored
        // nowhere, so the data passes through and correctedBit stays -1.
        result.status = secDed_ ? EccDecodeStatus::Uncorrectable
                                : EccDecodeStatus::CorrectedSingle;
    }
    return result;
}

bool
LinearCode::allClean(const std::uint64_t *data, const std::uint8_t *check,
                     std::size_t n) const
{
    // Clean means every syndrome is zero, so one OR over the words
    // answers with a single branch.
    std::uint64_t syndromes = 0;
    for (std::size_t i = 0; i < n; ++i)
        syndromes |= encode(data[i]) ^ check[i];
    return (syndromes & syndromeMask_) == 0;
}

/** @return the next k-bit value with the same popcount as @p v
 *  (Gosper's hack), or 0 when @p v was the largest such value. */
std::uint64_t
nextSameWeight(std::uint64_t v, int k)
{
    std::uint64_t lowest = v & (~v + 1);
    std::uint64_t ripple = v + lowest;
    if (ripple == 0)
        return 0;
    std::uint64_t ones = ((v ^ ripple) >> 2) / lowest;
    std::uint64_t next = ripple | ones;
    if (k < 64 && next >= (1ULL << k))
        return 0;
    return next;
}

/**
 * Hsiao's recipe: distinct odd-weight (>= 3) k-bit columns in ascending
 * weight, then value. Two odd columns XOR to an even weight that is no
 * column and no unit vector, which makes every double error detectable.
 * @return up to @p data_bits columns, fewer when k bits run out.
 */
std::vector<std::uint64_t>
hsiaoColumns(std::size_t data_bits, int check_bits)
{
    std::vector<std::uint64_t> columns;
    for (int w = 3; w <= check_bits && columns.size() < data_bits; w += 2) {
        for (std::uint64_t v = (1ULL << w) - 1;
             v != 0 && columns.size() < data_bits;
             v = nextSameWeight(v, check_bits))
            columns.push_back(v);
    }
    return columns;
}

/**
 * Hamming's recipe over 8 check bits: the first 64 values of weight
 * >= 2. Admitting even weights is what lets a double error alias a
 * single one and miscorrect.
 */
std::vector<std::uint64_t>
hammingColumns()
{
    std::vector<std::uint64_t> columns;
    for (std::uint64_t v = 3; columns.size() < 64; ++v) {
        if (std::popcount(v) >= 2)
            columns.push_back(v);
    }
    return columns;
}

/** @return the code @p spec names, or nullopt when no code of its
 *  family fills its dimensions. */
std::optional<CodeShape>
shapeOf(const EccCodecSpec &spec)
{
    if (spec.kind == EccCodecKind::Hamming64_8)
        return CodeShape{"hamming-64-8", hammingColumns(), 8, false};

    const int d = spec.dataBits;
    if (d < 1 || d > 64 || spec.checkBits < 0 || spec.checkBits > 64)
        return std::nullopt;
    const std::size_t wanted = static_cast<std::size_t>(d);
    int k = spec.checkBits == 0 ? 3 : spec.checkBits;
    std::vector<std::uint64_t> columns = hsiaoColumns(wanted, k);
    // Auto-sizing grows k until d columns fit (k <= 8 for any d <= 64).
    while (spec.checkBits == 0 && columns.size() < wanted)
        columns = hsiaoColumns(wanted, ++k);
    if (columns.size() < wanted)
        return std::nullopt;
    return CodeShape{"hsiao-" + std::to_string(d + k) + "-" +
                         std::to_string(d),
                     std::move(columns), k, true};
}

} // namespace

bool
EccCodec::allClean(const std::uint64_t *data, const std::uint8_t *check,
                   std::size_t n) const
{
    for (std::size_t i = 0; i < n; ++i) {
        if (decode(data[i], check[i]).status != EccDecodeStatus::Ok)
            return false;
    }
    return true;
}

std::unique_ptr<EccCodec>
makeCodec(const EccCodecSpec &spec)
{
    std::optional<CodeShape> shape = shapeOf(spec);
    if (!shape)
        panic("makeCodec: no code has ", spec.dataBits, " data and ",
              spec.checkBits, " check bits");
    return std::make_unique<LinearCode>(std::move(*shape));
}

const EccCodec &
defaultCodec()
{
    static const LinearCode codec(*shapeOf(EccCodecSpec{}));
    return codec;
}

std::optional<EccCodecSpec>
parseCodecSpec(const std::string &name)
{
    EccCodecSpec spec;
    if (name == "hsiao" || name == "hsiao-72-64")
        return spec;
    if (name == "hamming64/8" || name == "hamming-64-8" ||
        name == "hamming") {
        spec.kind = EccCodecKind::Hamming64_8;
        return spec;
    }

    // "hsiao:<d>" or "hsiao:<d>/<k>".
    const std::string_view prefix = "hsiao:";
    if (!name.starts_with(prefix))
        return std::nullopt;
    std::string_view dims = std::string_view(name).substr(prefix.size());
    std::size_t slash = dims.find('/');
    std::optional<unsigned> data_bits =
        parseWholeNumber<unsigned>(dims.substr(0, slash));
    std::optional<unsigned> check_bits =
        slash == std::string_view::npos
            ? std::optional<unsigned>(0)
            : parseWholeNumber<unsigned>(dims.substr(slash + 1));
    if (!data_bits || !check_bits || *data_bits > 64 || *check_bits > 64)
        return std::nullopt;
    spec.dataBits = static_cast<int>(*data_bits);
    spec.checkBits = static_cast<int>(*check_bits);
    // Only dimensions a code fills, so makeCodec() never panics on a
    // parsed spec.
    if (!shapeOf(spec))
        return std::nullopt;
    return spec;
}

std::string
codecSpecName(const EccCodecSpec &spec)
{
    if (spec.kind == EccCodecKind::Hamming64_8)
        return "hamming64/8";
    if (spec == EccCodecSpec{})
        return "hsiao";
    std::string name = "hsiao:" + std::to_string(spec.dataBits);
    if (spec.checkBits != 0)
        name += "/" + std::to_string(spec.checkBits);
    return name;
}

} // namespace safemem
