#include "ecc/scramble.h"

namespace safemem {

namespace {

/**
 * True when @p syndrome would be treated as correctable by @p code's
 * decoder. Probed through decode() itself — a zero data word with
 * check bits encode(0) ^ syndrome presents exactly @p syndrome to the
 * decoder — so this classification can never drift from the decoder
 * the controller actually runs (the bug the old hand-rolled
 * unit-vector/column scan invited).
 */
bool
looksCorrectable(const EccCodec &code, std::uint64_t syndrome)
{
    EccDecodeResult probe = code.decode(0, code.encode(0) ^ syndrome);
    return probe.status != EccDecodeStatus::Uncorrectable;
}

} // namespace

std::optional<ScramblePattern>
findScramblePositions(const EccCodec &code)
{
    int data_bits = code.dataBits();
    for (int a = 0; a < data_bits; ++a) {
        for (int b = a + 1; b < data_bits; ++b) {
            for (int c = b + 1; c < data_bits; ++c) {
                std::uint64_t syndrome =
                    code.column(a) ^ code.column(b) ^ code.column(c);
                if (!looksCorrectable(code, syndrome))
                    return ScramblePattern{{a, b, c}};
            }
        }
    }
    return std::nullopt;
}

} // namespace safemem
