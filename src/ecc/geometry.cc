#include "ecc/geometry.h"

#include "ecc/parse_number.h"

namespace safemem {

std::optional<ProtectionGeometry>
parseGeometry(const std::string &text)
{
    if (text == "word")
        return ProtectionGeometry{};

    const std::string prefix = "block:";
    if (text.rfind(prefix, 0) != 0)
        return std::nullopt;

    std::string body = text.substr(prefix.size());
    ProtectionGeometry geometry;
    std::string::size_type slash = body.find('/');
    if (slash != std::string::npos) {
        std::string kind = body.substr(slash + 1);
        body = body.substr(0, slash);
        if (kind == "parity")
            geometry.edc = EdcKind::Parity;
        else if (kind == "crc32")
            geometry.edc = EdcKind::Crc32;
        else
            return std::nullopt;
    }

    std::optional<std::uint32_t> bytes =
        parseWholeNumber<std::uint32_t>(body);
    if (!bytes || !validCodewordBytes(*bytes))
        return std::nullopt;
    geometry.codewordBytes = *bytes;
    return geometry;
}

std::string
geometryName(const ProtectionGeometry &geometry)
{
    if (geometry.isWord())
        return "word";
    std::string name = "block:" + std::to_string(geometry.codewordBytes);
    name += geometry.edc == EdcKind::Crc32 ? "/crc32" : "/parity";
    return name;
}

std::string
geometryLabel(const ProtectionGeometry &geometry)
{
    if (geometry.isWord())
        return "";
    std::string label = "block" + std::to_string(geometry.codewordBytes);
    if (geometry.edc == EdcKind::Crc32)
        label += "crc32";
    return label;
}

std::uint32_t
blockEccCheckBytes(std::uint32_t codeword_bytes)
{
    // Long SEC-DED over k = codeword_bytes * 8 data bits: the smallest r
    // with 2^r >= k + r + 1, plus one overall-parity bit for DED.
    std::uint64_t k = std::uint64_t{codeword_bytes} * 8;
    std::uint32_t r = 1;
    while ((std::uint64_t{1} << r) < k + r + 1)
        ++r;
    return (r + 1 + 7) / 8;
}

bool
validCodewordBytes(std::uint32_t codeword_bytes)
{
    if (codeword_bytes < 8 * kCacheLineSize || codeword_bytes > kPageSize)
        return false;
    return (codeword_bytes & (codeword_bytes - 1)) == 0;
}

} // namespace safemem
