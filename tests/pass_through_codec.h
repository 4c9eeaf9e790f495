/**
 * @file
 * A test codec that forwards every call to another codec. Tests derive
 * from it to count or bend single calls. It does not forward
 * allClean(), so that takes the base class's per-word decode() loop:
 * the path of any wrapper codec, such as a timing shim.
 */

#pragma once

#include <cstdint>

#include "ecc/codec.h"

namespace safemem {

class PassThroughCodec : public EccCodec
{
  public:
    explicit PassThroughCodec(const EccCodec &inner) : inner_(inner) {}

    const char *name() const override { return inner_.name(); }
    int dataBits() const override { return inner_.dataBits(); }
    int checkBits() const override { return inner_.checkBits(); }
    std::uint64_t encode(std::uint64_t data) const override
    {
        return inner_.encode(data);
    }
    EccDecodeResult decode(std::uint64_t data,
                           std::uint64_t check) const override
    {
        return inner_.decode(data, check);
    }
    std::uint64_t column(int bit) const override
    {
        return inner_.column(bit);
    }

  private:
    const EccCodec &inner_;
};

} // namespace safemem
