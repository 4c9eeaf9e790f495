#include "mem/physical_memory.h"

#include <sys/mman.h>

#include "common/logging.h"
#include "ecc/edc.h"

namespace safemem {

template <typename T>
ZeroLane<T>::ZeroLane(std::size_t count) : count_(count)
{
    if (count == 0)
        return;
    // Private anonymous pages read as zero until first written, and
    // MAP_NORESERVE commits no swap for the untouched remainder.
    void *base = mmap(nullptr, count * sizeof(T), PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (base == MAP_FAILED)
        fatal("PhysicalMemory: cannot map a lane of ", count * sizeof(T),
              " bytes");
    cells_ = static_cast<T *>(base);
}

template <typename T>
ZeroLane<T>::~ZeroLane()
{
    if (cells_)
        munmap(cells_, count_ * sizeof(T));
}

template class ZeroLane<std::uint8_t>;
template class ZeroLane<std::uint64_t>;

namespace {

/** Validate the DIMM's parameters before any lane is mapped. */
std::size_t
checkedCapacity(std::size_t bytes, int check_bits,
                const ProtectionGeometry &geometry)
{
    if (bytes == 0 || !isAligned(bytes, kCacheLineSize))
        fatal("PhysicalMemory: capacity ", bytes,
              " is not a multiple of the line size");
    if (check_bits < 1 || check_bits > 8)
        fatal("PhysicalMemory: check lane of ", check_bits,
              " bits does not fit the DIMM's check byte");
    if (!geometry.isWord() && !validCodewordBytes(geometry.codewordBytes))
        fatal("PhysicalMemory: unsupported codeword size ",
              geometry.codewordBytes);
    return bytes;
}

} // namespace

PhysicalMemory::PhysicalMemory(std::size_t bytes, int check_bits,
                               ProtectionGeometry geometry)
    : bytes_(checkedCapacity(bytes, check_bits, geometry)),
      checkBits_(check_bits), geometry_(geometry),
      words_(bytes / kEccGroupSize), checks_(bytes / kEccGroupSize),
      edc_(geometry.isWord() ? 0 : bytes / kCacheLineSize),
      edcZero_(geometry.isWord() ? 0 : edcZeroLineFold(geometry.edc)),
      tags_(bytes / kCacheLineSize)
{
}

std::uint8_t
PhysicalMemory::newEncoderTag()
{
    return nextEncoder_ == kNoEncoder ? kNoEncoder : nextEncoder_++;
}

std::size_t
PhysicalMemory::wordIndex(PhysAddr addr) const
{
    if (!isAligned(addr, kEccGroupSize))
        panic("PhysicalMemory: unaligned word address ", addr);
    if (addr >= bytes_)
        panic("PhysicalMemory: address ", addr, " beyond capacity ", bytes_);
    return addr / kEccGroupSize;
}

std::uint64_t
PhysicalMemory::readWord(PhysAddr addr) const
{
    return words_[wordIndex(addr)];
}

void
PhysicalMemory::writeWord(PhysAddr addr, std::uint64_t value)
{
    words_[wordIndex(addr)] = value;
    clearTag(addr);
}

std::uint8_t
PhysicalMemory::readCheck(PhysAddr addr) const
{
    return checks_[wordIndex(addr)];
}

std::size_t
PhysicalMemory::firstWordIndex(PhysAddr line_addr) const
{
    if (!isAligned(line_addr, kCacheLineSize))
        panic("PhysicalMemory: unaligned line address ", line_addr);
    // The capacity is whole lines, so the first word's bounds check
    // covers the line.
    return wordIndex(line_addr);
}

void
PhysicalMemory::readLine(PhysAddr line_addr, LineWords &words,
                         std::uint8_t *checks) const
{
    std::size_t first = firstWordIndex(line_addr);
    for (std::size_t i = 0; i < kEccGroupsPerLine; ++i)
        words[i] = words_[first + i];
    if (checks) {
        for (std::size_t i = 0; i < kEccGroupsPerLine; ++i)
            checks[i] = checks_[first + i];
    }
}

void
PhysicalMemory::writeLine(PhysAddr line_addr, const LineWords &words)
{
    std::size_t first = firstWordIndex(line_addr);
    for (std::size_t i = 0; i < kEccGroupsPerLine; ++i)
        words_[first + i] = words[i];
    clearTag(line_addr);
}

void
PhysicalMemory::writeEncodedLine(PhysAddr line_addr, const LineWords &words,
                                 const std::uint8_t *checks,
                                 std::uint8_t encoder)
{
    std::size_t first = firstWordIndex(line_addr);
    for (std::size_t i = 0; i < kEccGroupsPerLine; ++i) {
        words_[first + i] = words[i];
        checks_[first + i] = checks[i];
    }
    tags_[first / kEccGroupsPerLine] = encoder;
}

bool
PhysicalMemory::encodedBy(PhysAddr line_addr, std::uint8_t encoder) const
{
    std::uint8_t tag = tags_[firstWordIndex(line_addr) / kEccGroupsPerLine];
    return tag == kZeroFilled || (tag == encoder && tag != kNoEncoder);
}

void
PhysicalMemory::writeCheck(PhysAddr addr, std::uint8_t check)
{
    checks_[wordIndex(addr)] = check;
    clearTag(addr);
}

void
PhysicalMemory::flipDataBit(PhysAddr addr, int bit)
{
    if (bit < 0 || bit > 63)
        panic("PhysicalMemory: bad data bit ", bit);
    words_[wordIndex(addr)] ^= 1ULL << bit;
    clearTag(addr);
}

void
PhysicalMemory::flipCheckBit(PhysAddr addr, int bit)
{
    if (bit < 0 || bit >= checkBits_)
        panic("PhysicalMemory: bad check bit ", bit);
    checks_[wordIndex(addr)] ^= static_cast<std::uint8_t>(1u << bit);
    clearTag(addr);
}

std::size_t
PhysicalMemory::lineIndex(PhysAddr addr) const
{
    if (edc_.empty())
        panic("PhysicalMemory: no EDC lane on a word-geometry DIMM");
    if (!isAligned(addr, kCacheLineSize))
        panic("PhysicalMemory: unaligned line address ", addr);
    if (addr >= bytes_)
        panic("PhysicalMemory: address ", addr, " beyond capacity ", bytes_);
    return addr / kCacheLineSize;
}

std::uint64_t
PhysicalMemory::readEdc(PhysAddr line_addr) const
{
    return edc_[lineIndex(line_addr)] ^ edcZero_;
}

void
PhysicalMemory::writeEdc(PhysAddr line_addr, std::uint64_t fold)
{
    edc_[lineIndex(line_addr)] = fold ^ edcZero_;
}

void
PhysicalMemory::flipEdcBit(PhysAddr line_addr, int bit)
{
    if (bit < 0 ||
        bit >= static_cast<int>(edcBitsPerLine(geometry_.edc)))
        panic("PhysicalMemory: bad EDC bit ", bit);
    edc_[lineIndex(line_addr)] ^= 1ULL << bit;
}

} // namespace safemem
