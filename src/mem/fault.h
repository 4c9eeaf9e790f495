/**
 * @file
 * ECC fault descriptors and controller mode definitions (paper §2.1).
 */

#pragma once

#include <cstdint>
#include <functional>

#include "common/types.h"

namespace safemem {

/**
 * The four operating modes of a commodity ECC memory controller.
 */
enum class EccMode : std::uint8_t
{
    Disabled,       ///< no ECC checking; writes leave check bits stale
    CheckOnly,      ///< detect and report, never correct
    CorrectError,   ///< detect all, correct single-bit errors
    CorrectAndScrub ///< CorrectError plus periodic background scrubbing
};

/** Reason a fault was raised. */
enum class EccFaultKind : std::uint8_t
{
    MultiBit,          ///< uncorrectable multi-bit mismatch on a read
    UnreportedSingle,  ///< single-bit error seen while in CheckOnly mode
    ScrubMultiBit      ///< uncorrectable mismatch found by the scrubber
};

/**
 * Descriptor delivered with an ECC interrupt.
 */
struct EccFaultInfo
{
    EccFaultKind kind = EccFaultKind::MultiBit;
    /** Physical address of the affected cache line. */
    PhysAddr lineAddr = 0;
    /** Index (0-7) of the faulting 64-bit word within the line. */
    int wordIndex = 0;
    /** Raw (possibly scrambled/corrupt) data of the faulting word. */
    std::uint64_t rawData = 0;
    /** Base of the ECC codeword the fault was decoded in (block
     *  geometries; 0 on the per-word SEC-DED default, whose codeword is
     *  the faulting word itself). */
    PhysAddr codewordAddr = 0;
};

/** Interrupt line from the controller into the kernel. */
using EccInterruptHandler = std::function<void(const EccFaultInfo &)>;

} // namespace safemem
