/**
 * @file
 * Tour of the ECC substrate itself: encode/decode words with the
 * (72,64) Hsiao code, inject hardware errors, watch the controller
 * correct and report, and perform the WatchMemory scramble by hand with
 * raw kernel/controller operations.
 *
 *   build/examples/ecc_playground
 */

#include <cstdio>

#include "common/logging.h"
#include "ecc/codec.h"
#include "ecc/scramble.h"
#include "os/machine.h"

using namespace safemem;

int
main()
{
    const EccCodec &code = defaultCodec();

    std::printf("== the (72,64) Hsiao SEC-DED code ==\n");
    std::uint64_t word = 0x123456789abcdef0ULL;
    std::uint8_t check = code.encode(word);
    std::printf("data 0x%016llx -> check byte 0x%02x\n",
                static_cast<unsigned long long>(word), check);

    EccDecodeResult r = code.decode(word ^ (1ULL << 13), check);
    std::printf("flip bit 13 : %s (corrected bit %d)\n",
                r.status == EccDecodeStatus::CorrectedSingle
                    ? "corrected" : "?",
                r.correctedBit);

    r = code.decode(word ^ 0x3, check);
    std::printf("flip 2 bits : %s\n",
                r.status == EccDecodeStatus::Uncorrectable
                    ? "uncorrectable (detected)" : "?");

    const ScramblePattern pattern = *findScramblePositions(code);
    r = code.decode(pattern.apply(word), check);
    std::printf("scramble (+bits %d,%d,%d): %s\n", pattern.bits[0],
                pattern.bits[1], pattern.bits[2],
                r.status == EccDecodeStatus::Uncorrectable
                    ? "uncorrectable (detected)" : "?");

    std::printf("\n== the controller under hardware errors ==\n");
    Machine machine;
    machine.kernel().setPanicOnHardwareError(false);
    VirtAddr buffer = machine.kernel().mapRegion(kPageSize);
    machine.store<std::uint64_t>(buffer, word);
    machine.cache().flushAll();

    PhysAddr frame = machine.kernel().translate(buffer + kPageSize - 1) -
                     (kPageSize - 1);
    machine.physicalMemory().flipDataBit(frame, 7);
    std::uint64_t readback = machine.load<std::uint64_t>(buffer);
    std::printf("single-bit soft error: read back 0x%016llx, "
                "%llu corrected so far\n",
                static_cast<unsigned long long>(readback),
                static_cast<unsigned long long>(
                    machine.controller().stats().get(
                        "single_bit_corrected")));

    std::printf("\n== WatchMemory by hand ==\n");
    machine.store<std::uint64_t>(buffer, 0x1111222233334444ULL);
    machine.kernel().watchMemory(buffer, kCacheLineSize);
    std::printf("memory now 0x%016llx (scrambled), check byte intact\n",
                static_cast<unsigned long long>(
                    machine.controller().peekLine(frame)[0]));

    machine.kernel().registerEccFaultHandler(
        [&](const UserEccFault &fault) {
            std::printf("fault! vaddr=0x%llx word=%d -> disabling "
                        "watch\n",
                        static_cast<unsigned long long>(fault.vaddr),
                        fault.wordIndex);
            machine.kernel().disableWatchMemory(
                alignDown(fault.vaddr, kCacheLineSize), kCacheLineSize);
            return FaultDecision::Handled;
        });

    std::uint64_t value = machine.load<std::uint64_t>(buffer);
    std::printf("first access returned 0x%016llx after the fault\n",
                static_cast<unsigned long long>(value));

    std::printf("\n== scrubbing ==\n");
    machine.kernel().enableScrubbing(1'000'000);
    machine.physicalMemory().flipDataBit(frame + 8, 3);
    machine.compute(2'000'000);
    machine.kernel().tick();
    std::printf("scrub pass done: %llu single-bit errors healed in "
                "total\n",
                static_cast<unsigned long long>(
                    machine.controller().stats().get(
                        "single_bit_corrected")));
    return 0;
}
