/**
 * @file
 * Validates Figure 2: the WatchMemory implementation — disable ECC,
 * flip 3 fixed bits of the watched line, flush, re-enable ECC — and the
 * resulting first-access fault, with a per-step simulated cost
 * breakdown.
 */

#include <cstdio>

#include "common/logging.h"
#include "ecc/codec.h"
#include "ecc/scramble.h"
#include "os/machine.h"

using namespace safemem;

namespace {

void
expect(bool condition, const char *what)
{
    std::printf("  [%s] %s\n", condition ? "ok" : "FAIL", what);
}

} // namespace

int
main()
{
    const Log quiet = Log::quiet();
    LogScope scope(quiet);
    Machine machine;
    Kernel &kernel = machine.kernel();
    const ScramblePattern &pattern = kernel.scramblePattern();

    std::printf("Figure 2: implementation of WatchMemory\n\n");
    std::printf("scramble signature: flip data bits %d, %d, %d "
                "(mask 0x%llx)\n\n",
                pattern.bits[0], pattern.bits[1], pattern.bits[2],
                static_cast<unsigned long long>(pattern.mask()));

    VirtAddr region = kernel.mapRegion(kPageSize);
    std::uint64_t original = 0xcafebabe12345678ULL;
    machine.store<std::uint64_t>(region, original);

    // Step sequence: disable ECC -> scramble data -> flush -> enable.
    Cycles before = machine.clock().now();
    kernel.watchMemory(region, kCacheLineSize);
    Cycles watch_cost = machine.clock().now() - before;

    PhysAddr frame = kernel.translate(region + kPageSize - 1) -
                     (kPageSize - 1);
    std::uint64_t in_memory = machine.controller().peekWord(frame);
    std::uint8_t stored_check =
        machine.physicalMemory().readCheck(frame);

    std::printf("after WatchMemory (simulated cost %.2f us):\n",
                cyclesToMicros(watch_cost));
    expect(in_memory == pattern.apply(original),
           "memory holds the scrambled data (3 bits flipped)");
    expect(stored_check == defaultCodec().encode(original),
           "stored ECC code still matches the *original* data");
    expect(!machine.cache().contains(frame),
           "line flushed from the cache");
    expect(defaultCodec()
                   .decode(in_memory, stored_check)
                   .status == EccDecodeStatus::Uncorrectable,
           "mismatch decodes as an uncorrectable multi-bit fault");

    // First access: the ECC fault fires and is delivered to the
    // registered user handler, which clears the watch.
    int faults = 0;
    kernel.registerEccFaultHandler(
        [&](const UserEccFault &fault) {
            ++faults;
            kernel.disableWatchMemory(
                alignDown(fault.vaddr, kCacheLineSize), kCacheLineSize);
            return FaultDecision::Handled;
        });

    std::uint64_t read_back = machine.load<std::uint64_t>(region);
    std::printf("\nfirst access to the watched line:\n");
    expect(faults == 1, "exactly one ECC fault delivered");
    expect(read_back == original,
           "access restarted and returned the original data");
    expect(!kernel.isWatched(region), "watch removed by the handler");

    std::uint64_t again = machine.load<std::uint64_t>(region);
    expect(again == original && faults == 1,
           "subsequent accesses run fault-free");

    // Cost breakdown for Table 2 cross-checking.
    Machine m2;
    VirtAddr r2 = m2.kernel().mapRegion(kPageSize);
    Cycles t0 = m2.clock().now();
    m2.kernel().watchMemory(r2, kCacheLineSize);
    Cycles t1 = m2.clock().now();
    m2.kernel().disableWatchMemory(r2, kCacheLineSize);
    Cycles t2 = m2.clock().now();
    std::printf("\nsimulated syscall costs (1 line):\n");
    std::printf("  WatchMemory        %6.2f us\n",
                cyclesToMicros(t1 - t0));
    std::printf("  DisableWatchMemory %6.2f us\n",
                cyclesToMicros(t2 - t1));
    return 0;
}
