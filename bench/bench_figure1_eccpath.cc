/**
 * @file
 * Validates Figure 1: the read/write datapath of ECC memory.
 *
 * Figure 1 is an architecture diagram, not a measurement, so this bench
 * exercises and prints each depicted path on the simulated controller:
 * encode-on-write, check-on-read, transparent single-bit correction,
 * multi-bit interrupt delivery, Check-Only reporting, and scrubbing.
 */

#include <cstdio>

#include "common/logging.h"
#include "ecc/codec.h"
#include "mem/memory_controller.h"
#include "mem/physical_memory.h"

using namespace safemem;

namespace {

int g_interrupts = 0;
EccFaultInfo g_last_fault;

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
    CycleClock clock;
    PhysicalMemory memory(1 << 20);
    MemoryController controller(memory, clock);
    controller.setInterruptHandler([](const EccFaultInfo &info) {
        ++g_interrupts;
        g_last_fault = info;
    });

    std::printf("Figure 1: ECC memory read/write datapath\n\n");

    // (a) Write to ECC memory: the controller encodes a check byte.
    std::printf("(a) write path: data + generated ECC code stored\n");
    LineData line{};
    setLineWord(line, 0, 0x1122334455667788ULL);
    controller.evictLine(0, line);
    std::uint8_t stored_check = memory.readCheck(0);
    std::uint8_t expected_check =
        defaultCodec().encode(0x1122334455667788ULL);
    expect(stored_check == expected_check,
           "stored check byte equals encoder output");

    // (b) Read path: data re-encoded and compared; clean data passes.
    std::printf("(b) read path: clean line decodes without event\n");
    LineData out{};
    bool ok = controller.fillLine(0, out);
    expect(ok && lineWord(out, 0) == 0x1122334455667788ULL,
           "data returned unmodified, no interrupt");

    // (b) Single-bit error: corrected transparently on read.
    std::printf("(b) read path: single-bit error corrected on the fly\n");
    memory.flipDataBit(0, 17);
    ok = controller.fillLine(0, out);
    expect(ok && lineWord(out, 0) == 0x1122334455667788ULL,
           "flipped bit corrected during the fill");
    expect(controller.stats().get("single_bit_corrected") == 1,
           "controller counted one corrected single-bit error");
    expect(g_interrupts == 0, "no interrupt for a correctable error");

    // (b) Multi-bit error: detected, reported to the processor.
    std::printf("(b) read path: multi-bit error raises an interrupt\n");
    memory.flipDataBit(0, 3);
    memory.flipDataBit(0, 29);
    ok = controller.fillLine(0, out);
    expect(!ok, "fill reports failure");
    expect(g_interrupts == 1, "interrupt delivered to the handler");
    expect(g_last_fault.kind == EccFaultKind::MultiBit,
           "fault classified as multi-bit");

    // Repair for the next stage.
    controller.writeWordDeviceOp(0, 0x1122334455667788ULL);

    // Check-Only mode: detects and reports, never corrects.
    std::printf("(-) Check-Only mode: reported but not corrected\n");
    controller.setMode(EccMode::CheckOnly);
    memory.flipDataBit(0, 40);
    int before = g_interrupts;
    ok = controller.fillLine(0, out);
    expect(ok, "single-bit error does not fail the fill");
    expect(g_interrupts == before + 1, "but it is reported");
    expect(memory.readWord(0) != 0x1122334455667788ULL,
           "stored data left uncorrected");
    controller.setMode(EccMode::CorrectError);

    // Scrubbing: background pass heals the stored copy.
    std::printf("(-) Correct-and-Scrub: scrub pass heals memory\n");
    controller.setMode(EccMode::CorrectAndScrub);
    controller.scrubRange(0, 1);
    expect(memory.readWord(0) == 0x1122334455667788ULL,
           "scrubber rewrote the corrected word");

    std::printf("\ncontroller stats:\n");
    for (const auto &[name, value] : controller.stats().all())
        std::printf("  %-24s %10llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
    return 0;
}
