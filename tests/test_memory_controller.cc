/**
 * @file
 * Tests for PhysicalMemory and the ECC MemoryController.
 */

#include <gtest/gtest.h>

#include "check/simcheck.h"
#include "common/clock.h"
#include "common/costs.h"
#include "common/logging.h"
#include "ecc/codec.h"
#include "ecc/edc.h"
#include "ecc/geometry.h"
#include "ecc/scramble.h"
#include "mem/memory_controller.h"
#include "mem/physical_memory.h"
#include "os/machine.h"
#include "tests/pass_through_codec.h"

namespace safemem {
namespace {

class ControllerTest : public ::testing::Test
{
  protected:
    ControllerTest() : memory(64 * 1024), controller(memory, clock)
    {
        controller.setInterruptHandler([this](const EccFaultInfo &info) {
            ++interrupts;
            lastFault = info;
        });
    }

    CycleClock clock;
    PhysicalMemory memory;
    MemoryController controller;
    int interrupts = 0;
    EccFaultInfo lastFault;
};

TEST_F(ControllerTest, EvictionEncodesEveryGroup)
{
    LineWords line{};
    for (std::size_t i = 0; i < kEccGroupsPerLine; ++i)
        line[i] = 0x1111111111111111ULL * (i + 1);
    controller.evictLine(128, line);

    const EccCodec &code = defaultCodec();
    for (std::size_t i = 0; i < kEccGroupsPerLine; ++i) {
        PhysAddr addr = 128 + i * kEccGroupSize;
        EXPECT_EQ(memory.readCheck(addr),
                  code.encode(memory.readWord(addr)));
    }
}

TEST_F(ControllerTest, FillReturnsWrittenData)
{
    LineWords line{};
    line[3] = 0xabcdefULL;
    controller.evictLine(256, line);

    LineWords out{};
    EXPECT_TRUE(controller.fillLine(256, out));
    EXPECT_EQ(out[3], 0xabcdefULL);
    EXPECT_EQ(interrupts, 0);
}

TEST_F(ControllerTest, FillChargesDramLatency)
{
    LineWords out{};
    Cycles before = clock.now();
    controller.fillLine(0, out);
    EXPECT_EQ(clock.now() - before, kDramLineCycles);
}

TEST_F(ControllerTest, SingleBitErrorCorrectedAndHealed)
{
    LineWords line{};
    line[0] = 0x123456789abcdef0ULL;
    controller.evictLine(0, line);
    memory.flipDataBit(0, 42);

    LineWords out{};
    EXPECT_TRUE(controller.fillLine(0, out));
    EXPECT_EQ(out[0], 0x123456789abcdef0ULL);
    EXPECT_EQ(interrupts, 0);
    EXPECT_EQ(controller.stats().get("single_bit_corrected"), 1u);
    // Healed in place: a second fill sees clean memory.
    EXPECT_EQ(memory.readWord(0), 0x123456789abcdef0ULL);
}

TEST_F(ControllerTest, CheckBitOnlyErrorCorrectsTransparently)
{
    // Satellite of the correctedBit contract audit: a flipped *check*
    // bit decodes as CorrectedSingle with correctedBit in [64, 72) and
    // must ride the exact same transparent-correction path as a data
    // bit — correct fill data, no interrupt, stat bumped, storage
    // healed — without anything downstream treating 64+ as a data
    // index.
    LineWords line{};
    line[2] = 0x0f0f0f0f0f0f0f0fULL;
    controller.evictLine(0, line);
    const PhysAddr addr = 2 * kEccGroupSize;
    const std::uint8_t good_check = memory.readCheck(addr);
    memory.flipCheckBit(addr, 6);

    LineWords out{};
    EXPECT_TRUE(controller.fillLine(0, out));
    EXPECT_EQ(out[2], 0x0f0f0f0f0f0f0f0fULL);
    EXPECT_EQ(interrupts, 0);
    EXPECT_EQ(controller.stats().get("single_bit_corrected"), 1u);
    // Healed in place: the stored check byte is rewritten, so a second
    // fill decodes clean.
    EXPECT_EQ(memory.readCheck(addr), good_check);
    EXPECT_EQ(memory.readWord(addr), 0x0f0f0f0f0f0f0f0fULL);
}

TEST_F(ControllerTest, CustomCodecDrivesTheDatapath)
{
    // A controller built over a non-default codec encodes and decodes
    // with it: the check bytes in storage follow the configured code.
    auto code = makeCodec({EccCodecKind::Hsiao, 64, 8});
    MemoryController custom(memory, clock, nullptr, *code);
    LineWords line{};
    line[0] = 0xfeedULL;
    custom.evictLine(128, line);
    EXPECT_EQ(memory.readCheck(128),
              static_cast<std::uint8_t>(code->encode(0xfeedULL)));
    EXPECT_EQ(&custom.code(), code.get());
}

TEST_F(ControllerTest, CodecGeometryIsValidatedAtConstruction)
{
    // The machine datapath stores one check byte per ECC group: a codec
    // needing more check bits than the DIMM provides (or a non-64-bit
    // data word) must be rejected up front, not corrupt silently.
    auto narrow = makeCodec({EccCodecKind::Hsiao, 16, 0});
    EXPECT_THROW(MemoryController(memory, clock, nullptr, *narrow),
                 PanicError);
    PhysicalMemory small_checks(4096, 4);
    auto full = makeCodec({EccCodecKind::Hsiao, 64, 8});
    EXPECT_THROW(MemoryController(small_checks, clock, nullptr, *full),
                 PanicError);
}

TEST_F(ControllerTest, MultiBitErrorRaisesInterruptAndFailsFill)
{
    memory.flipDataBit(64, 1);
    memory.flipDataBit(64, 2);

    LineWords out{};
    EXPECT_FALSE(controller.fillLine(64, out));
    EXPECT_EQ(interrupts, 1);
    EXPECT_EQ(lastFault.kind, EccFaultKind::MultiBit);
    EXPECT_EQ(lastFault.lineAddr, 64u);
    EXPECT_EQ(lastFault.wordIndex, 0);
}

TEST_F(ControllerTest, CheckOnlyModeReportsWithoutCorrecting)
{
    controller.setMode(EccMode::CheckOnly);
    LineWords line{};
    line[0] = 0xffULL;
    controller.setMode(EccMode::CorrectError);
    controller.evictLine(0, line);
    controller.setMode(EccMode::CheckOnly);
    memory.flipDataBit(0, 0);

    LineWords out{};
    EXPECT_TRUE(controller.fillLine(0, out));
    EXPECT_EQ(interrupts, 1);
    EXPECT_EQ(lastFault.kind, EccFaultKind::UnreportedSingle);
    EXPECT_EQ(memory.readWord(0), 0xfeULL) << "not corrected";

    // Correct-and-Scrub: a scrub pass heals what Check-Only left.
    controller.setMode(EccMode::CorrectAndScrub);
    controller.scrubRange(0, 1);
    EXPECT_EQ(memory.readWord(0), 0xffULL);
}

TEST_F(ControllerTest, DisabledModeSkipsChecksAndStalesChecks)
{
    // Writing a word with ECC disabled leaves the stored check byte
    // stale — the foundation of the WatchMemory scramble.
    LineWords line{};
    line[0] = 0x1010ULL;
    controller.evictLine(0, line);
    std::uint8_t old_check = memory.readCheck(0);

    controller.setMode(EccMode::Disabled);
    LineWords words = controller.peekLine(0);
    words[0] = 0x2020ULL;
    controller.writeLineDeviceOp(0, words);
    EXPECT_EQ(memory.readCheck(0), old_check);

    // Reads with ECC disabled never check.
    LineWords out{};
    EXPECT_TRUE(controller.fillLine(0, out));
    EXPECT_EQ(interrupts, 0);

    // Re-enabled, the stale code trips.
    controller.setMode(EccMode::CorrectError);
    EXPECT_FALSE(controller.fillLine(0, out));
    EXPECT_EQ(interrupts, 1);
}

TEST_F(ControllerTest, LineDeviceWriteFollowsThePerWordRuleInEveryMode)
{
    // Oracle, one word at a time: under Disabled the stored check byte
    // keeps its old value, in every other mode it is encode(word). The
    // kernel's device write and the cache's writeback store a line by
    // this one rule; only the writeback charges a DRAM line transfer.
    const EccCodec &code = defaultCodec();
    const EccMode modes[] = {EccMode::Disabled, EccMode::CheckOnly,
                             EccMode::CorrectError,
                             EccMode::CorrectAndScrub};
    for (bool evict : {false, true}) {
        for (EccMode mode : modes) {
            SCOPED_TRACE(::testing::Message()
                         << (evict ? "evictLine" : "writeLineDeviceOp")
                         << " in mode " << static_cast<int>(mode));
            const PhysAddr line = 512;
            std::uint8_t before[kEccGroupsPerLine];
            for (std::size_t i = 0; i < kEccGroupsPerLine; ++i) {
                before[i] = static_cast<std::uint8_t>(0x11 * (i + 1));
                memory.writeWord(line + i * kEccGroupSize, 0);
                memory.writeCheck(line + i * kEccGroupSize, before[i]);
            }

            LineWords words;
            for (std::size_t i = 0; i < kEccGroupsPerLine; ++i)
                words[i] = (0x0123456789abcdefULL * (i + 3)) ^
                           (1ULL << (i * 7));
            controller.setMode(mode);
            const Cycles t0 = clock.now();
            if (evict) {
                controller.evictLine(line, words);
                EXPECT_EQ(clock.now(), t0 + kDramLineCycles);
            } else {
                controller.writeLineDeviceOp(line, words);
                EXPECT_EQ(clock.now(), t0) << "device ops charge no cycles";
            }

            for (std::size_t i = 0; i < kEccGroupsPerLine; ++i) {
                const PhysAddr addr = line + i * kEccGroupSize;
                EXPECT_EQ(memory.readWord(addr), words[i]) << "word " << i;
                const std::uint8_t want =
                    mode == EccMode::Disabled
                        ? before[i]
                        : static_cast<std::uint8_t>(code.encode(words[i]));
                EXPECT_EQ(memory.readCheck(addr), want) << "word " << i;
            }
            // Only the addressed line moved.
            EXPECT_EQ(memory.readWord(line - kEccGroupSize), 0u);
            EXPECT_EQ(memory.readWord(line + kCacheLineSize), 0u);
        }
    }
    EXPECT_EQ(controller.stats().get(ControllerStat::LineEvictions), 4u);
    EXPECT_EQ(interrupts, 0);
}

TEST_F(ControllerTest, PeekLineReturnsAnInjectedFlipUncorrected)
{
    LineWords line{};
    for (std::size_t i = 0; i < kEccGroupsPerLine; ++i)
        line[i] = 0xa5a5a5a5a5a5a5a5ULL + i;
    controller.evictLine(192, line);
    memory.flipDataBit(192 + 5 * kEccGroupSize, 17);

    const LineWords words = controller.peekLine(192);
    for (std::size_t i = 0; i < kEccGroupsPerLine; ++i) {
        const std::uint64_t want =
            (0xa5a5a5a5a5a5a5a5ULL + i) ^ (i == 5 ? 1ULL << 17 : 0);
        EXPECT_EQ(words[i], want) << "word " << i;
    }
    // A peek neither decodes nor heals: the flip is still in DRAM and
    // nothing was counted or raised.
    EXPECT_EQ(memory.readWord(192 + 5 * kEccGroupSize),
              (0xa5a5a5a5a5a5a5a5ULL + 5) ^ (1ULL << 17));
    EXPECT_EQ(controller.stats().get("single_bit_corrected"), 0u);
    EXPECT_EQ(interrupts, 0);
    EXPECT_THROW(controller.peekLine(200), PanicError);
}

TEST_F(ControllerTest, ScrubCorrectsSinglesAndReportsMulti)
{
    LineWords line{};
    line[0] = 0xaaaaULL;
    line[1] = 0xbbbbULL;
    controller.evictLine(0, line);
    memory.flipDataBit(0, 5);       // single: will be healed
    memory.flipDataBit(8, 1);       // double on word 1: reported
    memory.flipDataBit(8, 2);

    controller.scrubRange(0, 1);
    EXPECT_EQ(memory.readWord(0), 0xaaaaULL);
    EXPECT_EQ(interrupts, 1);
    EXPECT_EQ(lastFault.kind, EccFaultKind::ScrubMultiBit);
}

TEST_F(ControllerTest, BusLockBlocksTransfersViaPanic)
{
    controller.lockBus();
    EXPECT_TRUE(controller.busLocked());
    LineWords out{};
    EXPECT_THROW(controller.fillLine(0, out), PanicError);
    EXPECT_THROW(controller.evictLine(0, out), PanicError);
    controller.unlockBus();
    EXPECT_TRUE(controller.fillLine(0, out));
}

TEST_F(ControllerTest, BusLockBlocksScrubViaPanic)
{
    // A scrub pass is bus traffic like any other: running one while the
    // bus is locked for a scramble would read half-scrambled lines.
    controller.lockBus();
    EXPECT_THROW(controller.scrubRange(0, 1), PanicError);
    controller.unlockBus();
    controller.scrubRange(0, 1);
}

TEST_F(ControllerTest, DoubleBusLockPanics)
{
    controller.lockBus();
    EXPECT_THROW(controller.lockBus(), PanicError);
    controller.unlockBus();
    EXPECT_THROW(controller.unlockBus(), PanicError);
}

TEST_F(ControllerTest, UnalignedFillPanics)
{
    LineWords out{};
    EXPECT_THROW(controller.fillLine(12, out), PanicError);
}

TEST_F(ControllerTest, InterruptWithNoHandlerPanics)
{
    MemoryController bare(memory, clock);
    memory.flipDataBit(0, 1);
    memory.flipDataBit(0, 2);
    LineWords out{};
    EXPECT_THROW(bare.fillLine(0, out), PanicError);
}

/** Counts decode() calls. allClean() runs the per-word decode loop, so
 *  a fill that checks a line counts at least one decode and a fill
 *  that skips the check counts none. */
class CountingCodec final : public PassThroughCodec
{
  public:
    using PassThroughCodec::PassThroughCodec;

    EccDecodeResult
    decode(std::uint64_t data, std::uint64_t check) const override
    {
        ++decodes;
        return PassThroughCodec::decode(data, check);
    }

    mutable std::uint64_t decodes = 0;
};

/**
 * A fill of a line the controller encoded skips the syndrome check;
 * every other store and every bit flip puts the check back. SimCheck
 * is off here, because its audit of a skipped check decodes the line
 * again and would hide the skip from the decode count.
 */
class EncodedLineTest : public ControllerTest
{
  protected:
    EncodedLineTest() : counted(memory, clock, nullptr, codec)
    {
        counted.setInterruptHandler([this](const EccFaultInfo &info) {
            ++interrupts;
            lastFault = info;
        });
        SimCheck::instance().setEnabled(false);
    }

    ~EncodedLineTest() override { SimCheck::instance().setEnabled(auditing); }

    const bool auditing = simCheckActive();

    static constexpr PhysAddr kLine = 4 * kCacheLineSize;

    static std::uint64_t
    wordValue(std::size_t i)
    {
        return 0x0123456789abcdefULL * (i + 3);
    }

    /** Store the test pattern through the counted controller. */
    void
    store()
    {
        LineWords line{};
        for (std::size_t i = 0; i < kEccGroupsPerLine; ++i)
            line[i] = wordValue(i);
        counted.evictLine(kLine, line);
    }

    /** Fill kLine through the counted controller. @return the decode
     *  calls the fill made. */
    std::uint64_t
    fill(bool expect_ok = true)
    {
        std::uint64_t before = codec.decodes;
        EXPECT_EQ(counted.fillLine(kLine, out), expect_ok);
        return codec.decodes - before;
    }

    CountingCodec codec{defaultCodec()};
    MemoryController counted;
    LineWords out{};
};

TEST_F(EncodedLineTest, OwnStoreAndZeroFillSkipTheCheck)
{
    EXPECT_EQ(fill(), 0u) << "zero-filled line";
    store();
    EXPECT_EQ(fill(), 0u) << "line this controller encoded";
    for (std::size_t i = 0; i < kEccGroupsPerLine; ++i)
        EXPECT_EQ(out[i], wordValue(i));
    EXPECT_EQ(interrupts, 0);
}

TEST_F(EncodedLineTest, WriteWordPutsTheCheckBack)
{
    store();
    memory.writeWord(kLine + 8, wordValue(1) ^ (1ULL << 9));
    EXPECT_GT(fill(), 0u);
    EXPECT_EQ(out[1], wordValue(1)) << "corrected";
    EXPECT_EQ(counted.stats().get("single_bit_corrected"), 1u);
    EXPECT_EQ(interrupts, 0);
}

TEST_F(EncodedLineTest, WriteCheckPutsTheCheckBack)
{
    store();
    memory.writeCheck(kLine + 16, memory.readCheck(kLine + 16) ^ 0x3);
    EXPECT_GT(fill(false), 0u);
    EXPECT_EQ(interrupts, 1);
    EXPECT_EQ(lastFault.kind, EccFaultKind::MultiBit);
    EXPECT_EQ(lastFault.wordIndex, 2);
}

TEST_F(EncodedLineTest, FlipDataBitPutsTheCheckBack)
{
    store();
    memory.flipDataBit(kLine + 24, 40);
    counted.setMode(EccMode::CheckOnly);
    EXPECT_GT(fill(), 0u);
    EXPECT_EQ(interrupts, 1);
    EXPECT_EQ(lastFault.kind, EccFaultKind::UnreportedSingle);
    EXPECT_EQ(out[3], wordValue(3) ^ (1ULL << 40))
        << "reported, not corrected";
}

TEST_F(EncodedLineTest, FlipCheckBitPutsTheCheckBack)
{
    store();
    const std::uint8_t good = memory.readCheck(kLine + 32);
    memory.flipCheckBit(kLine + 32, 5);
    EXPECT_GT(fill(), 0u);
    EXPECT_EQ(counted.stats().get("single_bit_corrected"), 1u);
    EXPECT_EQ(memory.readCheck(kLine + 32), good) << "healed";
    EXPECT_EQ(fill(), 8u) << "a healed line is checked until re-encoded";
}

TEST_F(EncodedLineTest, DisabledStorePutsTheCheckBack)
{
    store();
    counted.setMode(EccMode::Disabled);
    LineWords words = counted.peekLine(kLine);
    words[5] ^= 0x3;
    counted.writeLineDeviceOp(kLine, words);
    counted.setMode(EccMode::CorrectError);
    EXPECT_GT(fill(false), 0u);
    EXPECT_EQ(interrupts, 1);
    EXPECT_EQ(lastFault.wordIndex, 5);
}

TEST_F(EncodedLineTest, ControllersTrustOnlyTheirOwnEncodes)
{
    // Two controllers over one DIMM. The counted one wraps the very
    // code the plain one runs, so the plain one's line is clean under
    // it, yet it must check that line rather than skip.
    LineWords line{};
    line[0] = 0xfeedULL;
    controller.evictLine(kLine, line);
    EXPECT_EQ(fill(), kEccGroupsPerLine);
    EXPECT_EQ(out[0], 0xfeedULL);

    // A controller with a different code decodes the counted one's
    // check bytes and finds them wrong.
    auto other_code = makeCodec({EccCodecKind::Hamming64_8, 64, 8});
    CountingCodec other_counter(*other_code);
    MemoryController other(memory, clock, nullptr, other_counter);
    other.setInterruptHandler([this](const EccFaultInfo &) { ++interrupts; });
    store();
    ASSERT_NE(other_code->encode(wordValue(0)),
              defaultCodec().encode(wordValue(0)));
    LineWords other_out{};
    other.fillLine(kLine, other_out);
    EXPECT_GT(other_counter.decodes, 0u);
    EXPECT_GT(other.stats().get("single_bit_corrected") +
                  other.stats().get("multi_bit_detected"),
              0u);

    // And the other way round: the counted controller checks a line the
    // other encoded.
    other.evictLine(kLine, line);
    const std::uint64_t before = codec.decodes;
    counted.fillLine(kLine, out);
    EXPECT_GT(codec.decodes, before);
}

TEST(EncodedLine, KernelScramblePutsTheCheckBack)
{
    // WatchMemory flushes the dirty line, which encodes it, and then
    // scrambles it with ECC off: the next fill must check and raise.
    Machine machine;
    Kernel &kernel = machine.kernel();
    VirtAddr base = kernel.mapRegion(kPageSize);
    machine.store<std::uint64_t>(base, 0x1234ULL);
    int faults = 0;
    kernel.registerEccFaultHandler([&](const UserEccFault &fault) {
        ++faults;
        kernel.disableWatchMemory(alignDown(fault.vaddr, kCacheLineSize),
                                  kCacheLineSize);
        return FaultDecision::Handled;
    });
    kernel.watchMemory(base, kCacheLineSize);
    EXPECT_EQ(machine.load<std::uint64_t>(base), 0x1234ULL);
    EXPECT_EQ(faults, 1);
}

TEST(PhysicalMemory, RejectsUnalignedCapacity)
{
    EXPECT_THROW(PhysicalMemory(100), FatalError);
    EXPECT_THROW(PhysicalMemory(0), FatalError);
}

TEST(PhysicalMemory, UnmappableCapacityIsFatal)
{
    EXPECT_THROW(PhysicalMemory(std::size_t{1} << 62), FatalError);
}

TEST(PhysicalMemory, WordRoundTrip)
{
    PhysicalMemory memory(4096);
    memory.writeWord(64, 0x1234ULL);
    EXPECT_EQ(memory.readWord(64), 0x1234ULL);
}

TEST(PhysicalMemory, OutOfRangePanics)
{
    PhysicalMemory memory(4096);
    EXPECT_THROW(memory.readWord(4096), PanicError);
    EXPECT_THROW(memory.readWord(1), PanicError);
    EXPECT_THROW(memory.flipDataBit(0, 64), PanicError);
    EXPECT_THROW(memory.flipCheckBit(0, 8), PanicError);
}

TEST(PhysicalMemory, FreshMemoryDecodesClean)
{
    // All-zero data carries an all-zero check byte by construction.
    PhysicalMemory memory(4096);
    const EccCodec &code = defaultCodec();
    EccDecodeResult result =
        code.decode(memory.readWord(0), memory.readCheck(0));
    EXPECT_EQ(result.status, EccDecodeStatus::Ok);
}

TEST(PhysicalMemory, ZeroFilledEdcLaneFoldsTheZeroLine)
{
    // The EDC lane is stored relative to the all-zero line's fold (which
    // is nonzero for CRC-32), so untouched storage is consistent with
    // untouched data, and the XOR is invisible through the accessors.
    for (const char *spec : {"block:512/crc32", "block:512/parity"}) {
        SCOPED_TRACE(spec);
        std::optional<ProtectionGeometry> geometry = parseGeometry(spec);
        ASSERT_TRUE(geometry.has_value());
        PhysicalMemory memory(64 * 1024, 8, *geometry);
        CycleClock clock;
        MemoryController controller(memory, clock, nullptr, defaultCodec(),
                                    *geometry);
        const PhysAddr line = 5 * kCacheLineSize;
        EXPECT_EQ(memory.readEdc(line), edcZeroLineFold(geometry->edc));
        EXPECT_TRUE(controller.edcConsistent(line));

        for (std::uint64_t fold : {std::uint64_t{0}, std::uint64_t{0xa5}}) {
            memory.writeEdc(line, fold);
            EXPECT_EQ(memory.readEdc(line), fold);
        }
        for (int bit = 0;
             bit < static_cast<int>(edcBitsPerLine(geometry->edc)); ++bit) {
            std::uint64_t before = memory.readEdc(line);
            memory.flipEdcBit(line, bit);
            EXPECT_EQ(memory.readEdc(line) ^ before, 1ULL << bit) << bit;
        }
    }
}

} // namespace
} // namespace safemem
