/**
 * @file
 * Tests for PhysicalMemory and the ECC MemoryController.
 */

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/costs.h"
#include "common/logging.h"
#include "ecc/codec.h"
#include "ecc/edc.h"
#include "ecc/geometry.h"
#include "ecc/scramble.h"
#include "mem/memory_controller.h"
#include "mem/physical_memory.h"

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
    LineData line{};
    for (std::size_t i = 0; i < kEccGroupsPerLine; ++i)
        setLineWord(line, i, 0x1111111111111111ULL * (i + 1));
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
    LineData line{};
    setLineWord(line, 3, 0xabcdefULL);
    controller.evictLine(256, line);

    LineData out{};
    EXPECT_TRUE(controller.fillLine(256, out));
    EXPECT_EQ(lineWord(out, 3), 0xabcdefULL);
    EXPECT_EQ(interrupts, 0);
}

TEST_F(ControllerTest, FillChargesDramLatency)
{
    LineData out{};
    Cycles before = clock.now();
    controller.fillLine(0, out);
    EXPECT_EQ(clock.now() - before, kDramLineCycles);
}

TEST_F(ControllerTest, SingleBitErrorCorrectedAndHealed)
{
    LineData line{};
    setLineWord(line, 0, 0x123456789abcdef0ULL);
    controller.evictLine(0, line);
    memory.flipDataBit(0, 42);

    LineData out{};
    EXPECT_TRUE(controller.fillLine(0, out));
    EXPECT_EQ(lineWord(out, 0), 0x123456789abcdef0ULL);
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
    LineData line{};
    setLineWord(line, 2, 0x0f0f0f0f0f0f0f0fULL);
    controller.evictLine(0, line);
    const PhysAddr addr = 2 * kEccGroupSize;
    const std::uint8_t good_check = memory.readCheck(addr);
    memory.flipCheckBit(addr, 6);

    LineData out{};
    EXPECT_TRUE(controller.fillLine(0, out));
    EXPECT_EQ(lineWord(out, 2), 0x0f0f0f0f0f0f0f0fULL);
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
    LineData line{};
    setLineWord(line, 0, 0xfeedULL);
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

    LineData out{};
    EXPECT_FALSE(controller.fillLine(64, out));
    EXPECT_EQ(interrupts, 1);
    EXPECT_EQ(lastFault.kind, EccFaultKind::MultiBit);
    EXPECT_EQ(lastFault.lineAddr, 64u);
    EXPECT_EQ(lastFault.wordIndex, 0);
}

TEST_F(ControllerTest, CheckOnlyModeReportsWithoutCorrecting)
{
    controller.setMode(EccMode::CheckOnly);
    LineData line{};
    setLineWord(line, 0, 0xffULL);
    controller.setMode(EccMode::CorrectError);
    controller.evictLine(0, line);
    controller.setMode(EccMode::CheckOnly);
    memory.flipDataBit(0, 0);

    LineData out{};
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
    LineData line{};
    setLineWord(line, 0, 0x1010ULL);
    controller.evictLine(0, line);
    std::uint8_t old_check = memory.readCheck(0);

    controller.setMode(EccMode::Disabled);
    LineWords words = controller.peekLine(0);
    words[0] = 0x2020ULL;
    controller.writeLineDeviceOp(0, words);
    EXPECT_EQ(memory.readCheck(0), old_check);

    // Reads with ECC disabled never check.
    LineData out{};
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
                LineData data;
                for (std::size_t i = 0; i < kEccGroupsPerLine; ++i)
                    setLineWord(data, i, words[i]);
                controller.evictLine(line, data);
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
    LineData line{};
    for (std::size_t i = 0; i < kEccGroupsPerLine; ++i)
        setLineWord(line, i, 0xa5a5a5a5a5a5a5a5ULL + i);
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
    LineData line{};
    setLineWord(line, 0, 0xaaaaULL);
    setLineWord(line, 1, 0xbbbbULL);
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
    LineData out{};
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
    LineData out{};
    EXPECT_THROW(controller.fillLine(12, out), PanicError);
}

TEST_F(ControllerTest, InterruptWithNoHandlerPanics)
{
    MemoryController bare(memory, clock);
    memory.flipDataBit(0, 1);
    memory.flipDataBit(0, 2);
    LineData out{};
    EXPECT_THROW(bare.fillLine(0, out), PanicError);
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
