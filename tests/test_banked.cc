/**
 * @file
 * Tests for the banked memory system: page-interleave geometry,
 * per-bank locking and scrubbing, stat roll-up, home-bank frame
 * placement, trace payload decoding — and the two bit-identity
 * contracts (banks=1 equals the pre-bank machine byte for byte;
 * banked consolidated runs are deterministic at any worker count).
 */

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/logging.h"
#include "mem/memory_controller.h"
#include "mem/physical_memory.h"
#include "os/machine.h"
#include "tests/golden.h"
#include "trace/trace.h"
#include "workloads/cli.h"
#include "workloads/driver.h"

namespace safemem {
namespace {

class BankedControllerTest : public ::testing::Test
{
  protected:
    BankedControllerTest()
        : memory(64 * 1024),
          controller(memory, clock, nullptr, defaultCodec(), 4)
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

TEST_F(BankedControllerTest, PageInterleavePartitionsMemory)
{
    ASSERT_EQ(controller.numBanks(), 4u);
    for (PhysAddr page = 0; page < memory.size(); page += kPageSize) {
        unsigned bank = controller.bankOf(page);
        EXPECT_EQ(bank, (page / kPageSize) % 4);
        // Every line of the page lives wholly in the page's bank.
        for (PhysAddr line = page; line < page + kPageSize;
             line += kCacheLineSize)
            EXPECT_EQ(controller.bankOf(line), bank);
    }
}

TEST_F(BankedControllerTest, BankMaskForSpan)
{
    EXPECT_EQ(controller.bankMaskForSpan(0, 0), 0u);
    EXPECT_EQ(controller.bankMaskForSpan(0, kCacheLineSize), 1u << 0);
    EXPECT_EQ(controller.bankMaskForSpan(kPageSize, 8), 1u << 1);
    // A span across the page boundary touches both adjacent banks.
    EXPECT_EQ(controller.bankMaskForSpan(kPageSize - 8, 16),
              (1u << 0) | (1u << 1));
    // Four full pages: every bank once.
    EXPECT_EQ(controller.bankMaskForSpan(0, 4 * kPageSize), 0xfu);
    // Wrap-around: pages 3 and 4 are banks 3 and 0.
    EXPECT_EQ(controller.bankMaskForSpan(3 * kPageSize, 2 * kPageSize),
              (1u << 3) | (1u << 0));
}

TEST_F(BankedControllerTest, BankLocksAreIndependent)
{
    controller.lockBank(0);
    EXPECT_TRUE(controller.bankLocked(0));
    EXPECT_FALSE(controller.bankLocked(1));
    EXPECT_TRUE(controller.anyBankLocked());
    EXPECT_FALSE(controller.busLocked());

    // Traffic to the locked bank panics; other banks stay in service.
    LineData line{};
    EXPECT_THROW(controller.fillLine(0, line), PanicError);
    EXPECT_THROW(controller.evictLine(0, line), PanicError);
    EXPECT_THROW(controller.scrubBank(0), PanicError);
    EXPECT_TRUE(controller.fillLine(kPageSize, line));
    controller.evictLine(kPageSize, line);
    controller.scrubBank(1);

    controller.unlockBank(0);
    EXPECT_FALSE(controller.anyBankLocked());
    EXPECT_TRUE(controller.fillLine(0, line));
}

TEST_F(BankedControllerTest, DoubleBankLockPanics)
{
    controller.lockBank(2);
    EXPECT_THROW(controller.lockBank(2), PanicError);
    controller.unlockBank(2);
    EXPECT_THROW(controller.unlockBank(2), PanicError);
}

TEST_F(BankedControllerTest, LockBusLocksEveryBank)
{
    controller.lockBus();
    EXPECT_TRUE(controller.busLocked());
    for (unsigned b = 0; b < controller.numBanks(); ++b)
        EXPECT_TRUE(controller.bankLocked(b));
    controller.unlockBus();
    EXPECT_FALSE(controller.busLocked());
    EXPECT_FALSE(controller.anyBankLocked());
}

TEST_F(BankedControllerTest, BankSetLockGuardLocksExactlyTheMask)
{
    {
        BankSetLockGuard banks(controller, (1u << 1) | (1u << 3));
        EXPECT_TRUE(controller.bankLocked(1));
        EXPECT_TRUE(controller.bankLocked(3));
        EXPECT_FALSE(controller.bankLocked(0));
        EXPECT_FALSE(controller.bankLocked(2));
    }
    EXPECT_FALSE(controller.anyBankLocked());
}

TEST_F(BankedControllerTest, ScrubBankWalksOnlyItsPages)
{
    LineData line{};
    setLineWord(line, 0, 0xaaaaULL);
    controller.evictLine(0, line);              // bank 0
    controller.evictLine(kPageSize, line);      // bank 1
    memory.flipDataBit(0, 5);
    memory.flipDataBit(kPageSize, 7);

    controller.scrubBank(0);
    EXPECT_EQ(memory.readWord(0), 0xaaaaULL) << "bank 0 healed";
    EXPECT_NE(memory.readWord(kPageSize), 0xaaaaULL)
        << "bank 1 untouched by bank 0's pass";
    EXPECT_EQ(controller.bank(0).stats().get(ControllerStat::ScrubPasses),
              1u);
    EXPECT_EQ(controller.bank(1).stats().get(ControllerStat::ScrubPasses),
              0u);

    controller.scrubBank(1);
    EXPECT_EQ(memory.readWord(kPageSize), 0xaaaaULL);
}

TEST_F(BankedControllerTest, FaultInfoCarriesTheBank)
{
    LineData line{};
    setLineWord(line, 0, 0x5555ULL);
    controller.evictLine(2 * kPageSize, line); // bank 2
    memory.flipDataBit(2 * kPageSize, 1);
    memory.flipDataBit(2 * kPageSize, 3);
    LineData out{};
    EXPECT_FALSE(controller.fillLine(2 * kPageSize, out));
    EXPECT_EQ(interrupts, 1);
    EXPECT_EQ(lastFault.bank, 2u);
}

TEST_F(BankedControllerTest, PerBankStatsRollUpToMachineWide)
{
    LineData line{};
    for (PhysAddr page = 0; page < 8 * kPageSize; page += kPageSize) {
        controller.evictLine(page, line);
        LineData out{};
        controller.fillLine(page, out);
    }
    controller.scrubAll();
    controller.lockBank(1);
    controller.unlockBank(1);

    for (ControllerStat stat :
         {ControllerStat::BusLocks, ControllerStat::LineFills,
          ControllerStat::LineEvictions, ControllerStat::ScrubPasses}) {
        std::uint64_t sum = 0;
        for (unsigned b = 0; b < controller.numBanks(); ++b)
            sum += controller.bank(b).stats().get(stat);
        EXPECT_EQ(sum, controller.stats().get(stat));
    }
    // Two of the eight pages hit each bank.
    EXPECT_EQ(controller.bank(3).stats().get(ControllerStat::LineFills),
              2u);
}

TEST_F(BankedControllerTest, BankCountValidation)
{
    CycleClock c2;
    PhysicalMemory m2(64 * 1024);
    EXPECT_THROW(MemoryController(m2, c2, nullptr, defaultCodec(), 0),
                 PanicError);
    EXPECT_THROW(
        MemoryController(m2, c2, nullptr, defaultCodec(),
                         kMaxMemoryBanks + 1),
        PanicError);
    // 16 pages of DRAM cannot host 32 banks.
    EXPECT_THROW(MemoryController(m2, c2, nullptr, defaultCodec(), 32),
                 PanicError);
}

TEST(BankedMachine, HomeBankAffinityAndFootprint)
{
    MachineConfig config{8u << 20, CacheConfig{16, 2}, 64};
    config.banks = 4;
    Machine machine(config);
    Kernel &kernel = machine.kernel();
    Pid pid = kernel.currentPid();

    VirtAddr region = kernel.mapRegion(4 * kPageSize);
    (void)region;
    unsigned home = pid % 4;
    std::uint64_t footprint = kernel.bankFootprint(pid);
    EXPECT_NE(footprint & (std::uint64_t{1} << home), 0u)
        << "frames placed in the home bank first";
    std::uint32_t total = 0;
    for (unsigned b = 0; b < 4; ++b)
        total += kernel.currentProcess().bankFrameCount(b);
    EXPECT_GE(kernel.currentProcess().bankFrameCount(home), 4u);
    EXPECT_GE(total, 4u);
}

TEST(BankedMachine, TraceCarriesBankPayloads)
{
    if (!kTraceCompiledIn)
        GTEST_SKIP() << "emit sites compiled out";

    Trace trace(1u << 16);
    // Small DIMM: 1 MiB / 4 banks = 64 pages per bank, so a 80-page
    // region must overflow the boot process's home bank and spread
    // traffic across a bank boundary.
    MachineConfig config{1u << 20, CacheConfig{16, 2}, 64};
    config.banks = 4;
    config.trace = &trace;
    Machine machine(config);

    VirtAddr region = machine.kernel().mapRegion(80 * kPageSize);
    for (int i = 0; i < 80; ++i)
        machine.store<std::uint64_t>(region + i * kPageSize, i);
    machine.cache().flushAll();

    std::uint64_t fills = 0;
    std::uint64_t banked_fills = 0;
    for (const TraceRecord &rec : trace.records()) {
        if (rec.event == TraceEvent::ControllerFill ||
            rec.event == TraceEvent::ControllerEvict) {
            std::uint64_t line = rec.a;
            int word = traceEventBankPayload(rec.event);
            ASSERT_GE(word, 1);
            std::uint64_t bank = word == 1 ? rec.b : rec.c;
            EXPECT_EQ(bank, machine.controller().bankOf(line));
            ++fills;
            if (bank != 0)
                ++banked_fills;
        }
    }
    EXPECT_GT(fills, 0u) << "controller traffic was recorded";
    EXPECT_GT(banked_fills, 0u) << "traffic reached a non-zero bank";
}

TEST(BankedTrace, BankPayloadDecodingAndSummary)
{
    EXPECT_EQ(traceEventBankPayload(TraceEvent::ControllerBusLock), 0);
    EXPECT_EQ(traceEventBankPayload(TraceEvent::ControllerBusUnlock), 0);
    EXPECT_EQ(traceEventBankPayload(TraceEvent::KernelScrubTickBegin), 0);
    EXPECT_EQ(traceEventBankPayload(TraceEvent::KernelScrubTickEnd), 0);
    EXPECT_EQ(traceEventBankPayload(TraceEvent::ControllerEvict), 1);
    EXPECT_EQ(traceEventBankPayload(TraceEvent::ControllerFill), 2);
    EXPECT_EQ(traceEventBankPayload(TraceEvent::ControllerScrubBegin), 2);
    EXPECT_EQ(traceEventBankPayload(TraceEvent::ControllerScrubEnd), 2);
    EXPECT_EQ(traceEventBankPayload(TraceEvent::SchedContextSwitch), -1);

    TraceSection section;
    section.label = "t";
    section.emitted = 2;
    section.capacity = 16;
    section.records.push_back(
        TraceRecord{10, 0x1000, 0, 1, 0, TraceEvent::ControllerFill});
    section.records.push_back(
        TraceRecord{20, 3, 0, 0, 0, TraceEvent::KernelScrubTickBegin});
    std::string line0 = traceRecordJsonLine(section, 0);
    EXPECT_NE(line0.find("\"bank\":1"), std::string::npos);
    std::string summary = traceSectionSummaryJson(section);
    EXPECT_NE(summary.find("\"bank_events\":{\"1\":1,\"3\":1}"),
              std::string::npos);
}

TEST(BankedCli, BanksFlagParsesAndValidates)
{
    CliParse parse = parseCliArguments({"gzip", "--banks", "4"});
    ASSERT_TRUE(parse.options.has_value());
    EXPECT_EQ(parse.options->params.banks, 4u);

    EXPECT_FALSE(
        parseCliArguments({"gzip", "--banks", "0"}).options.has_value());
    EXPECT_FALSE(
        parseCliArguments({"gzip", "--banks", "65"}).options.has_value());
}

TEST(BankedGolden, SingleBankSweepBitIdenticalToPreBankMachine)
{
    // The whole paper sweep (every app under safemem, full counter
    // dump) must reproduce the pre-refactor output byte for byte at
    // banks=1 — tables 2-5 and figures 1-3 all read from these runs.
    CliParse parse =
        parseCliArguments({"all", "--stats", "--workers", "0"});
    ASSERT_TRUE(parse.options.has_value());
    EXPECT_EQ(runCli(*parse.options).report,
              readGolden("golden_prebank_sweep.txt"));
}

TEST(BankedGolden, SingleBankConsolidatedBitIdenticalToPreBankMachine)
{
    // Same contract for the consolidated runner: the BankGate replaced
    // the token gate, per-bank free lists replaced the flat one, and
    // none of it may move a single byte at banks=1.
    CliParse parse = parseCliArguments(
        {"all", "--stats", "--procs", "3", "--buggy", "--workers", "0"});
    ASSERT_TRUE(parse.options.has_value());
    EXPECT_EQ(runCli(*parse.options).report,
              readGolden("golden_prebank_procs3.txt"));
}

TEST(BankedConsolidated, DeterministicAcrossWorkersAtEveryBankCount)
{
    for (std::uint32_t banks : {1u, 4u, 8u}) {
        RunSpec spec;
        spec.app = "ypserv1";
        spec.tool = ToolKind::SafeMemBoth;
        spec.params = paperParams("ypserv1", true);
        spec.params.requests = 300;
        spec.params.banks = banks;
        spec.procs = 3;

        // Same spec, twice in a row: the banked hand-off path must stay
        // a pure function of the spec.
        RunResult serial = runConsolidated(spec);
        RunResult again = runConsolidated(spec);
        EXPECT_TRUE(serial == again) << "banks=" << banks;

        // And through the matrix at different worker counts.
        std::vector<RunSpec> specs{spec, spec};
        std::vector<MatrixCell> one = runMatrix(specs, 1);
        std::vector<MatrixCell> four = runMatrix(specs, 4);
        ASSERT_TRUE(one[0].ok() && four[0].ok()) << "banks=" << banks;
        EXPECT_TRUE(one[0].result == four[1].result)
            << "banks=" << banks;
        EXPECT_TRUE(one[0].result == serial) << "banks=" << banks;

        if (banks > 1) {
            // The gate classifies every scheduler-driven hand-off; with
            // home-bank frame affinity the three processes settle into
            // disjoint banks, so some hand-offs must classify disjoint.
            std::uint64_t classified =
                serial.stats.at("sched.bank_disjoint_handoffs") +
                serial.stats.at("sched.bank_gated_handoffs");
            EXPECT_GT(classified, 0u) << "banks=" << banks;
            EXPECT_GT(serial.stats.at("sched.bank_disjoint_handoffs"), 0u)
                << "banks=" << banks;
        } else {
            EXPECT_EQ(serial.stats.count("sched.bank_disjoint_handoffs"),
                      0u)
                << "banks=1 keeps the pre-bank stats key set";
        }
    }
}

} // namespace
} // namespace safemem
