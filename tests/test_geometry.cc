/**
 * @file
 * Tests for the protection-geometry abstraction: spec parsing, the
 * large-codeword EDC fast path / ECC decode-on-failure split in the
 * memory controller, writeback RMW accounting, watches and scrubbing
 * at codeword granularity, and the word-default's stat-silence
 * contract (no "geometry.*" keys on pre-geometry machines).
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "common/types.h"
#include "ecc/edc.h"
#include "ecc/geometry.h"
#include "os/machine.h"
#include "safemem/watch_manager.h"
#include "trace/trace.h"
#include "workloads/driver.h"

namespace safemem {
namespace {

ProtectionGeometry
blockGeometry(const char *spec)
{
    auto parsed = parseGeometry(spec);
    EXPECT_TRUE(parsed.has_value()) << spec;
    return *parsed;
}

TEST(GeometryTest, ParseAndNameRoundTrip)
{
    for (const char *spec :
         {"word", "block:512", "block:1024", "block:4096", "block:512/parity",
          "block:1024/crc32", "block:4096/crc32"}) {
        auto parsed = parseGeometry(spec);
        ASSERT_TRUE(parsed.has_value()) << spec;
        // The canonical name re-parses to the same geometry.
        auto again = parseGeometry(geometryName(*parsed));
        ASSERT_TRUE(again.has_value()) << spec;
        EXPECT_EQ(*again, *parsed) << spec;
    }
    EXPECT_TRUE(parseGeometry("word")->isWord());
    EXPECT_EQ(parseGeometry("block:512")->codewordBytes, 512u);
    EXPECT_EQ(parseGeometry("block:1024/crc32")->edc, EdcKind::Crc32);
    EXPECT_EQ(parseGeometry("block:4096")->edc, EdcKind::Parity);
    // The word default reports no label; block geometries do.
    EXPECT_EQ(geometryLabel(ProtectionGeometry{}), "");
    EXPECT_EQ(geometryLabel(blockGeometry("block:512")), "block512");
    EXPECT_EQ(geometryLabel(blockGeometry("block:1024/crc32")),
              "block1024crc32");
}

TEST(GeometryTest, ParseRejectsInvalidSpecs)
{
    for (const char *spec :
         {"", "words", "block", "block:", "block:0", "block:256",
          "block:8192", "block:1000", "block:512/", "block:512/md5",
          "block:512 ", "Word",
          // Out of uint32_t range: 4096 + 2^32 once wrapped to 4096.
          "block:4294971392", "block: 512", "block:+512", "block:-512",
          "block:512abc", "block:0x200", "block:/parity"}) {
        EXPECT_FALSE(parseGeometry(spec).has_value()) << spec;
    }
}

TEST(GeometryTest, BlockEccCheckBytesGrowSlowerThanCodewords)
{
    // A single SEC-DED code over the whole codeword: check-bit count is
    // logarithmic, so redundancy amortizes as codewords grow.
    EXPECT_EQ(blockEccCheckBytes(512), 2u);
    EXPECT_EQ(blockEccCheckBytes(1024), 2u);
    EXPECT_EQ(blockEccCheckBytes(4096), 3u);
}

TEST(GeometryTest, WordMachineHasNoEdcLaneAndNoGeometryStats)
{
    Machine machine(MachineConfig{4u << 20, CacheConfig{16, 2}, 64});
    EXPECT_FALSE(machine.physicalMemory().hasEdcLane());
    VirtAddr buffer = machine.kernel().mapRegion(kPageSize);
    machine.store<std::uint64_t>(buffer, 0x1234);
    machine.cache().flushAll();
    EXPECT_EQ(machine.load<std::uint64_t>(buffer), 0x1234u);
    // No block-geometry slot ever moves on the per-word datapath.
    EXPECT_TRUE(machine.controller().geometryStats().all().empty());
}

TEST(GeometryTest, WordRunResultCarriesNoGeometryKeys)
{
    // The driver merges "geometry.*" only under a block geometry, so
    // pre-geometry stat snapshots stay byte-identical.
    RunParams params;
    params.requests = 8;
    RunResult result = runWorkload("stream", ToolKind::None, params);
    EXPECT_TRUE(result.geometry.isWord());
    for (const auto &[name, value] : result.stats)
        EXPECT_EQ(name.rfind("geometry.", 0), std::string::npos) << name;
}

TEST(GeometryTest, StreamAppIsReachableButOutOfPaperSweeps)
{
    EXPECT_NE(makeApp("stream"), nullptr);
    for (const std::string &name : appNames())
        EXPECT_NE(name, "stream");
}

TEST(GeometryTest, BlockRunReportsGeometryStats)
{
    RunParams params;
    params.requests = 8;
    params.geometry = blockGeometry("block:512");
    RunResult result = runWorkload("stream", ToolKind::None, params);
    EXPECT_FALSE(result.geometry.isWord());
    EXPECT_GT(result.stats.at("geometry.edc_checks_passed"), 0u);
    EXPECT_GT(result.stats.at("geometry.data_bytes_read"), 0u);
    EXPECT_GT(result.stats.at("geometry.redundancy_bytes_written"), 0u);
}

TEST(GeometryTest, ScrambleDeltaIsVisibleToEveryFold)
{
    // The kernel boot-checks this; keep the unit-level fact pinned too:
    // a 3-bit scramble signature must perturb both EDC folds, or
    // WatchMemory's staleness trick would silently stop faulting.
    ScramblePattern pattern;
    EXPECT_NE(edcScrambleFoldDelta(EdcKind::Parity, pattern.mask()), 0u);
    EXPECT_NE(edcScrambleFoldDelta(EdcKind::Crc32, pattern.mask()), 0u);
}

TEST(GeometryTest, EdcMissTriggersBlockDecodeAndHeals)
{
    MachineConfig config{4u << 20, CacheConfig{16, 2}, 64};
    config.geometry = blockGeometry("block:512");
    Machine machine(config);
    ASSERT_TRUE(machine.physicalMemory().hasEdcLane());
    VirtAddr buffer = machine.kernel().mapRegion(kPageSize);
    machine.store<std::uint64_t>(buffer + 8, 0x5eedf00du);
    machine.cache().flushAll();
    PhysAddr pline = *machine.kernel().peekTranslate(buffer);

    machine.physicalMemory().flipDataBit(pline + 8, 5);
    EXPECT_FALSE(machine.controller().edcConsistent(pline));

    const StatSet &geom = machine.controller().geometryStats();
    std::uint64_t misses = geom.get(GeometryStat::EdcChecksFailed);
    std::uint64_t decodes = geom.get(GeometryStat::BlockDecodes);
    // The fill misses EDC, decodes the whole codeword, and the SEC-DED
    // layer heals the single flipped bit in place.
    EXPECT_EQ(machine.load<std::uint64_t>(buffer + 8), 0x5eedf00du);
    EXPECT_EQ(geom.get(GeometryStat::EdcChecksFailed), misses + 1);
    EXPECT_EQ(geom.get(GeometryStat::BlockDecodes), decodes + 1);
    EXPECT_EQ(geom.get(GeometryStat::BlockDecodeWords),
              (decodes + 1) * (512 / kEccGroupSize));
    EXPECT_GT(machine.controller().stats().get(
                  ControllerStat::SingleBitCorrected), 0u);
    EXPECT_TRUE(machine.controller().edcConsistent(pline));
}

TEST(GeometryTest, StaleEdcFoldIsDetectedAndRefreshed)
{
    MachineConfig config{4u << 20, CacheConfig{16, 2}, 64};
    config.geometry = blockGeometry("block:1024/crc32");
    Machine machine(config);
    VirtAddr buffer = machine.kernel().mapRegion(kPageSize);
    machine.store<std::uint64_t>(buffer, 0xabcdu);
    machine.cache().flushAll();
    PhysAddr pline = *machine.kernel().peekTranslate(buffer);

    // Corrupt the redundancy lane, not the data: the decode finds the
    // codeword clean and rewrites the stale fold so the next fill takes
    // the fast path again.
    machine.physicalMemory().flipEdcBit(pline, 3);
    EXPECT_FALSE(machine.controller().edcConsistent(pline));
    const StatSet &geom = machine.controller().geometryStats();
    std::uint64_t refreshes = geom.get(GeometryStat::EdcRefreshes);
    EXPECT_EQ(machine.load<std::uint64_t>(buffer), 0xabcdu);
    EXPECT_GT(geom.get(GeometryStat::EdcRefreshes), refreshes);
    EXPECT_TRUE(machine.controller().edcConsistent(pline));

    machine.cache().flushAll();
    std::uint64_t passes = geom.get(GeometryStat::EdcChecksPassed);
    EXPECT_EQ(machine.load<std::uint64_t>(buffer), 0xabcdu);
    EXPECT_GT(geom.get(GeometryStat::EdcChecksPassed), passes);
}

TEST(GeometryTest, SequentialWritebacksAmortizeRmwCost)
{
    MachineConfig config{4u << 20, CacheConfig{16, 2}, 64};
    config.geometry = blockGeometry("block:512");
    Machine machine(config);
    // Four pages of sequential stores: the 16x2 cache spills lines in
    // stream order, so most demand writebacks land in the codeword
    // their bank already holds open. (flushAll's set-order tail
    // interleaves codewords and pays the RMW — also by design.)
    VirtAddr buffer = machine.kernel().mapRegion(4 * kPageSize);
    for (std::size_t off = 0; off < 4 * kPageSize; off += 8)
        machine.store<std::uint64_t>(buffer + off, off * 0x9e37u);
    machine.cache().flushAll();

    const StatSet &geom = machine.controller().geometryStats();
    std::uint64_t rmws = geom.get(GeometryStat::PartialWriteRmws);
    std::uint64_t hits = geom.get(GeometryStat::OpenCodewordHits);
    std::uint64_t evictions =
        geom.get(GeometryStat::DataBytesWritten) / kCacheLineSize;
    // Every writeback either reopened a codeword (full RMW) or folded
    // into the open one; a sequential stream mostly folds.
    EXPECT_EQ(rmws + hits, evictions);
    EXPECT_GE(rmws, 4 * kPageSize / 512);
    EXPECT_GT(hits, rmws);
}

TEST(GeometryTest, WatchStraddlingCodewordBoundaryFires)
{
    MachineConfig config{4u << 20, CacheConfig{16, 2}, 64};
    config.geometry = blockGeometry("block:512");
    Machine machine(config);
    Kernel &kernel = machine.kernel();
    VirtAddr buffer = kernel.mapRegion(kPageSize);
    // Pages are codeword-aligned (codewords never span pages), so
    // buffer + 512 is a codeword boundary; the watch covers the last
    // line of one codeword and the first line of the next.
    VirtAddr cross = buffer + 512;
    machine.store<std::uint64_t>(cross - kCacheLineSize, 0xaaaau);
    machine.store<std::uint64_t>(cross, 0xbbbbu);
    machine.cache().flushAll();

    int faults = 0;
    kernel.registerEccFaultHandler([&](const UserEccFault &fault) {
        ++faults;
        kernel.disableWatchMemory(alignDown(fault.vaddr, kCacheLineSize),
                                  kCacheLineSize);
        return FaultDecision::Handled;
    });
    // One watch per line (not one spanning call): the handler above
    // clears line-sized watches, and pin counts must stay balanced.
    kernel.watchMemory(cross - kCacheLineSize, kCacheLineSize);
    kernel.watchMemory(cross, kCacheLineSize);

    // Each side faults through its own codeword's decode path, and the
    // restarted accesses see the original data.
    EXPECT_EQ(machine.load<std::uint64_t>(cross - kCacheLineSize), 0xaaaau);
    EXPECT_EQ(machine.load<std::uint64_t>(cross), 0xbbbbu);
    EXPECT_EQ(faults, 2);
    const StatSet &geom = machine.controller().geometryStats();
    EXPECT_GE(geom.get(GeometryStat::EdcChecksFailed), 2u);
    EXPECT_GE(geom.get(GeometryStat::BlockDecodes), 2u);
}

TEST(GeometryTest, ScrubParksAndRestoresWatchesAtEachGeometry)
{
    for (const char *spec :
         {"word", "block:512", "block:1024", "block:4096"}) {
        SCOPED_TRACE(spec);
        MachineConfig config{4u << 20, CacheConfig{16, 2}, 64};
        config.geometry = *parseGeometry(spec);
        Machine machine(config);
        machine.kernel().setPanicOnHardwareError(false);
        Kernel &kernel = machine.kernel();
        EccWatchManager manager(machine);
        manager.installFaultHandler();
        manager.installScrubHooks();

        VirtAddr buffer = kernel.mapRegion(kPageSize);
        machine.store<std::uint64_t>(buffer, 0xfeedu);
        machine.cache().flushAll();
        manager.watch(buffer, kCacheLineSize, WatchKind::FreedBuffer, 7);

        // Scrub ticks ride the access path (MachineConfig::tickInterval
        // accesses per tick), so the idle loop must actually touch
        // memory — scratch traffic away from the watched line.
        VirtAddr scratch = kernel.mapRegion(kPageSize);
        kernel.enableScrubbing(2'000);
        for (int i = 0; i < 2'000; ++i) {
            machine.store<std::uint64_t>(
                scratch + static_cast<std::size_t>(i % 64) * kCacheLineSize,
                static_cast<std::uint64_t>(i));
            machine.compute(100);
        }
        kernel.disableScrubbing();

        // The scrubber met the watch (parked, scrubbed, restored) and
        // the region survived, still armed, with its data intact.
        EXPECT_GT(machine.controller().stats().get(
                      ControllerStat::ScrubPasses), 0u);
        EXPECT_GT(manager.stats().get(WatchStat::ScrubUnwatchPasses), 0u);
        EXPECT_TRUE(manager.isWatched(buffer));
        manager.unwatch(buffer);
        EXPECT_EQ(machine.load<std::uint64_t>(buffer), 0xfeedu);
    }
}

/**
 * The satellite race: seeded streaming traffic and seeded single-bit
 * fault injection against the per-bank scrubber on a banked block:512
 * machine, with a guard watch straddling a codeword boundary riding
 * along. Returns the machine-wide stat snapshot for the determinism
 * check.
 */
std::map<std::string, std::uint64_t>
runStreamingScrubRace(Trace &trace)
{
    MachineConfig config{8u << 20, CacheConfig{32, 4}, 64};
    config.banks = 4;
    config.trace = &trace;
    config.geometry = *parseGeometry("block:512");
    Machine machine(config);
    machine.kernel().setPanicOnHardwareError(false);
    Kernel &kernel = machine.kernel();
    EccWatchManager manager(machine);
    manager.installFaultHandler();
    manager.installScrubHooks();

    VirtAddr guard = kernel.mapRegion(kPageSize);
    machine.store<std::uint64_t>(guard + 512 - kCacheLineSize, 0xdeadu);
    machine.cache().flushAll();
    manager.watch(guard + 512 - kCacheLineSize, 2 * kCacheLineSize,
                  WatchKind::GuardRear, 3);

    constexpr std::size_t kStreamBytes = 8 * kPageSize;
    VirtAddr buffer = kernel.mapRegion(kStreamBytes);
    Rng rng(4242);
    kernel.enableScrubbing(10'000);
    for (int round = 0; round < 400; ++round) {
        VirtAddr chunk = buffer + (round % 32) * 1024;
        for (std::size_t off = 0; off < 1024; off += 8)
            machine.store<std::uint64_t>(chunk + off, rng.next());
        for (std::size_t off = 0; off < 1024; off += kCacheLineSize)
            machine.load<std::uint64_t>(chunk + off);
        machine.compute(250);
        if (round % 16 == 7) {
            // Inject a correctable flip into the chunk the stream will
            // rewrite next round: its demand fill and the scrubber race
            // to find the flip first, so both decode paths move.
            machine.cache().flushAll();
            VirtAddr vline = buffer + ((round + 1) % 32) * 1024 +
                             rng.range(0, 1024 / kCacheLineSize - 1) *
                                 kCacheLineSize;
            PhysAddr pline = *kernel.peekTranslate(vline);
            machine.physicalMemory().flipDataBit(
                pline + rng.range(0, kEccGroupsPerLine - 1) * kEccGroupSize,
                static_cast<int>(rng.range(0, 63)));
        }
    }
    kernel.disableScrubbing();
    EXPECT_TRUE(manager.isWatched(guard + 512 - kCacheLineSize));
    manager.unwatch(guard + 512 - kCacheLineSize);
    EXPECT_EQ(machine.load<std::uint64_t>(guard + 512 - kCacheLineSize),
              0xdeadu);

    std::map<std::string, std::uint64_t> snapshot =
        machine.controller().geometryStats().all();
    for (const auto &[name, value] : machine.controller().stats().all())
        snapshot["controller." + name] = value;
    return snapshot;
}

TEST(GeometryTest, StreamingRacesPerBankScrubUnderBlock512)
{
    if (!kTraceCompiledIn)
        GTEST_SKIP() << "needs compiled-in trace emit sites";

    Trace trace(1u << 18);
    std::map<std::string, std::uint64_t> first =
        runStreamingScrubRace(trace);

    // Replay the flight recorder: every park window the per-bank
    // scrubber opened on the guard watch closed again, and the block
    // datapath actually worked (decodes and RMWs under traffic).
    ASSERT_EQ(trace.dropped(), 0u);
    std::uint64_t parks = 0, restores = 0, decodes = 0, rmws = 0;
    for (const TraceRecord &record : trace.records()) {
        switch (record.event) {
          case TraceEvent::WatchScrubPark: ++parks; break;
          case TraceEvent::WatchScrubRestore: ++restores; break;
          case TraceEvent::EccBlockDecode:
            ++decodes;
            // Payload: a = line, b = codeword base, c = bank.
            EXPECT_EQ(record.b, alignDown(record.a, 512));
            EXPECT_LT(record.c, 4u);
            break;
          case TraceEvent::PartialWriteRmw:
            ++rmws;
            EXPECT_EQ(record.b, alignDown(record.a, 512));
            EXPECT_LT(record.c, 4u);
            break;
          default:
            break;
        }
    }
    EXPECT_GT(parks, 0u);
    EXPECT_EQ(parks, restores);
    EXPECT_GT(decodes, 0u);
    EXPECT_GT(rmws, 0u);
    auto stat = [&](const char *name) -> std::uint64_t {
        auto it = first.find(name);
        return it == first.end() ? 0 : it->second;
    };
    EXPECT_GT(stat("controller.single_bit_corrected"), 0u);
    EXPECT_GT(stat("edc_checks_failed"), 0u);

    // Seeded means reproducible: an identical second run lands on the
    // same machine-wide counters, bit for bit.
    Trace again(1u << 18);
    EXPECT_EQ(runStreamingScrubRace(again), first);
}

} // namespace
} // namespace safemem
