/**
 * @file
 * Tests for SampledSafeMem: the deterministic sampling function, the
 * rate-1.0 detection-equivalence contract against full SafeMem, the
 * sampled/unsampled realloc boundary (including the ML-only granule
 * alignment regression), and the fleet report/JSON shape.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>

#include "alloc/heap_allocator.h"
#include "common/logging.h"
#include "safemem/sampled.h"
#include "safemem/watch_manager.h"
#include "workloads/driver.h"
#include "workloads/fleet.h"
#include "workloads/report_writer.h"

namespace safemem {
namespace {

// ---------------------------------------------------------------------
// The sampling function: pure, deterministic, rate-faithful.

TEST(SampleDecision, ExtremeRatesAreCertain)
{
    for (std::uint64_t ordinal = 0; ordinal < 200; ++ordinal) {
        EXPECT_TRUE(
            SampledSafeMemTool::sampleDecision(7, 3, ordinal, 1.0));
        EXPECT_FALSE(
            SampledSafeMemTool::sampleDecision(7, 3, ordinal, 0.0));
        EXPECT_FALSE(
            SampledSafeMemTool::sampleDecision(7, 3, ordinal, -1.0));
    }
}

TEST(SampleDecision, DeterministicPerArgumentTuple)
{
    for (std::uint64_t ordinal = 0; ordinal < 500; ++ordinal) {
        bool first =
            SampledSafeMemTool::sampleDecision(42, 1, ordinal, 0.25);
        EXPECT_EQ(first, SampledSafeMemTool::sampleDecision(42, 1,
                                                            ordinal,
                                                            0.25));
    }
}

TEST(SampleDecision, RateMatchesEmpiricalFrequency)
{
    constexpr std::uint64_t kTrials = 20'000;
    for (double rate : {0.5, 1.0 / 16, 1.0 / 64}) {
        std::uint64_t hits = 0;
        for (std::uint64_t ordinal = 0; ordinal < kTrials; ++ordinal)
            hits += SampledSafeMemTool::sampleDecision(42, 1, ordinal,
                                                       rate);
        double empirical = static_cast<double>(hits) / kTrials;
        // Three-sigma binomial band around the requested rate.
        double sigma = std::sqrt(rate * (1.0 - rate) / kTrials);
        EXPECT_NEAR(empirical, rate, 3.0 * sigma) << "rate " << rate;
    }
}

TEST(SampleDecision, TenantsSampleIndependentStreams)
{
    // Different pids (and different seeds) must pick different subsets,
    // or every tenant in a fleet would monitor the same ordinals.
    int pid_diff = 0, seed_diff = 0;
    for (std::uint64_t ordinal = 0; ordinal < 2000; ++ordinal) {
        pid_diff +=
            SampledSafeMemTool::sampleDecision(42, 1, ordinal, 0.5) !=
            SampledSafeMemTool::sampleDecision(42, 2, ordinal, 0.5);
        seed_diff +=
            SampledSafeMemTool::sampleDecision(42, 1, ordinal, 0.5) !=
            SampledSafeMemTool::sampleDecision(43, 1, ordinal, 0.5);
    }
    EXPECT_GT(pid_diff, 500);
    EXPECT_GT(seed_diff, 500);
}

// ---------------------------------------------------------------------
// Rate 1.0 == full SafeMem: every interposition path delegates verbatim,
// so the whole run — detections, costs, space — must match exactly.

TEST(SampledEquivalence, RateOneMatchesFullSafeMemOnPaperSweep)
{
    const Log quiet = Log::quiet();
    for (const std::string &app : appNames()) {
        RunParams params = paperParams(app, true);
        params.requests = std::min<std::uint64_t>(params.requests, 150);
        params.log = &quiet;
        params.sampleRate = 1.0;

        RunResult full =
            runWorkload(app, ToolKind::SafeMemBoth, params);
        RunResult sampled =
            runWorkload(app, ToolKind::SafeMemSampled, params);

        EXPECT_EQ(sampled.bugDetected, full.bugDetected) << app;
        EXPECT_EQ(sampled.leakReportsTrue, full.leakReportsTrue) << app;
        EXPECT_EQ(sampled.leakReportsFalse, full.leakReportsFalse)
            << app;
        EXPECT_EQ(sampled.suspectedTrue, full.suspectedTrue) << app;
        EXPECT_EQ(sampled.suspectedFalse, full.suspectedFalse) << app;
        EXPECT_EQ(sampled.prunedSuspects, full.prunedSuspects) << app;
        EXPECT_EQ(sampled.corruptionTrue, full.corruptionTrue) << app;
        EXPECT_EQ(sampled.corruptionFalse, full.corruptionFalse) << app;
        EXPECT_EQ(sampled.wasteBytes, full.wasteBytes) << app;
        EXPECT_EQ(sampled.userBytes, full.userBytes) << app;
        EXPECT_EQ(sampled.totalCycles, full.totalCycles) << app;
        EXPECT_EQ(sampled.appCycles, full.appCycles) << app;
        EXPECT_EQ(sampled.stabilityWarmups, full.stabilityWarmups)
            << app;

        // And it monitored literally everything: the sampled counter is
        // live, the unsampled one never moved (zero counters are not
        // merged into the run's stat map).
        auto hit = sampled.stats.find("sampled.sampled_allocs");
        ASSERT_NE(hit, sampled.stats.end()) << app;
        EXPECT_GT(hit->second, 0u) << app;
        auto miss = sampled.stats.find("sampled.unsampled_allocs");
        EXPECT_TRUE(miss == sampled.stats.end() || miss->second == 0u)
            << app;
    }
}

TEST(SampledEquivalence, LowRateRunsCheaperThanFullSafeMem)
{
    const Log quiet = Log::quiet();
    RunParams params = paperParams("squid2", true);
    params.requests = 200;
    params.log = &quiet;

    RunResult full = runWorkload("squid2", ToolKind::SafeMemBoth, params);
    params.sampleRate = 1.0 / 64;
    RunResult sparse =
        runWorkload("squid2", ToolKind::SafeMemSampled, params);

    EXPECT_LT(sparse.totalCycles, full.totalCycles)
        << "sampling must shed monitoring cost";
    auto sampled = sparse.stats.find("sampled.sampled_allocs");
    auto unsampled = sparse.stats.find("sampled.unsampled_allocs");
    ASSERT_NE(sampled, sparse.stats.end());
    ASSERT_NE(unsampled, sparse.stats.end());
    EXPECT_LT(sampled->second, unsampled->second);
}

// ---------------------------------------------------------------------
// The sampled/unsampled realloc boundary over a real machine.

class SampledToolTest : public ::testing::Test
{
  protected:
    SampledToolTest()
        : machine(MachineConfig{32u << 20, CacheConfig{32, 4}, 64}),
          allocator(machine), backend(machine)
    {
        backend.installFaultHandler();
        backend.installScrubHooks();
    }

    std::unique_ptr<SampledSafeMemTool>
    makeTool(double rate, bool ml = true, bool mc = true)
    {
        SafeMemConfig config;
        config.detectLeaks = ml;
        config.detectCorruption = mc;
        config.sampleRate = rate;
        config.sampleSeed = 42;
        return std::make_unique<SampledSafeMemTool>(machine, allocator,
                                                    backend, config, 1);
    }

    Machine machine;
    HeapAllocator allocator;
    EccWatchManager backend;
    ShadowStack stack;
};

TEST_F(SampledToolTest, MlOnlyReallocMoveKeepsGranuleAlignment)
{
    // Regression: the ML-only realloc path used to move blocks with the
    // allocator's default 16-byte alignment, so a tracked object could
    // land astride a 64-byte ECC granule it shared with a neighbour.
    // Occupy slot 0 of the unaligned size class first so a misaligned
    // move would land at offset 112, not at a page start.
    auto tool = makeTool(1.0, /*ml=*/true, /*mc=*/false);
    allocator.allocate(100);

    VirtAddr addr = tool->toolAlloc(40, stack, 0);
    machine.store<std::uint64_t>(addr, 0xabcdULL);
    VirtAddr fresh = tool->toolRealloc(addr, 100, stack, 0);
    EXPECT_NE(fresh, addr) << "growth past the size class must move";
    EXPECT_TRUE(isAligned(fresh, backend.granule()))
        << "moved ML-only blocks must stay granule-aligned";
    EXPECT_EQ(machine.load<std::uint64_t>(fresh), 0xabcdULL);
    EXPECT_TRUE(tool->leakDetector().tracksObject(fresh));
    EXPECT_FALSE(tool->leakDetector().tracksObject(addr));
    tool->toolFree(fresh);
    tool->finish();
}

TEST_F(SampledToolTest, UnsampledTrafficNeverTouchesDetectors)
{
    auto tool = makeTool(0.0);
    VirtAddr addr = tool->toolAlloc(64, stack, 0);
    EXPECT_EQ(backend.regionCount(), 0u) << "no guards, no watches";
    EXPECT_FALSE(tool->leakDetector().tracksObject(addr));
    EXPECT_FALSE(tool->corruptionDetector().owns(addr));

    VirtAddr grown = tool->toolRealloc(addr, 4096, stack, 0);
    machine.store<std::uint64_t>(grown, 1);
    tool->toolFree(grown);
    EXPECT_TRUE(tool->corruptionDetector().reports().empty());
    EXPECT_EQ(tool->samplingStats().get("unsampled_allocs"), 1u);
    EXPECT_EQ(tool->samplingStats().get("realloc_stay_unsampled"), 1u);
    EXPECT_EQ(tool->samplingStats().get("sampled_allocs"), 0u);
    EXPECT_EQ(tool->samplingStats().get("unsampled_frees"), 1u);
    tool->finish();
    EXPECT_EQ(backend.regionCount(), 0u);
}

TEST_F(SampledToolTest, ReallocAcrossSampleBoundaryMovesWatches)
{
    // Alternate-rate trick: with rate 1.0 the object is guarded; force
    // the boundary by reconfiguring expectations through two tools is
    // not possible, so drive the drop/gain paths statistically: at rate
    // 0.5 enough reallocs cross the boundary in both directions.
    auto tool = makeTool(0.5);
    std::uint64_t drops = 0, gains = 0;
    for (int i = 0; i < 64; ++i) {
        VirtAddr addr = tool->toolAlloc(48, stack, 7);
        machine.store<std::uint64_t>(addr, 0x5a5a0000ULL + i);
        VirtAddr fresh = tool->toolRealloc(addr, 200, stack, 7);
        EXPECT_EQ(machine.load<std::uint64_t>(fresh),
                  0x5a5a0000ULL + i)
            << "contents must survive every boundary crossing";
        tool->toolFree(fresh);
    }
    drops = tool->samplingStats().get("realloc_drop_sample");
    gains = tool->samplingStats().get("realloc_gain_sample");
    EXPECT_GT(drops, 0u) << "sampled -> unsampled reallocs must occur";
    EXPECT_GT(gains, 0u) << "unsampled -> sampled reallocs must occur";
    EXPECT_TRUE(tool->corruptionDetector().reports().empty())
        << "boundary crossings must not trip stale watches";
    tool->finish();
    EXPECT_EQ(backend.regionCount(), 0u) << "no watch leaks";
}

// ---------------------------------------------------------------------
// Fleet report shape: keys present, rates guarded, no NaN anywhere.

TEST(FleetReport, JsonAndTableShapesArePinnedAndNanFree)
{
    const Log quiet = Log::quiet();
    FleetConfig config;
    config.app = "squid2";
    config.procs = 2;
    config.requests = 40; // tiny: nothing detects -> exercises guards
    config.seeds = 1;
    config.rates = {1.0 / 16};
    config.workers = 1;
    config.verifyWorkers = 2;
    config.log = &quiet;

    FleetResult result = runFleet(config);
    EXPECT_TRUE(result.identical);
    ASSERT_EQ(result.cells.size(), 4u);
    EXPECT_EQ(result.cells[0].tool, "none");
    EXPECT_EQ(result.cells[1].tool, "safemem");
    EXPECT_EQ(result.cells[2].tool, "purify");
    EXPECT_EQ(result.cells[3].tool, "sampled@0.0625");
    EXPECT_EQ(result.cells[3].kind, ToolKind::SafeMemSampled);

    const std::string json = fleetJson(result);
    for (const char *key :
         {"\"bench\": \"fleet\"", "\"app\": \"squid2\"", "\"procs\": 2",
          "\"requests\": 40", "\"seeds\": 1",
          "\"identical\": true", "\"cells\": [", "\"tool\": \"none\"",
          "\"tool\": \"sampled@0.0625\"", "\"rate\": ",
          "\"seeds_run\": ", "\"seeds_detected\": ",
          "\"detection_percent\": ", "\"mean_overhead_percent\": ",
          "\"mean_catch_seconds\": ", "\"mean_total_cycles\": ",
          "\"monitored_allocs\": ", "\"total_allocs\": ",
          "\"monitored_percent\": ", "\"zero_sample_tenants\": "})
        EXPECT_NE(json.find(key), std::string::npos) << key;
    EXPECT_EQ(json.find("\"banks\""), std::string::npos);
    // The zero-detection / zero-sample guards: no NaN or inf may ever
    // reach a report, in either rendering. "nan" needs care: the word
    // "tenant" contains it, so only flag occurrences not preceded by a
    // letter (printf renders NaN after a space, ':' or '-').
    auto rendersNan = [](const std::string &text) {
        for (std::size_t pos = text.find("nan"); pos != std::string::npos;
             pos = text.find("nan", pos + 1)) {
            if (pos == 0 || !std::isalpha(
                                static_cast<unsigned char>(text[pos - 1])))
                return true;
        }
        return false;
    };
    EXPECT_FALSE(rendersNan(json));
    EXPECT_EQ(json.find("inf"), std::string::npos);

    const std::string table = formatFleetReport(result);
    EXPECT_NE(table.find("detect%"), std::string::npos);
    EXPECT_NE(table.find("overhead%"), std::string::npos);
    EXPECT_NE(table.find("worker-count identity: PASS"),
              std::string::npos);
    EXPECT_FALSE(rendersNan(table));
    EXPECT_EQ(table.find("inf"), std::string::npos);
}

TEST(FleetReport, GuardedRatesReturnZeroNotNan)
{
    EXPECT_EQ(safeRatePercent(0, 0), 0.0);
    EXPECT_EQ(safeRatePercent(3, 4), 75.0);
    EXPECT_EQ(safeMean(0.0, 0), 0.0);
    EXPECT_EQ(safeMean(9.0, 3), 3.0);
}

} // namespace
} // namespace safemem
