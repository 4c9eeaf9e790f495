/**
 * @file
 * Hardware-fault-injection campaign: random single-bit DRAM errors rain
 * down on a full SafeMem run. The controller must correct them all
 * transparently, the watch machinery must keep telling access faults
 * from real errors, and detection results must be unaffected.
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/random.h"
#include "workloads/driver.h"
#include "workloads/null_tool.h"

#include "alloc/heap_allocator.h"
#include "safemem/safemem.h"
#include "safemem/sampled.h"
#include "safemem/watch_manager.h"
#include "trace/trace.h"

namespace safemem {
namespace {

TEST(FaultInjection, SingleBitErrorsAreTransparentToDetection)
{
    Machine machine(MachineConfig{16u << 20, CacheConfig{64, 4}, 64});
    machine.kernel().setPanicOnHardwareError(false);
    HeapAllocator allocator(machine);
    EccWatchManager backend(machine);
    backend.installFaultHandler();
    backend.installScrubHooks();

    SafeMemConfig config;
    config.warmupTime = 100'000;
    config.checkingPeriod = 10'000;
    config.minStableTime = 50'000;
    config.aleakLiveThreshold = 24;
    config.aleakRecentWindow = 2'000'000;
    config.leakReportThreshold = 500'000;
    SafeMemTool tool(machine, allocator, backend, config);
    ShadowStack stack;
    Rng rng(31);

    // A leaky server, peppered with single-bit upsets all over DRAM —
    // including, with decent probability, under guard lines and freed
    // buffers that are currently scrambled.
    std::uint64_t flips = 0;
    for (int request = 0; request < 1200; ++request) {
        FrameGuard frame(stack, 0x880000);
        VirtAddr buffer = tool.toolAlloc(256, stack, 7 | (1ULL << 63));
        machine.store<std::uint64_t>(buffer, request);
        machine.compute(4'000);
        if (rng.chance(0.9)) {
            machine.load<std::uint64_t>(buffer);
            tool.toolFree(buffer);
        } // else: leaked

        if (request % 3 == 0) {
            // Strike the low physical frames — where the heap lives —
            // so the upsets actually land in data the program re-reads.
            PhysAddr victim =
                alignDown(rng.next() % (256u * 1024), kEccGroupSize);
            machine.physicalMemory().flipDataBit(
                victim, static_cast<int>(rng.range(0, 63)));
            ++flips;
        }
        if (request % 16 == 15) {
            // Cache pressure forces refills, exposing stored errors to
            // the controller's read path.
            machine.cache().flushAll();
        }
    }
    tool.finish();

    // The run survived; the leak was still found; every reported
    // corruption (if any) would have been a false positive — there must
    // be none, since single-bit errors are invisible to the detectors.
    EXPECT_GE(flips, 390u);
    EXPECT_GE(tool.leakDetector().reports().size(), 1u);
    EXPECT_TRUE(tool.corruptionDetector().reports().empty());
    EXPECT_GT(machine.controller().stats().get("single_bit_corrected"),
              0u) << "some flips were re-read and corrected";
}

TEST(FaultInjection, MultiBitUnderWatchIsRepairedFromPrivateCopy)
{
    Machine machine(MachineConfig{4u << 20, CacheConfig{16, 2}, 64});
    machine.kernel().setPanicOnHardwareError(false);
    HeapAllocator allocator(machine);
    EccWatchManager backend(machine);
    backend.installFaultHandler();

    SafeMemConfig config;
    config.detectLeaks = false;
    SafeMemTool tool(machine, allocator, backend, config);
    ShadowStack stack;

    VirtAddr buffer = tool.toolAlloc(128, stack, 1);
    machine.store<std::uint64_t>(buffer, 0x1111ULL);
    tool.toolFree(buffer); // freed body watched (scrambled)

    // A multi-bit hardware error strikes the scrambled freed buffer.
    PhysAddr frame =
        machine.kernel().translate(alignDown(buffer, kPageSize) +
                                   kPageSize - 1) -
        (kPageSize - 1);
    PhysAddr line = frame + (alignDown(buffer, kCacheLineSize) -
                             alignDown(buffer, kPageSize));
    machine.physicalMemory().flipDataBit(line, 2);
    machine.physicalMemory().flipDataBit(line, 9);

    // A dangling access hits the line: SafeMem must classify this as a
    // hardware error (signature mismatch), repair from its private
    // copy, and NOT report a use-after-free for it.
    EXPECT_EQ(machine.load<std::uint64_t>(buffer), 0x1111ULL);
    EXPECT_TRUE(tool.corruptionDetector().reports().empty());
    EXPECT_EQ(backend.stats().get("hardware_errors_detected"), 1u);
    tool.finish();
}

TEST(FaultInjection, HardwareRepairBypassesTheCacheWritePath)
{
    // Regression: the repair of a hardware error under a watch must go
    // through the controller's device-op path. Repairing with ordinary
    // cached writes write-allocates, and the read-for-ownership fill
    // pulls the still-corrupted line back through the controller — two
    // extra fills (and a second ECC fault) for this 128-byte region.
    Trace trace;
    MachineConfig machine_config{4u << 20, CacheConfig{16, 2}, 64};
    machine_config.trace = &trace;
    Machine machine(machine_config);
    machine.kernel().setPanicOnHardwareError(false);
    HeapAllocator allocator(machine);
    EccWatchManager backend(machine);
    backend.installFaultHandler();

    SafeMemConfig config;
    config.detectLeaks = false;
    SafeMemTool tool(machine, allocator, backend, config);
    ShadowStack stack;

    VirtAddr buffer = tool.toolAlloc(128, stack, 1);
    machine.store<std::uint64_t>(buffer, 0x2222ULL);
    tool.toolFree(buffer); // freed body watched (scrambled)

    PhysAddr line = machine.kernel().translate(buffer);
    machine.physicalMemory().flipDataBit(line, 2);
    machine.physicalMemory().flipDataBit(line, 9);

    std::uint64_t fills_before =
        machine.controller().stats().get("line_fills");
    EXPECT_EQ(machine.load<std::uint64_t>(buffer), 0x2222ULL);
    EXPECT_EQ(backend.stats().get("hardware_errors_detected"), 1u);
    // Exactly the faulted fill and the post-repair retry fill; the
    // cached-write repair added two write-allocate fills on top.
    EXPECT_EQ(machine.controller().stats().get("line_fills") -
                  fills_before, 2u);

    if (kTraceCompiledIn) {
        // The flight recorder shows the same thing structurally: no
        // controller fill (and no nested ECC interrupt) between the
        // hardware-fault classification and the end of the repair.
        bool in_repair = false;
        bool repaired = false;
        for (const TraceRecord &record : trace.records()) {
            if (record.event == TraceEvent::WatchFaultHardware) {
                in_repair = true;
            } else if (record.event == TraceEvent::WatchRepairDone) {
                in_repair = false;
                repaired = true;
            } else if (in_repair) {
                EXPECT_NE(record.event, TraceEvent::ControllerFill);
                EXPECT_NE(record.event, TraceEvent::KernelEccInterrupt);
            }
        }
        EXPECT_TRUE(repaired);
    }
    tool.finish();
}

TEST(FaultInjection, ScrubRaceKeepsParkScrubRestoreOrdering)
{
    // Multi-bit errors and watch churn race a short-period scrub. The
    // flight recorder must show every pass as a well-formed
    //   tick-begin -> park* -> scrub -> restore* -> tick-end
    // bracket, with no ECC interrupt delivered inside either hook
    // window (parked lines are unscrambled, so the scrubber never
    // faults on a watch).
    if (!kTraceCompiledIn)
        GTEST_SKIP() << "needs compiled-in trace emit sites";

    Trace trace(1u << 18);
    MachineConfig machine_config{8u << 20, CacheConfig{16, 2}, 64};
    machine_config.trace = &trace;
    Machine machine(machine_config);
    machine.kernel().setPanicOnHardwareError(false);
    HeapAllocator allocator(machine);
    EccWatchManager backend(machine);
    backend.installFaultHandler();
    backend.installScrubHooks();

    SafeMemConfig config;
    config.detectLeaks = false;
    SafeMemTool tool(machine, allocator, backend, config);
    ShadowStack stack;
    Rng rng(97);

    machine.kernel().enableScrubbing(20'000);

    for (int round = 0; round < 200; ++round) {
        FrameGuard frame(stack, 0x990000);
        VirtAddr buffer = tool.toolAlloc(128, stack, 3);
        machine.store<std::uint64_t>(buffer,
                                     static_cast<std::uint64_t>(round));
        machine.compute(rng.range(200, 2'000));
        tool.toolFree(buffer); // freed body watched: churn across scrubs

        if (round % 7 == 3) {
            // A multi-bit error strikes the scrambled freed body; the
            // dangling access classifies it as hardware and repairs it.
            PhysAddr line = machine.kernel().translate(buffer);
            machine.physicalMemory().flipDataBit(line, 2);
            machine.physicalMemory().flipDataBit(line, 9);
            machine.load<std::uint64_t>(buffer);
        }
    }
    tool.finish();
    machine.kernel().disableScrubbing();

    ASSERT_EQ(trace.dropped(), 0u)
        << "ring too small to audit the whole run";

    enum Phase { Outside, PreScrubHook, Scrubbing, PostScrubHook };
    int phase = Outside;
    std::uint64_t parks = 0;
    std::uint64_t restores = 0;
    std::uint64_t passes = 0;
    std::uint64_t repairs = 0;
    for (const TraceRecord &record : trace.records()) {
        switch (record.event) {
          case TraceEvent::KernelScrubTickBegin:
            EXPECT_EQ(phase, Outside);
            phase = PreScrubHook;
            break;
          case TraceEvent::ControllerScrubBegin:
            EXPECT_EQ(phase, PreScrubHook);
            phase = Scrubbing;
            break;
          case TraceEvent::ControllerScrubEnd:
            EXPECT_EQ(phase, Scrubbing);
            phase = PostScrubHook;
            break;
          case TraceEvent::KernelScrubTickEnd:
            EXPECT_EQ(phase, PostScrubHook);
            phase = Outside;
            ++passes;
            break;
          case TraceEvent::WatchScrubPark:
            EXPECT_EQ(phase, PreScrubHook);
            ++parks;
            break;
          case TraceEvent::WatchScrubRestore:
            EXPECT_EQ(phase, PostScrubHook);
            ++restores;
            break;
          case TraceEvent::ControllerInterrupt:
          case TraceEvent::KernelEccInterrupt:
            EXPECT_NE(phase, PreScrubHook)
                << "interrupt inside the pre-scrub hook";
            EXPECT_NE(phase, PostScrubHook)
                << "interrupt inside the post-scrub hook";
            break;
          case TraceEvent::WatchRepairDone:
            ++repairs;
            break;
          default:
            break;
        }
    }
    EXPECT_EQ(phase, Outside);
    EXPECT_GE(passes, 2u);
    EXPECT_GE(parks, 1u);
    EXPECT_EQ(parks, restores);
    EXPECT_GE(repairs, 1u);
    EXPECT_EQ(backend.stats().get("hardware_errors_detected"), repairs);
}

TEST(FaultInjection, MultiBitOnPlainMemoryPanicsWithoutSafeMem)
{
    // Stock-OS behaviour (paper §2.1): an uncorrectable error with no
    // registered handler takes the kernel down.
    Machine machine(MachineConfig{4u << 20, CacheConfig{16, 2}, 64});
    VirtAddr buffer = machine.kernel().mapRegion(kPageSize);
    machine.store<std::uint64_t>(buffer, 1);
    machine.cache().flushAll();
    PhysAddr frame = machine.kernel().translate(buffer + kPageSize - 1) -
                     (kPageSize - 1);
    machine.physicalMemory().flipDataBit(frame, 3);
    machine.physicalMemory().flipDataBit(frame, 40);
    EXPECT_THROW(machine.load<std::uint64_t>(buffer), PanicError);
}

TEST(FaultInjection, SampledTenantChurnRacesScrubCleanly)
{
    // Sparse sampled watches race the scrubber while tenants come and
    // go: three SampledSafeMem tenants
    // allocate and free under scrub pressure, one finishes and exits
    // mid-run, and the flight recorder must show every scrub park
    // matched by a restore (or an explicit cancel), with no watch left
    // anywhere once the last tenant is gone.
    if (!kTraceCompiledIn)
        GTEST_SKIP() << "needs compiled-in trace emit sites";

    Trace trace(1u << 18);
    MachineConfig machine_config{8u << 20, CacheConfig{32, 4}, 64};
    machine_config.trace = &trace;
    Machine machine(machine_config);
    machine.kernel().setPanicOnHardwareError(false);
    Kernel &kernel = machine.kernel();

    struct Tenant
    {
        Pid pid = 0;
        std::unique_ptr<HeapAllocator> allocator;
        std::unique_ptr<EccWatchManager> backend;
        std::unique_ptr<SampledSafeMemTool> tool;
        std::vector<VirtAddr> live;
    };

    // Sparse sampling: most traffic bypasses the detectors, so the
    // scrubber races a thin, shifting set of guard and freed-body
    // watches instead of a dense stable one. The default leak config
    // stays in warm-up for this run length — by design; the corruption
    // watches are the racing population.
    SafeMemConfig tool_config;
    tool_config.sampleRate = 0.125;
    tool_config.sampleSeed = 42;

    std::vector<Tenant> tenants(3);
    for (Tenant &tenant : tenants) {
        tenant.pid = kernel.createProcess();
        kernel.setCurrentProcess(tenant.pid);
        tenant.allocator = std::make_unique<HeapAllocator>(machine);
        tenant.backend = std::make_unique<EccWatchManager>(machine);
        tenant.backend->installFaultHandler();
        tenant.backend->installScrubHooks();
        tenant.tool = std::make_unique<SampledSafeMemTool>(
            machine, *tenant.allocator, *tenant.backend, tool_config,
            tenant.pid);
    }

    auto retire = [&](Tenant &tenant) {
        kernel.setCurrentProcess(tenant.pid);
        for (VirtAddr addr : tenant.live)
            tenant.tool->toolFree(addr);
        tenant.live.clear();
        tenant.tool->finish();
        EXPECT_EQ(tenant.backend->regionCount(), 0u)
            << "tenant " << tenant.pid << " leaked watches";
        kernel.exitProcess(tenant.pid);
    };

    ShadowStack stack;
    Rng rng(97);
    kernel.enableScrubbing(15'000);
    std::size_t active = tenants.size();
    for (int round = 0; round < 900; ++round) {
        // Tenant 2 leaves a third of the way in; its watches must not
        // outlive it and the survivors must keep scrubbing cleanly.
        if (round == 300)
            retire(tenants[--active]);

        Tenant &tenant = tenants[round % active];
        kernel.setCurrentProcess(tenant.pid);
        std::size_t size = rng.range(32, 512);
        VirtAddr addr = tenant.tool->toolAlloc(size, stack, 11);
        machine.store<std::uint64_t>(addr, rng.next());
        tenant.live.push_back(addr);
        if (tenant.live.size() > 12 || (rng.chance(0.4) &&
                                        !tenant.live.empty())) {
            std::size_t victim = rng.range(0, tenant.live.size() - 1);
            machine.load<std::uint64_t>(tenant.live[victim]);
            tenant.tool->toolFree(tenant.live[victim]);
            tenant.live[victim] = tenant.live.back();
            tenant.live.pop_back();
        }
        machine.compute(500);
    }
    while (active > 0)
        retire(tenants[--active]);
    kernel.disableScrubbing();

    EXPECT_EQ(kernel.totalWatchedLineCount(), 0u)
        << "watches survived their owners";
    for (const Tenant &tenant : tenants) {
        EXPECT_TRUE(tenant.tool->corruptionDetector().reports().empty())
            << "spurious corruption report for tenant " << tenant.pid;
        EXPECT_GT(tenant.tool->samplingStats().get("unsampled_allocs"),
                  tenant.tool->samplingStats().get("sampled_allocs"))
            << "rate 1/8 must leave most traffic unmonitored";
    }

    // Replay the recorder: every park window closes — a parked region
    // is either restored by the post-scrub hook or explicitly cancelled
    // by an unwatch — and the scrubber actually met the watches.
    ASSERT_EQ(trace.dropped(), 0u)
        << "ring too small to audit the whole run";
    std::uint64_t parks = 0, restores = 0, cancels = 0, passes = 0;
    for (const TraceRecord &record : trace.records()) {
        switch (record.event) {
          case TraceEvent::WatchScrubPark: ++parks; break;
          case TraceEvent::WatchScrubRestore: ++restores; break;
          case TraceEvent::WatchScrubCancel: ++cancels; break;
          case TraceEvent::KernelScrubTickEnd: ++passes; break;
          default: break;
        }
    }
    EXPECT_GE(passes, 4u) << "scrubber never completed a pass";
    EXPECT_GE(parks, 1u) << "no watch ever raced a scrub pass";
    EXPECT_EQ(parks, restores + cancels);
}

} // namespace
} // namespace safemem
