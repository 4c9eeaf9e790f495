/**
 * @file
 * Ablation: the leak detector's checking period (§3.2.2) and ECC
 * scrubbing (§2.2.2).
 *
 * Part 1 sweeps the checking period on a synthetic SLeak server:
 * shorter periods find the leak sooner but run more detection passes.
 *
 * Part 2 enables Correct-and-Scrub at several periods and measures the
 * cost of the unwatch-all / scrub / rewatch dance with live watches.
 */

#include <cstdio>

#include "alloc/heap_allocator.h"
#include "common/logging.h"
#include "common/random.h"
#include "safemem/safemem.h"
#include "safemem/watch_manager.h"

using namespace safemem;

namespace {

/** A small SLeak server: frees replies except on 5% error paths. */
Cycles
runLeakServer(SafeMemTool &tool, Machine &machine, ShadowStack &stack,
              std::uint64_t requests)
{
    Rng rng(77);
    for (std::uint64_t r = 0; r < requests; ++r) {
        VirtAddr reply = tool.toolAlloc(192, stack, 1 | (1ULL << 63));
        machine.store<std::uint64_t>(reply, r);
        machine.compute(8'000);
        if (!rng.chance(0.05))
            tool.toolFree(reply);
    }
    tool.finish();
    return machine.clock().charged(CostCenter::Application);
}

} // namespace

int
main()
{
    const Log quiet = Log::quiet();
    LogScope scope(quiet);

    std::printf("Ablation 1: checking period vs detection latency "
                "(synthetic SLeak server)\n\n");
    std::printf("%-18s %16s %18s %16s\n", "period (cycles)",
                "detected at req", "detection passes", "ML cycles");
    for (Cycles period : {5'000u, 20'000u, 100'000u, 500'000u}) {
        Machine machine;
        HeapAllocator allocator(machine);
        EccWatchManager backend(machine);
        backend.installFaultHandler();

        SafeMemConfig config;
        config.detectCorruption = false;
        config.checkingPeriod = period;
        config.warmupTime = 100'000;
        config.minStableTime = 50'000;
        config.leakReportThreshold = 400'000;
        SafeMemTool tool(machine, allocator, backend, config);
        ShadowStack stack;
        runLeakServer(tool, machine, stack, 3000);

        const LeakDetector &detector = tool.leakDetector();
        long long detected_req = -1;
        if (!detector.reports().empty())
            detected_req = static_cast<long long>(
                detector.reports()[0].reportTime / 8'000);
        std::printf("%-18llu %16lld %18llu %16llu\n",
                    static_cast<unsigned long long>(period), detected_req,
                    static_cast<unsigned long long>(
                        detector.stats().get("detection_passes")),
                    static_cast<unsigned long long>(
                        machine.clock().charged(CostCenter::ToolLeak)));
    }

    std::printf("\nAblation 2: scrub period with live watches "
                "(8 MiB DRAM, 32 watched lines)\n\n");
    std::printf("%-20s %14s %18s %20s\n", "period (Mcycles)",
                "scrub passes", "park/restore ops", "kernel cycles");
    for (unsigned period_m : {2u, 8u, 32u}) {
        Machine machine(MachineConfig{8u << 20, CacheConfig{64, 4}, 256});
        HeapAllocator allocator(machine);
        EccWatchManager backend(machine);
        backend.installFaultHandler();
        backend.installScrubHooks();

        // Arm some watches, then generate plain activity.
        std::vector<VirtAddr> regions;
        for (int i = 0; i < 32; ++i) {
            VirtAddr region = machine.kernel().mapRegion(kPageSize);
            backend.watch(region, kCacheLineSize, WatchKind::FreedBuffer,
                          static_cast<std::uint64_t>(i));
            regions.push_back(region);
        }
        machine.kernel().enableScrubbing(period_m * 1'000'000);

        VirtAddr scratch = machine.kernel().mapRegion(16 * kPageSize);
        for (int i = 0; i < 60'000; ++i) {
            machine.store<std::uint64_t>(
                scratch + (i % 2048) * 8, static_cast<std::uint64_t>(i));
            machine.compute(1'000);
        }

        std::printf("%-20u %14llu %18llu %20llu\n", period_m,
                    static_cast<unsigned long long>(
                        machine.kernel().stats().get("scrub_passes")),
                    static_cast<unsigned long long>(
                        backend.stats().get("regions_swap_parked") +
                        backend.stats().get("scrub_unwatch_passes")),
                    static_cast<unsigned long long>(
                        machine.clock().charged(CostCenter::Kernel)));
        for (VirtAddr region : regions)
            backend.unwatch(region);
    }
    std::printf("\nScrubbing all of DRAM is expensive; real deployments "
                "scrub rarely and\nidle-time only, exactly as the paper "
                "assumes.\n");
    return 0;
}
