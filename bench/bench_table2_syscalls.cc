/**
 * @file
 * Reproduces Table 2: the cost of the ECC monitoring system calls
 * (WatchMemory ~2.0 us, DisableWatchMemory ~1.5 us) against standard
 * page protection (mprotect ~1.02 us) on the simulated 2.4 GHz machine.
 *
 * Wall-clock time of the simulator is meaningless here; the quantity of
 * interest is *simulated* time, reported through google-benchmark user
 * counters and as a printed Table 2 summary.
 */

#include <benchmark/benchmark.h>

#include <cstdio>

#include "common/logging.h"
#include "common/types.h"
#include "os/machine.h"

namespace {

using namespace safemem;

/** Simulated microseconds of one WatchMemory call over @p lines lines. */
double
watchMicros(std::size_t lines)
{
    Machine machine;
    VirtAddr region =
        machine.kernel().mapRegion(lines * kCacheLineSize + kPageSize);
    Cycles before = machine.clock().now();
    machine.kernel().watchMemory(region, lines * kCacheLineSize);
    return cyclesToMicros(machine.clock().now() - before);
}

/** Simulated microseconds of one DisableWatchMemory call. */
double
disableMicros(std::size_t lines)
{
    Machine machine;
    VirtAddr region =
        machine.kernel().mapRegion(lines * kCacheLineSize + kPageSize);
    machine.kernel().watchMemory(region, lines * kCacheLineSize);
    Cycles before = machine.clock().now();
    machine.kernel().disableWatchMemory(region, lines * kCacheLineSize);
    return cyclesToMicros(machine.clock().now() - before);
}

/** Simulated microseconds of one mprotect call over @p pages pages. */
double
mprotectMicros(std::size_t pages)
{
    Machine machine;
    VirtAddr region = machine.kernel().mapRegion(pages * kPageSize);
    Cycles before = machine.clock().now();
    machine.kernel().mprotectRange(region, pages * kPageSize, false);
    return cyclesToMicros(machine.clock().now() - before);
}

void
BM_WatchMemory(benchmark::State &state)
{
    std::size_t lines = static_cast<std::size_t>(state.range(0));
    double us = 0.0;
    for (auto _ : state)
        benchmark::DoNotOptimize(us = watchMicros(lines));
    state.counters["sim_us"] = us;
    state.counters["sim_us_per_line"] = us / static_cast<double>(lines);
}
BENCHMARK(BM_WatchMemory)->Arg(1)->Arg(8)->Arg(64)->Arg(128);

void
BM_DisableWatchMemory(benchmark::State &state)
{
    std::size_t lines = static_cast<std::size_t>(state.range(0));
    double us = 0.0;
    for (auto _ : state)
        benchmark::DoNotOptimize(us = disableMicros(lines));
    state.counters["sim_us"] = us;
}
BENCHMARK(BM_DisableWatchMemory)->Arg(1)->Arg(8)->Arg(64)->Arg(128);

void
BM_Mprotect(benchmark::State &state)
{
    std::size_t pages = static_cast<std::size_t>(state.range(0));
    double us = 0.0;
    for (auto _ : state)
        benchmark::DoNotOptimize(us = mprotectMicros(pages));
    state.counters["sim_us"] = us;
}
BENCHMARK(BM_Mprotect)->Arg(1)->Arg(4)->Arg(16);

} // namespace

int
main(int argc, char **argv)
{
    const safemem::Log quiet = safemem::Log::quiet();
    safemem::LogScope scope(quiet);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();

    std::printf("\nTable 2: time for the ECC system calls "
                "(one cache line / one page)\n");
    std::printf("(paper: WatchMemory 2.0 us, DisableWatchMemory 1.5 us, "
                "mprotect 1.02 us)\n\n");
    std::printf("%-24s %14s\n", "call", "time (us)");
    std::printf("%-24s %14.2f\n", "WatchMemory", watchMicros(1));
    std::printf("%-24s %14.2f\n", "DisableWatchMemory", disableMicros(1));
    std::printf("%-24s %14.2f\n", "mprotect", mprotectMicros(1));
    return 0;
}
