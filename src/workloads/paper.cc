#include "workloads/paper.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "alloc/heap_allocator.h"
#include "common/random.h"
#include "os/machine.h"
#include "safemem/safemem.h"
#include "safemem/watch_manager.h"
#include "workloads/driver.h"

namespace safemem {

std::vector<StabilityRow>
stabilityRows(std::vector<Cycles> warmups, Cycles end)
{
    std::vector<StabilityRow> rows;
    if (warmups.empty())
        return rows;
    std::sort(warmups.begin(), warmups.end());
    auto add = [&](double seconds) {
        Cycles limit = static_cast<Cycles>(seconds * kCpuFrequencyHz);
        auto below =
            std::upper_bound(warmups.begin(), warmups.end(), limit) -
            warmups.begin();
        rows.push_back({seconds, 100.0 * static_cast<double>(below) /
                                     static_cast<double>(warmups.size())});
    };
    const double end_s = static_cast<double>(end) / kCpuFrequencyHz;
    for (double t : {0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2}) {
        if (t < end_s)
            add(t);
    }
    add(end_s);
    return rows;
}

namespace {

/** @return @p value with @p digits decimals, as printf's "%.*f". */
std::string
fixed(double value, int digits)
{
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.*f", digits, value);
    return buffer;
}

/** @name Table 2: simulated µs of one syscall on a fresh machine */
/// @{
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

double
mprotectMicros(std::size_t pages)
{
    Machine machine;
    VirtAddr region = machine.kernel().mapRegion(pages * kPageSize);
    Cycles before = machine.clock().now();
    machine.kernel().mprotectRange(region, pages * kPageSize, false);
    return cyclesToMicros(machine.clock().now() - before);
}
/// @}

void
table2(std::ostream &os)
{
    os << "## Table 2: cost of the ECC monitoring syscalls\n\n"
       << "| call | size | paper (µs) | measured (µs) | per line or page "
          "(µs) |\n"
       << "|---|---|---|---|---|\n";
    // The paper times one line / one page; larger sizes show the
    // batched per-line cost under one bus lock.
    auto row = [&](const char *call, std::size_t n, const char *unit,
                   const char *paper, double us) {
        os << "| " << call << " | " << n << " " << unit
           << (n == 1 ? "" : "s") << " | " << (n == 1 ? paper : "—")
           << " | " << fixed(us, 2) << " | "
           << fixed(us / static_cast<double>(n), 2) << " |\n";
    };
    for (std::size_t lines : {1, 8, 64, 128})
        row("WatchMemory", lines, "line", "2.0", watchMicros(lines));
    for (std::size_t lines : {1, 8, 64, 128})
        row("DisableWatchMemory", lines, "line", "1.5",
            disableMicros(lines));
    for (std::size_t pages : {1, 4, 16})
        row("mprotect", pages, "page", "1.02", mprotectMicros(pages));
}

/** The runs each application contributes to the matrix, in order. */
enum Cell { kDetect, kBase, kMl, kMc, kBoth, kPurify, kPageProt, kPerApp };

/** @return the matrix of Tables 3-5 and Figure 3: kPerApp cells per app. */
std::vector<RunSpec>
paperSpecs()
{
    std::vector<RunSpec> specs;
    for (const std::string &app : appNames()) {
        // Detection on buggy inputs; every overhead and waste number on
        // normal inputs, as in the paper.
        RunParams normal = paperParams(app, false);
        specs.push_back({app, ToolKind::SafeMemBoth, paperParams(app, true)});
        specs.push_back({app, ToolKind::None, normal});
        specs.push_back({app, ToolKind::SafeMemML, normal});
        specs.push_back({app, ToolKind::SafeMemMC, normal});
        specs.push_back({app, ToolKind::SafeMemBoth, normal});
        specs.push_back({app, ToolKind::Purify, normal});
        specs.push_back({app, ToolKind::PageProtBoth, normal});
    }
    return specs;
}

/** @return @p app's @p cell result in a matrix run from paperSpecs(). */
const RunResult &
at(const std::vector<MatrixCell> &cells, const std::string &app, Cell cell)
{
    const std::vector<std::string> &apps = appNames();
    auto index = std::find(apps.begin(), apps.end(), app) - apps.begin();
    return cells[static_cast<std::size_t>(index) * kPerApp + cell].result;
}

void
table3(std::ostream &os, const std::vector<MatrixCell> &m)
{
    os << "## Table 3: bug detection and run-time overhead, SafeMem vs "
          "Purify\n\n"
       << "Paper: all seven bugs detected; SafeMem ML+MC 1.6-14.4 %; "
          "Purify several × to tens of ×, a reduction of 2-3 orders of "
          "magnitude.\n\n"
       << "| app | detected? (paper / here) | only-ML % | only-MC % | "
          "ML+MC % (paper 1.6-14.4) | Purify % | reduction |\n"
       << "|---|---|---|---|---|---|---|\n";
    for (const std::string &app : appNames()) {
        const RunResult &base = at(m, app, kBase);
        double both = overheadPercent(at(m, app, kBoth), base);
        double purify = overheadPercent(at(m, app, kPurify), base);
        os << "| " << app << " | YES / "
           << (at(m, app, kDetect).bugDetected ? "YES" : "no") << " | "
           << fixed(overheadPercent(at(m, app, kMl), base), 1) << " | "
           << fixed(overheadPercent(at(m, app, kMc), base), 1) << " | "
           << fixed(both, 1) << " | " << fixed(purify, 1) << " | "
           << fixed(both > 0.0 ? purify / both : 0.0, 0) << "× |\n";
    }
}

void
table4(std::ostream &os, const std::vector<MatrixCell> &m)
{
    os << "## Table 4: memory waste, ECC- vs page-protection\n\n"
       << "Paper: ECC 0.084-334 %, page 6.06 % to hundreds of ×, a "
          "reduction of 64-74×.\n\n"
       << "| app | ECC-prot % | page-prot % | reduction (paper 64-74×) "
          "|\n"
       << "|---|---|---|---|\n";
    for (const std::string &app : appNames()) {
        double ecc = at(m, app, kBoth).wastePercent();
        double page = at(m, app, kPageProt).wastePercent();
        os << "| " << app << " | " << fixed(ecc, 2) << " | "
           << fixed(page, 2) << " | "
           << fixed(ecc > 0.0 ? page / ecc : 0.0, 1) << "× |\n";
    }
}

void
table5(std::ostream &os, const std::vector<MatrixCell> &m)
{
    struct PaperRow
    {
        const char *app;
        int before;
        int after;
    };
    os << "## Table 5: leak false positives before vs after ECC "
          "pruning\n\n"
       << "| app | paper before → after | measured before → after | "
          "suspects pruned |\n"
       << "|---|---|---|---|\n";
    for (PaperRow row : {PaperRow{"ypserv1", 7, 0}, PaperRow{"proftpd", 9, 0},
                         PaperRow{"squid1", 13, 1},
                         PaperRow{"ypserv2", 2, 0}}) {
        const RunResult &r = at(m, row.app, kDetect);
        os << "| " << row.app << " | " << row.before << " → " << row.after
           << " | " << r.suspectedFalse << " → " << r.leakReportsFalse
           << " | " << r.prunedSuspects << " |\n";
    }
}

void
figure3(std::ostream &os, const std::vector<MatrixCell> &m)
{
    os << "## Figure 3: stability of maximal lifetime\n\n"
       << "Paper: all memory object groups reach their stable maximal "
          "lifetime early in the execution.\n";
    for (const char *app : {"ypserv1", "proftpd", "squid1"}) {
        const RunResult &r = at(m, app, kMl);
        os << "\n### " << app << ": " << r.stabilityWarmups.size()
           << " groups with lifetime samples, app CPU time "
           << fixed(static_cast<double>(r.appCycles) / kCpuFrequencyHz, 2)
           << " s\n";
        std::vector<StabilityRow> rows =
            stabilityRows(r.stabilityWarmups, r.appCycles);
        if (rows.empty())
            continue;
        os << "\n| time (s) | stabilised groups (%) |\n|---|---|\n";
        for (const StabilityRow &row : rows)
            os << "| " << fixed(row.seconds, 2) << " | "
               << fixed(row.percent, 1) << " |\n";
    }
}

/** A SafeMem stack over the ECC backend on @p machine. */
struct EccStack
{
    EccStack(Machine &machine, const SafeMemConfig &config)
        : allocator(machine), backend(machine),
          tool(machine, allocator, backend, config)
    {
        backend.installFaultHandler();
    }

    HeapAllocator allocator;
    EccWatchManager backend;
    SafeMemTool tool;
    ShadowStack stack;
};

/** The corruption-only config of the padding ablation. */
SafeMemConfig
paddingConfig(std::uint32_t granules)
{
    SafeMemConfig config;
    config.detectLeaks = false;
    config.paddingGranules = granules;
    return config;
}

/**
 * Guard-padding width (paper §2.2.3; §4 keeps one line per side):
 * how far past a buffer an overflow still lands in a guard, and what
 * the guards waste on a mixed allocation profile.
 */
void
paddingAblation(std::ostream &os)
{
    os << "## Ablation: guard-padding width (ECC backend, 64 B "
          "granule)\n\n"
       << "Paper: one guard line per side (§4).\n\n"
       << "| guard lines/side | overflow reach (B) | waste on a mixed "
          "profile (%) |\n"
       << "|---|---|---|\n";
    for (std::uint32_t granules : {1u, 2u, 4u}) {
        // Reach: overflow at growing distances, a fresh buffer each
        // time so the guards are armed.
        std::size_t reach = 0;
        for (std::size_t distance = 8; distance <= 512; distance += 8) {
            Machine machine;
            EccStack s(machine, paddingConfig(granules));
            VirtAddr buffer = s.tool.toolAlloc(256, s.stack, 1);
            machine.store<std::uint64_t>(buffer + 256 + distance - 8, 1);
            if (!s.tool.corruptionDetector().reports().empty())
                reach = distance;
            s.tool.toolFree(buffer);
            s.tool.finish();
        }

        Machine machine;
        EccStack s(machine, paddingConfig(granules));
        Rng rng(9);
        std::vector<VirtAddr> buffers;
        for (int i = 0; i < 300; ++i)
            buffers.push_back(
                s.tool.toolAlloc(rng.range(16, 2048), s.stack, 1));
        for (VirtAddr buffer : buffers)
            s.tool.toolFree(buffer);
        const CorruptionDetector &detector = s.tool.corruptionDetector();
        double waste =
            100.0 * static_cast<double>(detector.cumulativeWasteBytes()) /
            static_cast<double>(detector.cumulativeUserBytes());
        s.tool.finish();
        os << "| " << granules << " | " << reach << " | "
           << fixed(waste, 1) << " |\n";
    }
}

/**
 * The leak detector's checking period (§3.2.2) on a small SLeak server
 * that frees replies except on 5% error paths, and Correct-and-Scrub
 * (§2.2.2) at several periods with live watches.
 */
void
tuningAblation(std::ostream &os)
{
    os << "## Ablation: checking period vs detection latency (synthetic "
          "SLeak server)\n\n"
       << "| period (cycles) | leak detected at request | detection "
          "passes | ML cycles |\n"
       << "|---|---|---|---|\n";
    for (Cycles period : {5'000u, 20'000u, 100'000u, 500'000u}) {
        Machine machine;
        SafeMemConfig config;
        config.detectCorruption = false;
        config.checkingPeriod = period;
        config.warmupTime = 100'000;
        config.minStableTime = 50'000;
        config.leakReportThreshold = 400'000;
        EccStack s(machine, config);
        Rng rng(77);
        for (std::uint64_t r = 0; r < 3000; ++r) {
            VirtAddr reply =
                s.tool.toolAlloc(192, s.stack, 1 | (1ULL << 63));
            machine.store<std::uint64_t>(reply, r);
            machine.compute(8'000);
            if (!rng.chance(0.05))
                s.tool.toolFree(reply);
        }
        s.tool.finish();

        const LeakDetector &detector = s.tool.leakDetector();
        long long detected_at = -1;
        if (!detector.reports().empty())
            detected_at = static_cast<long long>(
                detector.reports()[0].reportTime / 8'000);
        os << "| " << period << " | " << detected_at << " | "
           << detector.stats().get("detection_passes") << " | "
           << machine.clock().charged(CostCenter::ToolLeak) << " |\n";
    }

    os << "\n## Ablation: scrub period with live watches (8 MiB DRAM, 32 "
          "watched lines)\n\n"
       << "| scrub period (Mcycles) | scrub passes | park/restore cycles "
          "| kernel cycles |\n"
       << "|---|---|---|---|\n";
    for (unsigned period_m : {2u, 8u, 32u}) {
        Machine machine(MachineConfig{8u << 20, CacheConfig{64, 4}, 256});
        EccWatchManager backend(machine);
        backend.installFaultHandler();
        backend.installScrubHooks();
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
            machine.store<std::uint64_t>(scratch + (i % 2048) * 8,
                                         static_cast<std::uint64_t>(i));
            machine.compute(1'000);
        }
        os << "| " << period_m << " | "
           << machine.kernel().stats().get("scrub_passes") << " | "
           << backend.stats().get("scrub_unwatch_passes") << " | "
           << machine.clock().charged(CostCenter::Kernel) << " |\n";
        for (VirtAddr region : regions)
            backend.unwatch(region);
    }
}

} // namespace

CliRun
runPaper()
{
    CliRun run;
    std::ostringstream os;
    os << "# SafeMem evaluation: paper vs measured\n\n"
       << "Simulated 2.4 GHz machine, seed 42, default request counts.\n\n";
    table2(os);

    std::vector<MatrixCell> cells = runMatrix(paperSpecs(), 0);
    for (const MatrixCell &cell : cells) {
        if (!cell.ok()) {
            run.ok = false;
            os << "\n" << cell.spec.app << "/" << toolKindName(cell.spec.tool)
               << (cell.spec.params.buggy ? "+buggy" : "")
               << ": run failed: " << cell.error << "\n";
        }
    }
    if (run.ok) {
        for (auto table : {table3, table4, table5, figure3}) {
            os << "\n";
            table(os, cells);
        }
    }

    os << "\n";
    paddingAblation(os);
    os << "\n";
    tuningAblation(os);
    run.report = os.str();
    return run;
}

} // namespace safemem
