#include "workloads/report_writer.h"

#include <map>
#include <sstream>

#include "common/types.h"

namespace safemem {

namespace {

/** Seconds of simulated CPU time, formatted. */
std::string
seconds(Cycles cycles)
{
    std::ostringstream os;
    os.precision(3);
    os << std::fixed
       << static_cast<double>(cycles) / kCpuFrequencyHz << " s";
    return os.str();
}

/** @return counter @p name of a run's stats map, or 0 when absent. */
std::uint64_t
stat(const std::map<std::string, std::uint64_t> &stats, const char *name)
{
    auto it = stats.find(name);
    return it == stats.end() ? 0 : it->second;
}

/**
 * Which tool kinds produce leak findings worth a summary line. Every
 * ToolKind enumerator must appear here: the switch is exhaustive (a new
 * kind fails the -Werror build until classified) and the repo lint's
 * toolkind-plumbing rule checks this file names each enumerator.
 */
bool
showsLeakFindings(ToolKind kind)
{
    switch (kind) {
      case ToolKind::None: return false;
      case ToolKind::SafeMemML: return true;
      case ToolKind::SafeMemMC: return false;
      case ToolKind::SafeMemBoth: return true;
      case ToolKind::SafeMemSampled: return true;
      case ToolKind::PageProtBoth: return true;
      case ToolKind::Purify: return true;
    }
    return false;
}

/** Which tool kinds produce corruption findings worth a summary line. */
bool
showsCorruptionFindings(ToolKind kind)
{
    switch (kind) {
      case ToolKind::None: return false;
      case ToolKind::SafeMemML: return false;
      case ToolKind::SafeMemMC: return true;
      case ToolKind::SafeMemBoth: return true;
      case ToolKind::SafeMemSampled: return true;
      case ToolKind::PageProtBoth: return true;
      case ToolKind::Purify: return true;
    }
    return false;
}

} // namespace

double
safeRatePercent(std::uint64_t num, std::uint64_t den)
{
    if (den == 0)
        return 0.0;
    return 100.0 * static_cast<double>(num) / static_cast<double>(den);
}

double
safeMean(double sum, std::uint64_t count)
{
    if (count == 0)
        return 0.0;
    return sum / static_cast<double>(count);
}

std::string
formatVerdict(const RunResult &result)
{
    std::ostringstream os;
    if (result.bugDetected) {
        os << "BUG DETECTED in " << result.app << ":";
        if (result.leakReportsTrue > 0)
            os << " memory leak at the injected site";
        if (result.corruptionTrue > 0)
            os << " memory corruption at the injected site";
    } else if (result.leakReportsFalse > 0 ||
               result.corruptionFalse > 0) {
        os << result.app << ": no injected bug found, but "
           << (result.leakReportsFalse + result.corruptionFalse)
           << " other finding(s) reported";
    } else {
        os << result.app << ": clean run, nothing reported";
    }
    return os.str();
}

std::string
formatRunSummary(const RunResult &result)
{
    std::ostringstream os;
    os << "=== " << result.app << " under " << toolKindName(result.tool)
       << " (" << (result.buggy ? "buggy" : "normal") << " inputs)";
    if (!result.procs.empty())
        os << " x" << result.procs.size() << " consolidated processes";
    os << " ===\n";
    os << "  simulated time     " << seconds(result.totalCycles)
       << " total, " << seconds(result.appCycles) << " application\n";

    // Only block-geometry machines have an EDC fast path to report on;
    // the word default keeps the exact pre-geometry report text.
    if (!result.geometry.isWord()) {
        os << "  geometry           " << geometryName(result.geometry)
           << ": " << stat(result.stats, "geometry.edc_checks_passed")
           << " EDC passes / "
           << stat(result.stats, "geometry.edc_checks_failed")
           << " misses, " << stat(result.stats, "geometry.block_decodes")
           << " block decodes, "
           << stat(result.stats, "geometry.partial_write_rmws")
           << " RMW writebacks\n";
    }

    // Consolidated run: one detector report per process, then the
    // machine-wide contention counters for the shared resources.
    for (const ProcResult &proc : result.procs) {
        os << "  [pid " << proc.pid << "] leaks " << proc.leakReportsTrue
           << " at the bug site / " << proc.leakReportsFalse
           << " elsewhere, corruptions " << proc.corruptionTrue << " / "
           << proc.corruptionFalse;
        if (proc.tool == ToolKind::SafeMemSampled) {
            std::uint64_t sampled =
                stat(proc.stats, "sampled.sampled_allocs");
            std::uint64_t total =
                sampled + stat(proc.stats, "sampled.unsampled_allocs");
            os.precision(2);
            os << std::fixed << ", sampled " << sampled << "/" << total
               << " (" << safeRatePercent(sampled, total) << "%)";
        }
        os << " -> "
           << (proc.bugDetected ? "BUG DETECTED" : "no bug found") << "\n";
    }
    if (!result.procs.empty()) {
        os << "  contention         "
           << stat(result.stats, "cache.cross_proc_evictions")
           << " cross-process evictions, "
           << stat(result.stats, "sched.context_switches")
           << " context switches, "
           << stat(result.stats, "kernel.scrub_passes")
           << " shared scrub passes\n";
    }

    if (result.tool == ToolKind::SafeMemSampled) {
        // Consolidated runs carry the sampling counters per process;
        // sum them so the machine-wide line is meaningful either way.
        std::uint64_t sampled = stat(result.stats, "sampled.sampled_allocs");
        std::uint64_t unsampled =
            stat(result.stats, "sampled.unsampled_allocs");
        for (const ProcResult &proc : result.procs) {
            sampled += stat(proc.stats, "sampled.sampled_allocs");
            unsampled += stat(proc.stats, "sampled.unsampled_allocs");
        }
        std::uint64_t total = sampled + unsampled;
        os.precision(2);
        os << std::fixed << "  sampling           " << sampled << " of "
           << total << " allocations monitored ("
           << safeRatePercent(sampled, total) << "%)";
        if (result.firstCatchCycles > 0)
            os << ", first catch at " << seconds(result.firstCatchCycles)
               << " app time";
        os << "\n";
    }
    if (showsLeakFindings(result.tool)) {
        os << "  leak findings      " << result.leakReportsTrue
           << " at the bug site, " << result.leakReportsFalse
           << " elsewhere";
        if (result.prunedSuspects > 0)
            os << " (" << result.prunedSuspects
               << " suspects pruned by access)";
        os << "\n";
    }
    if (showsCorruptionFindings(result.tool)) {
        os << "  corruption findings " << result.corruptionTrue
           << " at the bug site, " << result.corruptionFalse
           << " elsewhere\n";
    }
    if (result.userBytes > 0) {
        os.precision(2);
        os << std::fixed << "  monitoring space   "
           << result.wasteBytes << " padding bytes over "
           << result.userBytes << " requested ("
           << result.wastePercent() << "%)\n";
    }
    os << "  " << formatVerdict(result) << "\n";
    return os.str();
}

std::string
formatOverhead(const RunResult &run, const RunResult &baseline)
{
    std::ostringstream os;
    os.precision(1);
    os << std::fixed << toolKindName(run.tool) << " overhead on "
       << run.app << ": " << overheadPercent(run, baseline) << "% ("
       << seconds(run.totalCycles) << " vs "
       << seconds(baseline.totalCycles) << ")";
    return os.str();
}

std::string
formatStats(const RunResult &result, const std::string &prefix)
{
    std::ostringstream os;
    for (const auto &[name, value] : result.stats) {
        if (name.rfind(prefix, 0) == 0)
            os << "  " << name << " = " << value << "\n";
    }
    return os.str();
}

} // namespace safemem
