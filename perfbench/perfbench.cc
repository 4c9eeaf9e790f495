/**
 * @file
 * The simulator's end-to-end benchmark (README.md beside this file).
 *
 *   perfbench --workload paper_sweep|production|ecc_campaign --seed N
 *             --seconds S --trace 0|1 [--commit SHA] [--source DIGEST]
 *
 * --trace 0 times serial passes over the workload's run set until S
 * seconds have passed, checks the outputs and prints the end-to-end
 * metrics. --trace 1 runs every spec once through runWorkload and once
 * rebuilt with timing decorators (traced.h), requires the two to agree
 * exactly, and prints the per-layer metrics. Either way the last line
 * on stdout is the JSON result.
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "host_speed.h"
#include "traced.h"
#include "workloads/app.h"
#include "workloads/campaign.h"
#include "workloads/driver.h"

namespace {

using namespace safemem;
using namespace perfbench;

struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    std::string commit = "unknown";
    std::string source = "unknown";
};

/** Production runs: 8x the paper's request count, buggy inputs. */
constexpr std::uint64_t kProductionRequests = 16000;
/** GWP-ASan-style sampling rate of the production sampled runs. */
constexpr double kProductionSampleRate = 1.0 / 64;
/** Campaign trials per sampled (non-exhaustive) cell: about a second
 *  per pass, so host-speed probes interleave with passes as finely as
 *  they do with machine runs. */
constexpr std::uint64_t kCampaignSamples = 100000;
/** One machine boot is timed for setup_s before every this many runs:
 *  a boot is about half of a short run, so setup_s needs as many
 *  samples as wall_s for wall_s - setup_s to hold still. */
constexpr std::size_t kRunsPerBoot = 2;
/** Campaign set-ups timed per pass for setup_s. */
constexpr int kCampaignSetupsPerPass = 3;
/** Seconds of measured work between host-speed probes. */
constexpr double kProbeIntervalS = 0.75;

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** Shortest decimal form that reads back as exactly @p value. */
std::string
number(double value)
{
    if (!std::isfinite(value))
        value = 0.0;
    char buffer[64];
    auto end = std::to_chars(buffer, buffer + sizeof buffer, value).ptr;
    return std::string(buffer, end);
}

RunSpec
makeSpec(const std::string &app, ToolKind tool, std::uint64_t requests,
         std::uint64_t seed, bool buggy)
{
    RunSpec spec;
    spec.app = app;
    spec.tool = tool;
    spec.params.requests = requests;
    spec.params.seed = seed;
    spec.params.buggy = buggy;
    return spec;
}

/** Table 3: every tool on normal inputs, plus SafeMem on buggy ones. */
std::vector<RunSpec>
paperSweep(std::uint64_t seed)
{
    std::vector<RunSpec> specs;
    for (const std::string &app : appNames()) {
        for (ToolKind tool : {ToolKind::None, ToolKind::SafeMemML,
                              ToolKind::SafeMemMC, ToolKind::SafeMemBoth,
                              ToolKind::Purify})
            specs.push_back(
                makeSpec(app, tool, defaultRequests(app), seed, false));
        specs.push_back(makeSpec(app, ToolKind::SafeMemBoth,
                                 defaultRequests(app), seed, true));
    }
    return specs;
}

/** Long buggy server runs under the production-grade tools. */
std::vector<RunSpec>
production(std::uint64_t seed)
{
    std::vector<RunSpec> specs;
    for (const char *app : {"squid1", "squid2", "ypserv1", "proftpd"}) {
        for (ToolKind tool : {ToolKind::None, ToolKind::SafeMemBoth,
                              ToolKind::SafeMemSampled}) {
            RunSpec spec =
                makeSpec(app, tool, kProductionRequests, seed, true);
            spec.params.sampleRate = kProductionSampleRate;
            specs.push_back(spec);
        }
    }
    return specs;
}

CampaignConfig
campaignConfig(std::uint64_t seed)
{
    CampaignConfig config;
    config.maxErrors = 8;
    config.samples = kCampaignSamples;
    config.seed = seed;
    config.workers = 1;
    return config;
}

bool
isSafeMemFamily(ToolKind tool)
{
    return tool == ToolKind::SafeMemML || tool == ToolKind::SafeMemMC ||
           tool == ToolKind::SafeMemBoth || tool == ToolKind::SafeMemSampled;
}

/** The simulated outcome of one pass; repeats exactly for a seed. */
struct SimSummary
{
    double safememOverheadPct = 0.0;
    double purifyOverheadPct = 0.0;
    double sampledOverheadPct = 0.0;
    std::uint64_t bugsDetected = 0;
    std::uint64_t falseReports = 0;
    double catchMs = 0.0;
};

SimSummary
summarize(const std::vector<MatrixCell> &cells)
{
    std::map<ToolKind, std::vector<double>> overheads;
    std::vector<double> catch_ms;
    SimSummary sim;
    for (const MatrixCell &cell : cells) {
        if (!cell.ok())
            continue;
        const RunResult &run = cell.result;
        for (const MatrixCell &base : cells)
            if (base.ok() && cell.spec.tool != ToolKind::None &&
                base.spec.tool == ToolKind::None &&
                base.spec.app == cell.spec.app &&
                base.spec.params.buggy == cell.spec.params.buggy)
                overheads[cell.spec.tool].push_back(
                    overheadPercent(run, base.result));
        if (run.buggy && isSafeMemFamily(run.tool) && run.bugDetected)
            ++sim.bugsDetected;
        sim.falseReports += run.leakReportsFalse + run.corruptionFalse;
        if (run.firstCatchCycles > 0)
            catch_ms.push_back(static_cast<double>(run.firstCatchCycles) /
                               kCpuFrequencyHz * 1e3);
    }
    auto mean = [](const std::vector<double> &values) {
        double sum = 0.0;
        for (double v : values)
            sum += v;
        return ratio(sum, static_cast<double>(values.size()));
    };
    sim.safememOverheadPct = mean(overheads[ToolKind::SafeMemBoth]);
    sim.purifyOverheadPct = mean(overheads[ToolKind::Purify]);
    sim.sampledOverheadPct = mean(overheads[ToolKind::SafeMemSampled]);
    sim.catchMs = mean(catch_ms);
    return sim;
}

/** Output checks on one pass of a machine workload. */
void
checkMachinePass(const std::vector<MatrixCell> &cells,
                 std::vector<std::string> &failures)
{
    for (const MatrixCell &cell : cells) {
        const std::string label = cell.spec.app + "/" +
                                  toolKindName(cell.spec.tool) +
                                  (cell.spec.params.buggy ? "/buggy" : "");
        if (!cell.ok()) {
            failures.push_back(label + " failed: " + cell.error);
            continue;
        }
        // Full SafeMem must catch every injected bug; sampled monitoring
        // is only expected to, so its misses are not failures.
        if (cell.spec.params.buggy &&
            cell.spec.tool == ToolKind::SafeMemBoth &&
            !cell.result.bugDetected)
            failures.push_back(label + " missed its injected bug");
    }
}

/** Campaign checks: Hsiao catches every double-bit error and hosts the
 *  scramble signature; Hamming 64/8 catches none and cannot. */
void
checkCampaign(const CampaignResult &result,
              std::vector<std::string> &failures)
{
    for (const CodecCampaign &codec : result.codecs) {
        // Cells run none, random 1..max, burst 1..max: [2] is random x2.
        const CampaignCell &doubles = codec.cells.at(2);
        std::string name = codecSpecName(codec.spec);
        bool hamming = codec.spec.kind == EccCodecKind::Hamming64_8;
        if (!doubles.exhaustive || doubles.errors != 2)
            failures.push_back(name + ": double-bit cell not exhaustive");
        else if (hamming && (doubles.detected != 0 || codec.scrambleViable))
            failures.push_back(name + ": Hamming detected double-bit "
                                      "errors or hosts the scramble");
        else if (!hamming && (doubles.detected != doubles.trials ||
                              !codec.scrambleViable))
            failures.push_back(name + ": Hsiao missed a double-bit error "
                                      "or cannot host the scramble");
    }
}

std::uint64_t
trials(const CampaignResult &result)
{
    std::uint64_t total = 0;
    for (const CodecCampaign &codec : result.codecs)
        for (const CampaignCell &cell : codec.cells)
            total += cell.trials;
    return total;
}

std::uint64_t
workItems(const std::vector<RunSpec> &specs)
{
    std::uint64_t total = 0;
    for (const RunSpec &spec : specs)
        total += spec.params.requests;
    return total;
}

/** Host time to boot and tear down one machine. Every run of the
 *  machine workloads boots the same config (default codec, banks and
 *  geometry), so one config stands for all of them. */
double
bootOnce(const RunParams &params)
{
    Clock::time_point start = Clock::now();
    { Machine machine(machineConfigFor(params, nullptr)); }
    return secondsSince(start);
}

/** Host time of the campaign's set-up: building the codec zoo and
 *  finding each code's scramble signature (a campaign of no error
 *  cells). */
double
campaignSetupOnce(std::uint64_t seed)
{
    CampaignConfig config = campaignConfig(seed);
    config.maxErrors = 0;
    Clock::time_point start = Clock::now();
    runCampaign(config);
    return secondsSince(start);
}

/**
 * Call @p pass at least once, and again while one more pass as long as
 * the last still ends within @p seconds of the start. The host's speed
 * drifts over seconds, so set-up is re-timed inside every pass rather
 * than once up front.
 */
template <typename Pass>
void
timeBoxed(double seconds, Pass &&pass)
{
    Clock::time_point start = Clock::now();
    double last = 0.0;
    do {
        Clock::time_point pass_start = Clock::now();
        pass();
        last = secondsSince(pass_start);
    } while (secondsSince(start) + last <= seconds);
}

/**
 * @return this process's peak resident memory in MiB, from VmHWM.
 * getrusage's ru_maxrss would carry over the peak of the process that
 * forked this one (the launcher), which can exceed the campaign's own.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/** Metrics in print order: name -> (value, unit). */
class Report
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        entries_.push_back({name, value, unit});
    }

    /** Print the human-readable table, then the JSON result line. */
    void
    print(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<std::string> &failures) const
    {
        for (const std::string &failure : failures)
            std::printf("FAIL %s\n", failure.c_str());
        for (const Entry &entry : entries_)
            std::printf("  %-32s %16s %s\n", entry.name.c_str(),
                        number(entry.value).c_str(), entry.unit.c_str());
        std::string json = "{\"correct\": ";
        json += correct ? "true" : "false";
        json += ", \"attempted\": " + std::to_string(attempted);
        json += ", \"failed\": " + std::to_string(failed);
        json += ", \"metrics\": {";
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            const Entry &entry = entries_[i];
            json += (i ? ", \"" : "\"") + entry.name + "\": {\"value\": " +
                    number(entry.value) + ", \"unit\": \"" + entry.unit +
                    "\"}";
        }
        json += "}}";
        std::printf("%s\n", json.c_str());
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

void
printSim(const SimSummary &sim)
{
    std::printf("simulated: safemem_overhead_pct %s purify_overhead_pct %s "
                "sampled_overhead_pct %s bugs_detected %llu "
                "false_reports %llu catch_ms %s\n",
                number(sim.safememOverheadPct).c_str(),
                number(sim.purifyOverheadPct).c_str(),
                number(sim.sampledOverheadPct).c_str(),
                static_cast<unsigned long long>(sim.bugsDetected),
                static_cast<unsigned long long>(sim.falseReports),
                number(sim.catchMs).c_str());
}

/** What one invocation measured, ready to print. */
struct Outcome
{
    Report report;
    std::vector<std::string> failures;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/**
 * Report the end-to-end metrics. Times are raw host seconds divided by
 * the host-speed scale (host_speed.h); @p rss_mb was read after the
 * first pass, before any probe ran, so the probe's memory is not in it.
 */
void
reportEndToEnd(double wall, double setup, std::uint64_t items,
               double rss_mb, const HostSpeed &speed, Report &report)
{
    std::printf("raw wall_s %s setup_s %s; host slowdown %s over %zu "
                "probes\n",
                number(wall).c_str(), number(setup).c_str(),
                number(speed.slowdown()).c_str(), speed.probes());
    wall /= speed.scale();
    setup /= speed.scale();
    report.add("wall_s", wall, "s");
    report.add("setup_s", setup, "s");
    report.add("items_per_s", ratio(static_cast<double>(items), wall - setup),
               "1/s");
    report.add("host_rss_mb", rss_mb, "MiB");
}

/**
 * Untraced passes of a machine workload. Each run is timed on its own
 * and wall_s sums the per-run medians over passes, so a burst of host
 * noise during one pass moves the result less than a whole-pass median.
 */
Outcome
measureMachine(const std::vector<RunSpec> &specs, double seconds)
{
    Outcome out;
    HostSpeed speed;
    double rss_mb = 0.0;
    std::vector<double> boots;
    std::vector<std::vector<double>> run_seconds(specs.size());
    std::vector<MatrixCell> first;
    timeBoxed(seconds, [&] {
        bool first_pass = first.empty();
        for (std::size_t i = 0; i < specs.size(); ++i) {
            if (!first_pass)
                speed.probeEvery(kProbeIntervalS);
            if (i % kRunsPerBoot == 0)
                boots.push_back(bootOnce(specs.front().params));
            Clock::time_point start = Clock::now();
            MatrixCell cell = std::move(runMatrix({specs[i]}, 1).front());
            run_seconds[i].push_back(secondsSince(start));
            ++out.attempted;
            out.failed += cell.ok() ? 0 : 1;
            if (first_pass)
                first.push_back(std::move(cell));
            else if (!(cell.result == first[i].result))
                out.failures.push_back(specs[i].app + "/" +
                                       toolKindName(specs[i].tool) +
                                       " differs between passes");
        }
        if (first_pass) {
            checkMachinePass(first, out.failures);
            rss_mb = peakRssMb();
        }
    });
    if (speed.probes() == 0)
        speed.probe();
    printSim(summarize(first));

    double wall = 0.0;
    for (const std::vector<double> &times : run_seconds)
        wall += median(times);
    std::printf("passes %zu, boots timed %zu\n", run_seconds.front().size(),
                boots.size());
    reportEndToEnd(wall, median(boots) * static_cast<double>(specs.size()),
                   workItems(specs), rss_mb, speed, out.report);
    return out;
}

/** Untraced passes of the campaign. */
Outcome
measureCampaign(std::uint64_t seed, double seconds)
{
    Outcome out;
    HostSpeed speed;
    double rss_mb = 0.0;
    CampaignConfig config = campaignConfig(seed);
    std::vector<double> setups;
    std::vector<double> passes;
    CampaignResult first;
    timeBoxed(seconds, [&] {
        if (!passes.empty())
            speed.probeEvery(kProbeIntervalS);
        for (int i = 0; i < kCampaignSetupsPerPass; ++i)
            setups.push_back(campaignSetupOnce(seed));
        Clock::time_point start = Clock::now();
        CampaignResult result = runCampaign(config);
        passes.push_back(secondsSince(start));
        ++out.attempted;
        if (passes.size() == 1) {
            checkCampaign(result, out.failures);
            first = std::move(result);
            rss_mb = peakRssMb();
        } else if (!(result == first)) {
            out.failures.push_back("campaign pass " +
                                   std::to_string(passes.size()) +
                                   " differs");
        }
    });
    if (speed.probes() == 0)
        speed.probe();
    std::printf("passes %zu\n", passes.size());
    reportEndToEnd(median(passes), median(setups), trials(first), rss_mb,
                   speed, out.report);
    return out;
}

/** The per-layer metrics, in print order, with their units. Every
 *  workload prints all of them; a layer a workload never enters reads 0. */
const std::vector<std::pair<const char *, const char *>> kLayerMetrics = {
    {"workloads.boot_s", "s"},
    {"workloads.run_s.none", "s"},
    {"workloads.run_s.safemem-ml", "s"},
    {"workloads.run_s.safemem-mc", "s"},
    {"workloads.run_s.safemem", "s"},
    {"workloads.run_s.safemem-sampled", "s"},
    {"workloads.run_s.purify", "s"},
    {"workloads.app_self_s", "s"},
    {"workloads.ns_per_access", "ns"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.writebacks", "count"},
    {"cache.flushes", "count"},
    {"cache.faulted_fills", "count"},
    {"mem.line_fills", "count"},
    {"mem.line_evictions", "count"},
    {"mem.bus_locks", "count"},
    {"mem.interrupts", "count"},
    {"os.tlb_hits", "count"},
    {"os.tlb_misses", "count"},
    {"os.lines_watched", "count"},
    {"os.ecc_interrupts", "count"},
    {"ecc.decodes", "count"},
    {"ecc.encodes", "count"},
    {"ecc.decode_s", "s"},
    {"ecc.trials_per_s.hsiao", "1/s"},
    {"ecc.trials_per_s.hamming64_8", "1/s"},
    {"ecc.trials_per_s.hsiao_64_8", "1/s"},
    {"alloc.allocs", "count"},
    {"alloc.frees", "count"},
    {"alloc.slabs_mapped", "count"},
    {"alloc.s", "s"},
    {"safemem.calls", "count"},
    {"safemem.self_s", "s"},
    {"safemem.watch_calls", "count"},
    {"safemem.watch_s", "s"},
    {"safemem.detection_passes", "count"},
    {"safemem.suspects_watched", "count"},
    {"safemem.prune_ratio", "ratio"},
    {"safemem.monitored_ratio", "ratio"},
    {"purify.calls", "count"},
    {"purify.self_s", "s"},
    {"purify.sweeps", "count"},
    {"purify.sweep_s", "s"},
    {"purify.hook_calls", "count"},
    {"purify.hook_s", "s"},
    {"common.sim_cycles", "cycles"},
    {"common.sim_share.app", "ratio"},
    {"common.sim_share.tool_leak", "ratio"},
    {"common.sim_share.tool_corruption", "ratio"},
    {"common.sim_share.tool_access", "ratio"},
    {"common.sim_share.kernel", "ratio"},
    {"trace.overhead_pct", "%"},
    {"sim.safemem_overhead_pct", "%"},
    {"sim.purify_overhead_pct", "%"},
    {"sim.sampled_overhead_pct", "%"},
    {"sim.bugs_detected", "count"},
    {"sim.false_reports", "count"},
    {"sim.catch_ms", "ms"},
};

using Sums = std::map<std::string, double>;

/** Add one traced run's layer figures into @p sums. Keys starting with
 *  '_' are intermediate and turn into ratios in finishLayers(). */
void
addTracedRun(const RunSpec &spec, const TracedRun &run, Sums &sums)
{
    auto stat = [&run](const std::string &key) {
        auto it = run.result.stats.find(key);
        return it == run.result.stats.end()
                   ? 0.0
                   : static_cast<double>(it->second);
    };
    auto layer = [&run](Layer l) -> const LayerTotals & {
        return run.layers[static_cast<std::size_t>(l)];
    };

    sums["workloads.boot_s"] += run.bootSeconds;
    sums[std::string("workloads.run_s.") + toolKindName(spec.tool)] +=
        run.runSeconds;
    sums["workloads.app_self_s"] += layer(Layer::App).selfSeconds;

    for (const char *key :
         {"hits", "misses", "writebacks", "flushes", "faulted_fills"})
        sums[std::string("cache.") + key] += stat(std::string("cache.") + key);
    sums["mem.line_fills"] += stat("controller.line_fills");
    sums["mem.line_evictions"] += stat("controller.line_evictions");
    sums["mem.bus_locks"] += stat("controller.bus_locks");
    sums["mem.interrupts"] += stat("controller.interrupts_raised");
    sums["os.tlb_hits"] += stat("tlb.hits");
    sums["os.tlb_misses"] += stat("tlb.misses");
    sums["os.lines_watched"] += stat("kernel.lines_watched");
    sums["os.ecc_interrupts"] += stat("kernel.ecc_interrupts");

    sums["ecc.decodes"] += static_cast<double>(layer(Layer::Codec).calls);
    sums["ecc.encodes"] += static_cast<double>(run.encodes);
    sums["ecc.decode_s"] += layer(Layer::Codec).seconds;

    sums["alloc.allocs"] += stat("alloc.allocs");
    sums["alloc.frees"] += stat("alloc.frees");
    sums["alloc.slabs_mapped"] += stat("alloc.slabs_mapped");

    const LayerTotals &tool = layer(Layer::Tool);
    if (spec.tool == ToolKind::None) {
        sums["alloc.s"] += tool.seconds;
        sums["_none_run_s"] += run.runSeconds;
        sums["_none_accesses"] += stat("cache.hits") + stat("cache.misses");
    } else if (isSafeMemFamily(spec.tool)) {
        sums["safemem.calls"] += static_cast<double>(tool.calls);
        sums["safemem.self_s"] += tool.selfSeconds;
        sums["safemem.watch_calls"] +=
            static_cast<double>(layer(Layer::Watch).calls);
        sums["safemem.watch_s"] += layer(Layer::Watch).seconds;
        sums["safemem.detection_passes"] += stat("leak.detection_passes");
        sums["safemem.suspects_watched"] += stat("leak.suspects_watched");
        sums["_suspects_pruned"] += stat("leak.suspects_pruned");
        sums["_sampled_allocs"] += stat("sampled.sampled_allocs");
        sums["_unsampled_allocs"] += stat("sampled.unsampled_allocs");
    } else if (spec.tool == ToolKind::Purify) {
        sums["purify.calls"] += static_cast<double>(tool.calls);
        sums["purify.self_s"] += tool.selfSeconds;
        sums["purify.sweeps"] += stat("purify.sweeps");
        sums["purify.sweep_s"] += run.sweepSeconds;
        sums["purify.hook_calls"] +=
            static_cast<double>(layer(Layer::Hook).calls);
        sums["purify.hook_s"] += layer(Layer::Hook).seconds;
    }

    sums["common.sim_cycles"] += static_cast<double>(run.result.totalCycles);
    static const char *const kCenters[] = {"app", "tool_leak",
                                           "tool_corruption", "tool_access",
                                           "kernel"};
    for (std::size_t c = 0; c < run.centerCycles.size(); ++c)
        sums[std::string("_center.") + kCenters[c]] +=
            static_cast<double>(run.centerCycles[c]);
}

/** Turn the intermediate sums into the reported ratios. */
void
finishLayers(Sums &sums)
{
    sums["cache.hit_ratio"] = ratio(
        sums["cache.hits"], sums["cache.hits"] + sums["cache.misses"]);
    sums["workloads.ns_per_access"] =
        ratio(sums["_none_run_s"] * 1e9, sums["_none_accesses"]);
    sums["safemem.prune_ratio"] =
        ratio(sums["_suspects_pruned"], sums["safemem.suspects_watched"]);
    sums["safemem.monitored_ratio"] =
        ratio(sums["_sampled_allocs"],
              sums["_sampled_allocs"] + sums["_unsampled_allocs"]);
    for (const char *center : {"app", "tool_leak", "tool_corruption",
                               "tool_access", "kernel"})
        sums[std::string("common.sim_share.") + center] =
            ratio(sums[std::string("_center.") + center],
                  sums["common.sim_cycles"]);
    sums["trace.overhead_pct"] =
        100.0 * ratio(sums["_traced_s"] - sums["_untraced_s"],
                      sums["_untraced_s"]);
}

void
addSim(const SimSummary &sim, Sums &sums)
{
    sums["sim.safemem_overhead_pct"] = sim.safememOverheadPct;
    sums["sim.purify_overhead_pct"] = sim.purifyOverheadPct;
    sums["sim.sampled_overhead_pct"] = sim.sampledOverheadPct;
    sums["sim.bugs_detected"] = static_cast<double>(sim.bugsDetected);
    sums["sim.false_reports"] = static_cast<double>(sim.falseReports);
    sums["sim.catch_ms"] = sim.catchMs;
}

/** Report the median over passes of every per-layer metric, with host
 *  times and rates scaled like the end-to-end times. */
void
reportLayers(const std::vector<Sums> &passes, const HostSpeed &speed,
             Report &report)
{
    std::printf("host slowdown %s over %zu probes\n",
                number(speed.slowdown()).c_str(), speed.probes());
    for (const auto &[name, unit] : kLayerMetrics) {
        std::vector<double> values;
        for (const Sums &pass : passes) {
            auto it = pass.find(name);
            values.push_back(it == pass.end() ? 0.0 : it->second);
        }
        double value = median(values);
        if (std::string(unit) == "s" || std::string(unit) == "ns")
            value /= speed.scale();
        else if (std::string(unit) == "1/s")
            value *= speed.scale();
        report.add(name, value, unit);
    }
}

/** Traced passes of a machine workload, with the equivalence gate. */
Outcome
traceMachine(const std::vector<RunSpec> &specs, double seconds)
{
    Outcome out;
    HostSpeed speed;
    std::vector<Sums> passes;
    timeBoxed(seconds, [&] {
        Sums sums;
        std::vector<MatrixCell> cells(specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i) {
            speed.probeEvery(kProbeIntervalS);
            const RunSpec &spec = specs[i];
            MatrixCell &cell = cells[i];
            cell.spec = spec;
            ++out.attempted;
            try {
                Clock::time_point t0 = Clock::now();
                cell.result = runWorkload(spec.app, spec.tool, spec.params);
                sums["_untraced_s"] += secondsSince(t0);
                Clock::time_point t1 = Clock::now();
                TracedRun traced = runTraced(spec);
                sums["_traced_s"] += secondsSince(t1);
                if (std::string error =
                        equivalenceError(traced, cell.result);
                    !error.empty())
                    out.failures.push_back("gate " + spec.app + "/" +
                                           toolKindName(spec.tool) + ":" +
                                           error);
                addTracedRun(spec, traced, sums);
            } catch (const std::exception &err) {
                cell.error = err.what();
                ++out.failed;
            }
        }
        checkMachinePass(cells, out.failures);
        SimSummary sim = summarize(cells);
        if (passes.empty())
            printSim(sim);
        addSim(sim, sums);
        finishLayers(sums);
        passes.push_back(std::move(sums));
    });
    std::printf("traced passes %zu\n", passes.size());
    reportLayers(passes, speed, out.report);
    return out;
}

/** Traced passes of the campaign: the zoo untraced, then each codec on
 *  its own for its trials per second. */
Outcome
traceCampaign(std::uint64_t seed, double seconds)
{
    Outcome out;
    HostSpeed speed;
    CampaignConfig config = campaignConfig(seed);
    std::vector<Sums> passes;
    timeBoxed(seconds, [&] {
        speed.probeEvery(kProbeIntervalS);
        Sums sums;
        Clock::time_point t0 = Clock::now();
        CampaignResult zoo = runCampaign(config);
        double zoo_seconds = secondsSince(t0);
        ++out.attempted;
        checkCampaign(zoo, out.failures);

        double per_codec_seconds = 0.0;
        for (const CodecCampaign &codec : zoo.codecs) {
            CampaignConfig single = config;
            single.codecs = {codec.spec};
            Clock::time_point t1 = Clock::now();
            CampaignResult one = runCampaign(single);
            double took = secondsSince(t1);
            per_codec_seconds += took;
            std::string name = codecSpecName(codec.spec);
            std::replace(name.begin(), name.end(), '/', '_');
            std::replace(name.begin(), name.end(), ':', '_');
            sums["ecc.trials_per_s." + name] =
                ratio(static_cast<double>(trials(one)), took);
        }
        // Every campaign trial is one encode and one decode.
        double total = static_cast<double>(trials(zoo));
        sums["ecc.decodes"] = total;
        sums["ecc.encodes"] = total;
        sums["ecc.decode_s"] = zoo_seconds;
        sums["_untraced_s"] = zoo_seconds;
        sums["_traced_s"] = per_codec_seconds;
        finishLayers(sums);
        passes.push_back(std::move(sums));
    });
    reportLayers(passes, speed, out.report);
    return out;
}

bool
parseOptions(int argc, char **argv, Options &options)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        std::string value = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end)
                return false;
        } else if (flag == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            if (*end || options.seconds <= 0)
                return false;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return false;
            options.trace = value == "1";
        } else if (flag == "--commit") {
            options.commit = value;
        } else if (flag == "--source") {
            options.source = value;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 &&
           (options.workload == "paper_sweep" ||
            options.workload == "production" ||
            options.workload == "ecc_campaign");
}

const char *
compilerName()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    if (!parseOptions(argc, argv, options)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload "
                     "paper_sweep|production|ecc_campaign --seed N "
                     "--seconds S --trace 0|1 [--commit SHA] "
                     "[--source DIGEST]\n");
        return 2;
    }
#ifdef SAFEMEM_TRACE_DISABLED
    const bool trace_compiled = false;
#else
    const bool trace_compiled = true;
#endif
    std::printf("meta {\"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %s, \"traced\": %s, \"nproc\": %u, "
                "\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"commit\": \"%s\", \"source_sha256\": \"%s\", "
                "\"safemem_trace_compiled_in\": %s}\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                number(options.seconds).c_str(),
                options.trace ? "true" : "false",
                std::thread::hardware_concurrency(), compilerName(),
                PERFBENCH_BUILD_TYPE, options.commit.c_str(),
                options.source.c_str(), trace_compiled ? "true" : "false");

    Outcome out;
    if (options.workload == "ecc_campaign") {
        out = options.trace ? traceCampaign(options.seed, options.seconds)
                            : measureCampaign(options.seed, options.seconds);
    } else {
        std::vector<RunSpec> specs = options.workload == "paper_sweep"
                                         ? paperSweep(options.seed)
                                         : production(options.seed);
        out = options.trace ? traceMachine(specs, options.seconds)
                            : measureMachine(specs, options.seconds);
    }
    bool correct = out.failures.empty() && out.failed == 0;
    out.report.print(correct, out.attempted, out.failed, out.failures);
    std::fflush(stdout);
    return correct ? 0 : 1;
}
