#include "workloads/fleet.h"

#include <cstdio>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "common/types.h"
#include "workloads/report_writer.h"

namespace safemem {

namespace {

/** One monitoring configuration of the sweep. */
struct ToolConfig
{
    std::string label;
    ToolKind kind;
    double rate;
};

std::vector<ToolConfig>
sweepTools(const FleetConfig &config)
{
    std::vector<ToolConfig> tools = {
        {"none", ToolKind::None, 1.0},
        {"safemem", ToolKind::SafeMemBoth, 1.0},
        {"purify", ToolKind::Purify, 1.0},
    };
    for (double rate : config.rates) {
        std::ostringstream label;
        label << "sampled@" << rate;
        tools.push_back({label.str(), ToolKind::SafeMemSampled, rate});
    }
    return tools;
}

/** Fixed-format double for JSON: deterministic, never NaN/inf. */
std::string
jsonNumber(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6f", value);
    return buf;
}

std::uint64_t
statOf(const std::map<std::string, std::uint64_t> &stats,
       const char *name)
{
    auto it = stats.find(name);
    return it == stats.end() ? 0 : it->second;
}

} // namespace

FleetResult
runFleet(const FleetConfig &config)
{
    if (config.seeds == 0)
        throw std::invalid_argument("fleet sweep needs at least one seed");

    const std::vector<ToolConfig> tools = sweepTools(config);

    std::vector<RunSpec> specs;
    specs.reserve(tools.size() * config.seeds);
    for (const ToolConfig &tool : tools) {
        for (std::uint32_t s = 0; s < config.seeds; ++s) {
            RunSpec spec;
            spec.app = config.app;
            spec.tool = tool.kind;
            spec.procs = config.procs;
            spec.params.requests = config.requests;
            spec.params.buggy = true;
            spec.params.seed = config.baseSeed + 1009ULL * s;
            spec.params.sampleRate = tool.rate;
            spec.params.log = config.log;
            specs.push_back(spec);
        }
    }

    std::vector<MatrixCell> runs = runMatrix(specs, config.workers);
    for (const MatrixCell &cell : runs) {
        if (!cell.ok())
            throw std::runtime_error("fleet cell failed (" + cell.spec.app +
                                     ", " + toolKindName(cell.spec.tool) +
                                     "): " + cell.error);
    }

    FleetResult result;
    result.app = config.app;
    result.procs = config.procs;
    result.requests = config.requests;
    result.seeds = config.seeds;
    result.baseSeed = config.baseSeed;

    // Worker-count independence: the same spec list must produce the
    // same results bit for bit from a differently-sized pool.
    if (config.verifyWorkers != 0) {
        std::vector<MatrixCell> again =
            runMatrix(specs, config.verifyWorkers);
        for (std::size_t i = 0; i < runs.size(); ++i) {
            if (!again[i].ok() || !(again[i].result == runs[i].result))
                result.identical = false;
        }
    }

    // Cell (t, s) is runs[t * seeds + s]; tool 0 is the uninstrumented
    // baseline the overhead column compares against, seed by seed.
    auto runAt = [&](std::size_t t, std::uint32_t s) -> const RunResult & {
        return runs[t * config.seeds + s].result;
    };

    for (std::size_t t = 0; t < tools.size(); ++t) {
        FleetCell cell;
        cell.tool = tools[t].label;
        cell.kind = tools[t].kind;
        cell.rate = tools[t].rate;
        cell.seedsRun = config.seeds;

        double overheadSum = 0.0;
        double catchSecondsSum = 0.0;
        Cycles cyclesSum = 0;
        for (std::uint32_t s = 0; s < config.seeds; ++s) {
            const RunResult &run = runAt(t, s);
            cyclesSum += run.totalCycles;
            overheadSum += overheadPercent(run, runAt(0, s));
            if (run.bugDetected) {
                ++cell.seedsDetected;
                catchSecondsSum +=
                    static_cast<double>(run.firstCatchCycles) /
                    kCpuFrequencyHz;
            }

            std::uint64_t sampled = statOf(run.stats,
                                           "sampled.sampled_allocs");
            std::uint64_t unsampled = statOf(run.stats,
                                             "sampled.unsampled_allocs");
            for (const ProcResult &proc : run.procs) {
                std::uint64_t procSampled =
                    statOf(proc.stats, "sampled.sampled_allocs");
                sampled += procSampled;
                unsampled += statOf(proc.stats,
                                    "sampled.unsampled_allocs");
                if (cell.kind == ToolKind::SafeMemSampled &&
                    procSampled == 0)
                    ++cell.zeroSampleTenants;
            }
            cell.monitoredAllocs += sampled;
            cell.totalAllocs += sampled + unsampled;
        }

        cell.detectionPercent =
            safeRatePercent(cell.seedsDetected, cell.seedsRun);
        cell.meanOverheadPercent =
            safeMean(overheadSum, cell.seedsRun);
        cell.meanCatchSeconds =
            safeMean(catchSecondsSum, cell.seedsDetected);
        cell.meanTotalCycles = cyclesSum / config.seeds;
        cell.monitoredPercent =
            safeRatePercent(cell.monitoredAllocs, cell.totalAllocs);
        result.cells.push_back(cell);
    }
    return result;
}

std::string
formatFleetReport(const FleetResult &result)
{
    std::ostringstream os;
    os << "=== fleet: " << result.procs << "x " << result.app
       << " (buggy), " << result.requests << " requests/tenant, "
       << result.seeds << " seeds ===\n";
    os << std::left << std::setw(20) << "tool" << std::right
       << std::setw(10) << "detect%" << std::setw(12) << "overhead%"
       << std::setw(12) << "catch(s)" << std::setw(12) << "monitored%"
       << std::setw(12) << "0-sample" << "\n";
    os << std::fixed;
    for (const FleetCell &cell : result.cells) {
        os << std::left << std::setw(20) << cell.tool << std::right;
        os.precision(1);
        os << std::setw(10) << cell.detectionPercent << std::setw(12)
           << cell.meanOverheadPercent;
        os.precision(3);
        os << std::setw(12) << cell.meanCatchSeconds;
        os.precision(1);
        os << std::setw(12) << cell.monitoredPercent << std::setw(12)
           << cell.zeroSampleTenants << "\n";
    }
    os << (result.identical
               ? "worker-count identity: PASS (bit-identical results)"
               : "worker-count identity: FAIL (results differ by pool "
                 "size)")
       << "\n";
    return os.str();
}

std::string
fleetJson(const FleetResult &result)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"bench\": \"fleet\",\n";
    os << "  \"app\": \"" << result.app << "\",\n";
    os << "  \"procs\": " << result.procs << ",\n";
    os << "  \"requests\": " << result.requests << ",\n";
    os << "  \"seeds\": " << result.seeds << ",\n";
    os << "  \"base_seed\": " << result.baseSeed << ",\n";
    os << "  \"identical\": " << (result.identical ? "true" : "false")
       << ",\n";
    os << "  \"cells\": [\n";
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
        const FleetCell &cell = result.cells[i];
        os << "    {\n";
        os << "      \"tool\": \"" << cell.tool << "\",\n";
        os << "      \"kind\": \"" << toolKindName(cell.kind) << "\",\n";
        os << "      \"rate\": " << jsonNumber(cell.rate) << ",\n";
        os << "      \"seeds_run\": " << cell.seedsRun << ",\n";
        os << "      \"seeds_detected\": " << cell.seedsDetected << ",\n";
        os << "      \"detection_percent\": "
           << jsonNumber(cell.detectionPercent) << ",\n";
        os << "      \"mean_overhead_percent\": "
           << jsonNumber(cell.meanOverheadPercent) << ",\n";
        os << "      \"mean_catch_seconds\": "
           << jsonNumber(cell.meanCatchSeconds) << ",\n";
        os << "      \"mean_total_cycles\": " << cell.meanTotalCycles
           << ",\n";
        os << "      \"monitored_allocs\": " << cell.monitoredAllocs
           << ",\n";
        os << "      \"total_allocs\": " << cell.totalAllocs << ",\n";
        os << "      \"monitored_percent\": "
           << jsonNumber(cell.monitoredPercent) << ",\n";
        os << "      \"zero_sample_tenants\": " << cell.zeroSampleTenants
           << "\n";
        os << "    }" << (i + 1 < result.cells.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
    os << "}\n";
    return os.str();
}

} // namespace safemem
