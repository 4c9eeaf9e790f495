#include "workloads/cli.h"

#include <fstream>
#include <memory>
#include <sstream>

#include "check/simcheck.h"
#include "ecc/parse_number.h"
#include "trace/trace.h"
#include "workloads/paper.h"
#include "workloads/report_writer.h"

namespace safemem {

std::optional<ToolKind>
toolKindFromName(const std::string &name)
{
    for (ToolKind kind : {ToolKind::None, ToolKind::SafeMemML,
                          ToolKind::SafeMemMC, ToolKind::SafeMemBoth,
                          ToolKind::SafeMemSampled, ToolKind::PageProtBoth,
                          ToolKind::Purify}) {
        if (name == toolKindName(kind))
            return kind;
    }
    return std::nullopt;
}

std::string
cliUsage()
{
    std::ostringstream os;
    os << "usage: safemem_run <app|all> [options]\n"
       << "       safemem_run campaign [campaign options]\n"
       << "       safemem_run paper\n"
       << "\n"
       << "apps:";
    for (const std::string &name : appNames())
        os << " " << name;
    os << "\n"
       << "('all' sweeps every app under the selected tool;\n"
       << " 'campaign' runs the ECC fault-injection campaign instead;\n"
       << " 'paper' prints Tables 2-5, Figure 3 and the ablations as\n"
       << " markdown on every core, and takes no options)\n"
       << "\noptions:\n"
       << "  --tool <name>     none | safemem-ml | safemem-mc | safemem |"
          " safemem-sampled |\n"
       << "                    pageprot | purify (default: safemem)\n"
       << "  --sample-rate <r> safemem-sampled: fraction of allocations\n"
       << "                    monitored, in (0, 1] (default: 1.0)\n"
       << "  --buggy           use bug-triggering inputs\n"
       << "  --requests <n>    work items to process (default: per app)\n"
       << "  --seed <n>        request-stream seed (default: 42)\n"
       << "  --workers <n>     parallel runs for sweeps/overhead pairs\n"
       << "                    (default: 1 = sequential, 0 = all cores)\n"
       << "  --procs <n>       consolidate n instances of the workload as\n"
       << "                    separate processes on one machine "
          "(default: 1)\n"
       << "  --overhead        also run uninstrumented and report the "
          "overhead\n"
       << "  --stats[=prefix]  dump run counters (optionally filtered)\n"
       << "  --simcheck        enable the SimCheck invariant auditor\n"
       << "  --trace <file>    record a flight-recorder trace per run;\n"
       << "                    decode with tools/trace_dump\n"
       << "  --codec <spec>    ECC codec the machine runs: hsiao (default)"
          " |\n"
       << "                    hamming64/8 | hsiao:<d>[/<k>]\n"
       << "  --geometry <g>    protection geometry: word (default) |\n"
       << "                    block:<512|1024|4096>[/parity|/crc32]\n"
       << "\ncampaign options:\n"
       << "  --codec <spec>    codec to sweep (repeatable; default: the\n"
       << "                    full zoo: hsiao, hamming64/8, hsiao:64/8)\n"
       << "  --samples <n>     trials per sampled cell (default: 20000)\n"
       << "  --seed <n>        campaign seed (default: 42)\n"
       << "  --workers <n>     worker threads, results independent of n\n"
       << "                    (default: 1, 0 = all cores)\n"
       << "  --out <file>      also write the campaign JSON document\n";
    return os.str();
}

CliParse
parseCliArguments(const std::vector<std::string> &args)
{
    CliParse result;
    if (args.empty()) {
        result.message = cliUsage();
        return result;
    }

    CliOptions options;
    options.params.seed = 42;
    options.params.requests = 0; // resolved after the app is known

    std::size_t i = 0;
    options.app = args[i++];
    options.allApps = options.app == "all";
    options.campaign = options.app == "campaign";
    options.paper = options.app == "paper";
    if (options.paper) {
        if (i < args.size())
            result.message = "paper takes no options\n\n" + cliUsage();
        else
            result.options = options;
        return result;
    }
    if (!options.allApps && !options.campaign && !makeApp(options.app)) {
        result.message = "unknown application '" + options.app + "'\n\n" +
                         cliUsage();
        return result;
    }

    auto need_value = [&](const std::string &flag) -> const std::string * {
        if (i >= args.size()) {
            result.message = flag + " needs a value\n\n" + cliUsage();
            return nullptr;
        }
        return &args[i++];
    };
    // Every numeric flag: the whole value must be decimal digits in the
    // range of @p out's type, so a sign, a space, a suffix or an
    // overflow is rejected rather than thrown, wrapped or narrowed.
    auto need_count = [&](const std::string &flag, auto &out) -> bool {
        const std::string *value = need_value(flag);
        if (!value)
            return false;
        if (parseWholeNumber(*value, out))
            return true;
        result.message = flag + " needs a whole number in range, not '" +
                         *value + "'\n\n" + cliUsage();
        return false;
    };

    if (options.campaign) {
        CampaignConfig &config = options.campaignConfig;
        while (i < args.size()) {
            const std::string &arg = args[i++];
            if (arg == "--samples") {
                if (!need_count(arg, config.samples))
                    return result;
            } else if (arg == "--seed") {
                if (!need_count(arg, config.seed))
                    return result;
            } else if (arg == "--workers") {
                if (!need_count(arg, config.workers))
                    return result;
            } else if (arg == "--codec") {
                const std::string *value = need_value(arg);
                if (!value)
                    return result;
                auto spec = parseCodecSpec(*value);
                if (!spec) {
                    result.message = "unknown codec '" + *value + "'\n\n" +
                                     cliUsage();
                    return result;
                }
                config.codecs.push_back(*spec);
            } else if (arg == "--out") {
                const std::string *value = need_value(arg);
                if (!value)
                    return result;
                options.campaignOut = *value;
            } else {
                result.message =
                    "unknown campaign option '" + arg + "'\n\n" +
                    cliUsage();
                return result;
            }
        }
        result.options = options;
        return result;
    }

    while (i < args.size()) {
        const std::string &arg = args[i++];
        if (arg == "--buggy") {
            options.params.buggy = true;
        } else if (arg == "--overhead") {
            options.compareBaseline = true;
        } else if (arg == "--simcheck") {
            options.simCheck = true;
        } else if (arg == "--stats") {
            options.dumpStats = true;
        } else if (arg.rfind("--stats=", 0) == 0) {
            options.dumpStats = true;
            options.statsPrefix = arg.substr(8);
        } else if (arg == "--tool") {
            const std::string *value = need_value("--tool");
            if (!value)
                return result;
            auto kind = toolKindFromName(*value);
            if (!kind) {
                result.message =
                    "unknown tool '" + *value + "'\n\n" + cliUsage();
                return result;
            }
            options.tool = *kind;
        } else if (arg == "--requests") {
            if (!need_count(arg, options.params.requests))
                return result;
        } else if (arg == "--seed") {
            if (!need_count(arg, options.params.seed))
                return result;
        } else if (arg == "--sample-rate") {
            const std::string *value = need_value("--sample-rate");
            if (!value)
                return result;
            double rate = parseWholeNumber<double>(*value).value_or(0.0);
            if (!(rate > 0.0) || rate > 1.0) {
                result.message =
                    "--sample-rate needs a value in (0, 1]\n\n" +
                    cliUsage();
                return result;
            }
            options.params.sampleRate = rate;
        } else if (arg == "--trace") {
            const std::string *value = need_value("--trace");
            if (!value)
                return result;
            options.traceFile = *value;
        } else if (arg == "--codec") {
            const std::string *value = need_value("--codec");
            if (!value)
                return result;
            auto spec = parseCodecSpec(*value);
            if (!spec) {
                result.message =
                    "unknown codec '" + *value + "'\n\n" + cliUsage();
                return result;
            }
            options.params.codec = *spec;
        } else if (arg == "--geometry") {
            const std::string *value = need_value("--geometry");
            if (!value)
                return result;
            auto geometry = parseGeometry(*value);
            if (!geometry) {
                result.message =
                    "unknown geometry '" + *value + "'\n\n" + cliUsage();
                return result;
            }
            options.params.geometry = *geometry;
        } else if (arg == "--workers") {
            if (!need_count(arg, options.workers))
                return result;
        } else if (arg == "--procs") {
            if (!need_count(arg, options.procs))
                return result;
            if (options.procs < 1) {
                result.message =
                    "--procs needs at least 1\n\n" + cliUsage();
                return result;
            }
        } else {
            result.message =
                "unknown option '" + arg + "'\n\n" + cliUsage();
            return result;
        }
    }

    // "all" keeps requests at 0: each swept app resolves its own
    // default when the matrix is assembled in runCli().
    if (options.params.requests == 0 && !options.allApps)
        options.params.requests = defaultRequests(options.app);
    result.options = options;
    return result;
}

namespace {

/** Assemble the sweep/overhead matrix one CLI invocation describes. */
std::vector<RunSpec>
cliSpecs(const CliOptions &options)
{
    std::vector<RunSpec> specs;
    const bool baseline =
        options.compareBaseline && options.tool != ToolKind::None;
    std::vector<std::string> apps;
    if (options.allApps)
        apps = appNames();
    else
        apps.push_back(options.app);

    for (const std::string &app : apps) {
        RunParams params = options.params;
        if (params.requests == 0)
            params.requests = defaultRequests(app);
        specs.push_back(RunSpec{app, options.tool, params, options.procs});
        if (baseline)
            specs.push_back(
                RunSpec{app, ToolKind::None, params, options.procs});
    }
    return specs;
}

/** @return the trace-section label of @p spec, e.g. "gzip/safemem+buggy". */
std::string
traceLabel(const RunSpec &spec)
{
    std::string label = spec.app;
    label += "/";
    label += toolKindName(spec.tool);
    if (spec.params.buggy)
        label += "+buggy";
    if (spec.procs > 1)
        label += "+procs" + std::to_string(spec.procs);
    if (!spec.params.geometry.isWord())
        label += "+" + geometryLabel(spec.params.geometry);
    return label;
}

} // namespace

CliRun
runCli(const CliOptions &options)
{
    CliRun run;
    if (options.paper)
        return runPaper();
    if (options.campaign) {
        CampaignResult campaign = runCampaign(options.campaignConfig);
        run.report = formatCampaignReport(campaign);
        if (!options.campaignOut.empty()) {
            std::ofstream file(options.campaignOut);
            file << campaignJson(campaign);
            file.close();
            if (!file) {
                run.ok = false;
                run.report += "cannot write campaign file '" +
                              options.campaignOut + "'\n";
            } else {
                run.report +=
                    "campaign json -> " + options.campaignOut + "\n";
            }
        }
        return run;
    }

    if (options.simCheck)
        SimCheck::instance().setEnabled(true);

    const bool baseline =
        options.compareBaseline && options.tool != ToolKind::None;
    const std::size_t per_app = baseline ? 2 : 1;
    std::vector<RunSpec> specs = cliSpecs(options);

    // One independent flight recorder per matrix cell: parallel runs
    // never share a ring, and the file keeps one section per run.
    std::vector<std::unique_ptr<Trace>> traces;
    if (!options.traceFile.empty()) {
        traces.reserve(specs.size());
        for (RunSpec &spec : specs) {
            traces.push_back(std::make_unique<Trace>());
            spec.params.trace = traces.back().get();
        }
    }

    std::vector<MatrixCell> cells = runMatrix(specs, options.workers);

    std::ostringstream os;
    for (std::size_t i = 0; i < cells.size(); i += per_app) {
        const MatrixCell &cell = cells[i];
        if (!cell.ok()) {
            run.ok = false;
            os << cell.spec.app << ": run failed: " << cell.error << "\n";
            continue;
        }
        os << formatRunSummary(cell.result);
        if (baseline) {
            const MatrixCell &base = cells[i + 1];
            if (base.ok()) {
                os << "  " << formatOverhead(cell.result, base.result)
                   << "\n";
            } else {
                run.ok = false;
                os << "  baseline run failed: " << base.error << "\n";
            }
        }
        if (options.dumpStats)
            os << "\ncounters:\n"
               << formatStats(cell.result, options.statsPrefix);
    }

    if (!options.traceFile.empty()) {
        std::ofstream file(options.traceFile, std::ios::binary);
        for (std::size_t i = 0; file && i < specs.size(); ++i)
            writeTraceSection(file, *traces[i], traceLabel(specs[i]));
        file.close();
        if (!file) {
            run.ok = false;
            os << "cannot write trace file '" << options.traceFile
               << "'\n";
        } else {
            os << "trace: " << specs.size() << " run section"
               << (specs.size() == 1 ? "" : "s") << " -> "
               << options.traceFile << "\n";
        }
    }
    run.report = os.str();
    return run;
}

} // namespace safemem
