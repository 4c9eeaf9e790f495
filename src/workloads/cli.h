/**
 * @file
 * Argument parsing for the `safemem_run` command-line harness, kept in
 * the library so it is unit-testable; the tool's main() is a thin shim.
 */

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "workloads/campaign.h"
#include "workloads/driver.h"

namespace safemem {

/** Parsed command line of the safemem_run tool. */
struct CliOptions
{
    std::string app;              ///< one application, or "all"
    ToolKind tool = ToolKind::SafeMemBoth;
    RunParams params;
    bool allApps = false;         ///< app was "all": sweep every workload
    unsigned workers = 1;         ///< --workers: matrix fan-out (0 = cores)
    std::uint32_t procs = 1;      ///< --procs: consolidated processes/cell
    bool compareBaseline = false; ///< --overhead: also run uninstrumented
    bool dumpStats = false;       ///< --stats: print every counter
    bool simCheck = false;        ///< --simcheck: enable invariant audits
    std::string statsPrefix;      ///< --stats=<prefix>
    std::string traceFile;        ///< --trace: flight-recorder output file
    bool campaign = false;        ///< app was "campaign": codec sweep
    bool paper = false;           ///< app was "paper": the evaluation
    CampaignConfig campaignConfig; ///< campaign-mode parameters
    std::string campaignOut;      ///< --out: campaign JSON file ("" = none)
};

/** Outcome of parsing: options, or an error/usage message. */
struct CliParse
{
    std::optional<CliOptions> options;
    std::string message; ///< error or usage text when !options
};

/** Parse argv (without the program name). */
CliParse parseCliArguments(const std::vector<std::string> &args);

/** @return the tool kind named by @p name, if any. */
std::optional<ToolKind> toolKindFromName(const std::string &name);

/** @return the usage text. */
std::string cliUsage();

/** What executing a command line produced. */
struct CliRun
{
    std::string report; ///< the formatted report, for stdout
    /** False when a run (an --overhead baseline included) failed or an
     *  output file could not be written; the report says which. */
    bool ok = true;
};

/** Execute the parsed run(s) and return the formatted report. */
CliRun runCli(const CliOptions &options);

} // namespace safemem
