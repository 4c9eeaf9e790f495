/**
 * @file
 * Command-line harness: run any evaluation workload under any tool
 * configuration and print the monitoring report.
 *
 *   build/tools/safemem_run squid1 --buggy
 *   build/tools/safemem_run gzip --tool purify --overhead
 *   build/tools/safemem_run ypserv1 --buggy --stats=leak
 *   build/tools/safemem_run all --overhead --workers 0   # parallel sweep
 *
 * Exits 1 on a bad command line, a failed run (an --overhead baseline
 * included), or an output file that could not be written.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.h"
#include "workloads/cli.h"

int
main(int argc, char **argv)
{
    // The report is the output: one quiet scope covers every run of the
    // command, matrix workers and process threads included.
    const safemem::Log quiet = safemem::Log::quiet();
    safemem::LogScope scope(quiet);
    std::vector<std::string> args(argv + 1, argv + argc);
    safemem::CliParse parse = safemem::parseCliArguments(args);
    if (!parse.options) {
        std::fprintf(stderr, "%s", parse.message.c_str());
        return 1;
    }
    safemem::CliRun run = safemem::runCli(*parse.options);
    std::fputs(run.report.c_str(), stdout);
    return run.ok ? 0 : 1;
}
