/**
 * @file
 * The fleet-scale sampled-monitoring benchmark behind BENCH_fleet.json:
 * N consolidated squid2 tenants (the use-after-free server) per run,
 * swept over monitoring configurations — uninstrumented, full SafeMem,
 * Purify, SampledSafeMem at several rates — and over seeds, comparing
 * overhead, detection probability, and time-to-first-catch.
 *
 * The JSON output carries no wall-clock fields, so the same
 * configuration printed from any --workers count compares byte-equal —
 * the property the CI fleet-smoke stage enforces with cmp(1). The
 * worker-count identity check itself runs inside runFleet() (the whole
 * matrix re-executed with a different pool size) and the process exits
 * non-zero when any result moved.
 *
 *   build/bench/bench_fleet                 # human-readable table
 *   build/bench/bench_fleet --json          # BENCH_fleet.json shape
 *   build/bench/bench_fleet --procs 4 --seeds 2 --requests 120  # smoke
 */

#include <cstdio>
#include <exception>
#include <string>

#include "common/logging.h"
#include "ecc/parse_number.h"
#include "workloads/fleet.h"

using namespace safemem;

int
main(int argc, char **argv)
{
    bool json = false;
    FleetConfig config;
    config.requests = 300;
    config.workers = 0;       // all cores
    config.verifyWorkers = 1; // serial re-run proves pool independence

    // A flag whose value is missing or not a whole number in range
    // falls through to the usage line.
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg == "--requests" && i + 1 < argc &&
                   parseWholeNumber(argv[++i], config.requests)) {
        } else if (arg == "--seeds" && i + 1 < argc &&
                   parseWholeNumber(argv[++i], config.seeds)) {
        } else if (arg == "--procs" && i + 1 < argc &&
                   parseWholeNumber(argv[++i], config.procs)) {
        } else if (arg == "--workers" && i + 1 < argc &&
                   parseWholeNumber(argv[++i], config.workers)) {
        } else if (arg == "--no-verify") {
            config.verifyWorkers = 0;
        } else {
            std::fprintf(stderr,
                         "usage: bench_fleet [--json] [--requests <n>] "
                         "[--seeds <n>] [--procs <n>] [--workers <n>] "
                         "[--no-verify]\n");
            return 1;
        }
    }

    const Log quiet = Log::quiet();
    config.log = &quiet;
    // The verify pass must use a different pool size than the primary
    // pass or it proves nothing.
    if (config.verifyWorkers == config.workers)
        config.verifyWorkers = config.workers == 1 ? 2 : 1;

    FleetResult result;
    try {
        result = runFleet(config);
    } catch (const std::exception &err) {
        std::fprintf(stderr, "bench_fleet: %s\n", err.what());
        return 1;
    }

    if (json)
        std::fputs(fleetJson(result).c_str(), stdout);
    else
        std::fputs(formatFleetReport(result).c_str(), stdout);
    return result.identical ? 0 : 1;
}
