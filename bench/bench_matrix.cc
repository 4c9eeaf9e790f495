/**
 * @file
 * Measures the parallel run-matrix harness: wall-clock of the full
 * Table 3 matrix (7 apps x 6 tool configurations) executed serially
 * (workers=1) vs in parallel, and verifies the two sweeps produce
 * bit-identical results cell for cell.
 *
 *   build/bench/bench_matrix                  # human-readable
 *   build/bench/bench_matrix --json           # BENCH_matrix.json shape
 *   build/bench/bench_matrix --requests 200   # reduced load (CI smoke)
 *   build/bench/bench_matrix --workers 2      # fixed fan-out
 *
 * The speedup scales with available cores; on a single-core host the
 * parallel sweep degenerates to time-sliced serial execution and the
 * ratio stays near 1.0 (hardware_threads in the JSON records this).
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "ecc/parse_number.h"
#include "workloads/driver.h"

using namespace safemem;

namespace {

/** The full Table 3 matrix; @p requests 0 keeps the paper defaults. */
std::vector<RunSpec>
table3Specs(const Log &quiet, std::uint64_t requests)
{
    std::vector<RunSpec> specs;
    for (const std::string &app : appNames()) {
        for (bool buggy : {true, false}) {
            RunParams params = paperParams(app, buggy);
            if (requests != 0)
                params.requests = requests;
            params.log = &quiet;
            if (buggy) {
                specs.push_back({app, ToolKind::SafeMemBoth, params});
                continue;
            }
            for (ToolKind tool :
                 {ToolKind::None, ToolKind::SafeMemML, ToolKind::SafeMemMC,
                  ToolKind::SafeMemBoth, ToolKind::Purify})
                specs.push_back({app, tool, params});
        }
    }
    return specs;
}

double
timedRun(const std::vector<RunSpec> &specs, unsigned workers,
         std::vector<MatrixCell> &cells)
{
    const auto start = std::chrono::steady_clock::now();
    cells = runMatrix(specs, workers);
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count();
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    std::uint64_t requests = 0; // 0 = paper defaults
    unsigned workers = 0;       // 0 = all cores

    // A flag whose value is missing or not a whole number in range
    // falls through to the usage line.
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg == "--requests" && i + 1 < argc &&
                   parseWholeNumber(argv[++i], requests)) {
        } else if (arg == "--workers" && i + 1 < argc &&
                   parseWholeNumber(argv[++i], workers)) {
        } else {
            std::fprintf(stderr,
                         "usage: bench_matrix [--json] [--requests <n>] "
                         "[--workers <n>]\n");
            return 1;
        }
    }

    const Log quiet = Log::quiet();
    const std::vector<RunSpec> specs = table3Specs(quiet, requests);
    const unsigned resolved = clampWorkers(workers, specs.size());

    std::vector<MatrixCell> serial;
    std::vector<MatrixCell> parallel;
    const double serial_s = timedRun(specs, 1, serial);
    const double parallel_s = timedRun(specs, resolved, parallel);

    bool identical = serial.size() == parallel.size();
    for (std::size_t i = 0; identical && i < serial.size(); ++i) {
        if (!serial[i].ok() || !parallel[i].ok() ||
            !(serial[i].result == parallel[i].result))
            identical = false;
    }

    const double speedup = parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
    const unsigned hw = std::thread::hardware_concurrency();

    if (json) {
        std::printf("{\n");
        std::printf("  \"bench\": \"matrix\",\n");
        std::printf("  \"cells\": %zu,\n", specs.size());
        std::printf("  \"requests\": %llu,\n",
                    static_cast<unsigned long long>(requests));
        std::printf("  \"workers\": %u,\n", resolved);
        std::printf("  \"hardware_threads\": %u,\n", hw);
        std::printf("  \"serial_seconds\": %.3f,\n", serial_s);
        std::printf("  \"parallel_seconds\": %.3f,\n", parallel_s);
        std::printf("  \"speedup\": %.2f,\n", speedup);
        std::printf("  \"identical\": %s\n", identical ? "true" : "false");
        std::printf("}\n");
    } else {
        std::printf("run matrix: %zu cells (Table 3 sweep%s)\n",
                    specs.size(),
                    requests != 0 ? ", reduced requests" : "");
        std::printf("  serial   (workers=1):  %7.3f s\n", serial_s);
        std::printf("  parallel (workers=%u): %7.3f s  (%u hw threads)\n",
                    resolved, parallel_s, hw);
        std::printf("  speedup: %.2fx, results bit-identical: %s\n",
                    speedup, identical ? "yes" : "NO");
    }
    return identical ? 0 : 1;
}
