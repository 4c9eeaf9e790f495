/**
 * @file
 * Fleet-scale sampled-monitoring scenario: the "millions of users"
 * experiment SampledSafeMem exists for.
 *
 * One fleet run consolidates N request-churning server tenants on one
 * machine (createProcess/exitProcess churn, shared memory bus, cache
 * and scrubber) and repeats that across many seeds for each monitoring
 * configuration: uninstrumented, full SafeMem, Purify, and SampledSafeMem
 * at several rates. Per configuration it aggregates
 *
 *   - overhead: mean simulated-cycle overhead vs the uninstrumented
 *     fleet at the same seed;
 *   - detection probability: fraction of seeds whose injected bug was
 *     caught anywhere in the fleet;
 *   - time-to-first-catch: mean app-CPU time of the earliest bug-site
 *     report over the detecting seeds.
 *
 * Every run is a pure function of its RunSpec, so the whole sweep is
 * bit-identical for any worker count — runFleet() can re-execute the
 * matrix at a second worker count and assert equality. All rate/mean
 * columns use the guarded helpers in report_writer.h, so a tenant that
 * samples nothing or a rate that never detects renders 0, never NaN.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads/driver.h"

namespace safemem {

/** Parameters of one fleet sweep. */
struct FleetConfig
{
    /** Server workload every tenant runs (buggy inputs). */
    std::string app = "squid2";
    /** Consolidated tenant processes per run. */
    std::uint32_t procs = 8;
    /** Requests per tenant. */
    std::uint64_t requests = 300;
    /** Distinct fleet seeds per configuration. */
    std::uint32_t seeds = 5;
    /** First seed; seed k runs at baseSeed + 1009 * k. */
    std::uint64_t baseSeed = 42;
    /** SampledSafeMem rates to sweep (each adds a configuration). */
    std::vector<double> rates = {1.0 / 16, 1.0 / 64, 1.0 / 256};
    /** Worker threads for the run matrix (0 = all cores). */
    unsigned workers = 1;
    /**
     * When non-zero, execute the matrix a second time with this many
     * workers and record whether every result matched bit for bit
     * (FleetResult::identical). 0 skips the check (identical = true).
     */
    unsigned verifyWorkers = 0;
    /** Per-run log sink (must outlive the sweep); null = default. */
    const Log *log = nullptr;
};

/** Aggregated outcome of one monitoring configuration. */
struct FleetCell
{
    /** Short label: "none", "safemem", "purify", "sampled@0.015625". */
    std::string tool;
    ToolKind kind = ToolKind::None;
    /** Sampling rate (1.0 for non-sampled configurations). */
    double rate = 1.0;

    std::uint32_t seedsRun = 0;
    std::uint32_t seedsDetected = 0;
    /** 100 * seedsDetected / seedsRun (guarded). */
    double detectionPercent = 0.0;
    /** Mean overhead vs the same-seed uninstrumented run, percent. */
    double meanOverheadPercent = 0.0;
    /** Mean time-to-first-catch over detecting seeds, seconds of app
     *  CPU time; 0 when no seed detected (guarded). */
    double meanCatchSeconds = 0.0;
    /** Mean simulated wall clock over seeds, cycles. */
    Cycles meanTotalCycles = 0;

    /** @name Sampling traffic split (zero for non-sampled cells) */
    /// @{
    std::uint64_t monitoredAllocs = 0;
    std::uint64_t totalAllocs = 0;
    /** 100 * monitoredAllocs / totalAllocs (guarded). */
    double monitoredPercent = 0.0;
    /** Tenant processes whose sample count was zero — the cells whose
     *  rate columns would divide by zero without the guards. */
    std::uint64_t zeroSampleTenants = 0;
    /// @}

    bool operator==(const FleetCell &) const = default;
};

/** Everything one fleet sweep produced. */
struct FleetResult
{
    std::string app;
    std::uint32_t procs = 0;
    std::uint64_t requests = 0;
    std::uint32_t seeds = 0;
    std::uint64_t baseSeed = 0;
    /** Configurations in sweep order: none, safemem, purify, sampled@r. */
    std::vector<FleetCell> cells;
    /** True when the verify pass (if any) matched bit for bit. */
    bool identical = true;

    bool operator==(const FleetResult &) const = default;
};

/** Run the fleet sweep described by @p config. */
FleetResult runFleet(const FleetConfig &config);

/** @return the human-readable fleet report (table + verdict line). */
std::string formatFleetReport(const FleetResult &result);

/**
 * @return the BENCH_fleet.json document for @p result: config echo plus
 * one object per configuration. Contains no wall-clock fields, so two
 * sweeps of the same config compare byte-equal regardless of workers.
 */
std::string fleetJson(const FleetResult &result);

} // namespace safemem
