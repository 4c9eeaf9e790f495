/**
 * @file
 * Base interface of the seven workload applications (paper Table 1).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "ecc/codec.h"
#include "ecc/geometry.h"
#include "workloads/env.h"

namespace safemem {

class Trace;

/** Run parameters shared by all applications. */
struct RunParams
{
    /** Number of requests / work items to process. */
    std::uint64_t requests = 2000;
    /** Buggy inputs: the injected bug triggers. Normal inputs do not
     *  exercise the bug (the paper measures overhead on normal inputs). */
    bool buggy = false;
    /**
     * Deterministic RNG seed for the request stream. Together with
     * requests/buggy it fully determines a run: same parameters, same
     * RunResult, bit for bit, regardless of what else the process is
     * doing — the contract runMatrix() builds on.
     */
    std::uint64_t seed = 1;
    /**
     * ECC codec the run's machine is built with. Part of the RunSpec
     * identity like seed/requests: same spec, same RunResult. The
     * default names the shared (72,64) Hsiao code and takes the exact
     * pre-pluggable datapath (no per-run codec is constructed).
     */
    EccCodecSpec codec;
    /**
     * Deprecated; must stay 1. The machine has one memory bus. This
     * field exists only because perfbench/traced.cc copies it into
     * MachineConfig::banks; both go with that line in the next
     * benchmark change. Nothing in src/ reads it.
     */
    std::uint32_t banks = 1;
    /**
     * SampledSafeMem (ToolKind::SafeMemSampled): probability an
     * allocation is admitted into the detectors; other tools ignore it.
     * Part of the run identity like seed/codec: same spec, same
     * RunResult. 1.0 (the default) monitors every allocation and is
     * detection-equivalent to full SafeMem.
     */
    double sampleRate = 1.0;
    /**
     * Protection geometry the run's machine is built with
     * (MachineConfig::geometry). Part of the run identity like
     * seed/codec: same spec, same RunResult. The word default is
     * the per-word SEC-DED datapath and reproduces the pre-geometry
     * results bit for bit; block geometries add the "geometry.*" stat
     * family to the result.
     */
    ProtectionGeometry geometry{};
    /**
     * Per-run log sink (must outlive the run); the driver routes every
     * message the run emits — kernel warnings, SimCheck reports — to
     * it, so concurrent runs cannot interleave. Null: the sink of the
     * calling thread's LogScope, which runMatrix workers and
     * consolidated process threads inherit, or stderr without one.
     */
    const Log *log = nullptr;
    /**
     * Per-run flight recorder (must outlive the run); routed like
     * `log` — the driver installs it on the run's thread and on the
     * machine, so concurrent runMatrix() cells each record into their
     * own ring. Null: tracing off.
     */
    Trace *trace = nullptr;
};

class App
{
  public:
    virtual ~App() = default;

    /** Short application name as used in the paper's tables. */
    virtual const char *name() const = 0;

    /** Execute the workload in @p env. */
    virtual void run(Env &env, const RunParams &params) = 0;
};

/** @return the application registered under @p name (or nullptr). */
std::unique_ptr<App> makeApp(const std::string &name);

/** @return all seven application names in paper order. */
const std::vector<std::string> &appNames();

} // namespace safemem
