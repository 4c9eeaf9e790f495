#include "workloads/driver.h"

#include <memory>
#include <optional>
#include <thread>

#include "common/logging.h"
#include "common/mutex.h"
#include "common/parallel_for.h"
#include "trace/trace.h"
#include "pageprot/page_watch.h"
#include "purify/purify.h"
#include "safemem/safemem.h"
#include "safemem/sampled.h"
#include "safemem/watch_manager.h"
#include "workloads/null_tool.h"
#include "workloads/sites.h"

namespace safemem {

const char *
toolKindName(ToolKind kind)
{
    switch (kind) {
      case ToolKind::None: return "none";
      case ToolKind::SafeMemML: return "safemem-ml";
      case ToolKind::SafeMemMC: return "safemem-mc";
      case ToolKind::SafeMemBoth: return "safemem";
      case ToolKind::SafeMemSampled: return "safemem-sampled";
      case ToolKind::PageProtBoth: return "pageprot";
      case ToolKind::Purify: return "purify";
    }
    return "?";
}

std::uint64_t
defaultRequests(const std::string &app_name)
{
    if (app_name == "gzip")
        return 80; // blocks
    if (app_name == "tar")
        return 400; // files
    if (app_name == "stream")
        return 48; // 64 KiB batches
    return 2000; // server requests
}

namespace {

/** Copy every counter of @p stats into @p out under @p prefix. */
void
mergeStats(std::map<std::string, std::uint64_t> &out,
           const std::string &prefix, const StatSet &stats)
{
    for (const auto &[name, value] : stats.all())
        out[prefix + "." + name] = value;
}

/**
 * One process's monitoring configuration: allocator, watch backend,
 * tool, environment. Built while the owning process is the kernel's
 * current process, so every handler/hook registration lands on it.
 */
struct ToolStack
{
    std::unique_ptr<HeapAllocator> allocator;
    std::unique_ptr<EccWatchManager> eccBackend;
    std::unique_ptr<PageWatchBackend> pageBackend;
    std::unique_ptr<SafeMemTool> safememTool;
    std::unique_ptr<PurifyTool> purifyTool;
    std::unique_ptr<NullTool> nullTool;
    std::unique_ptr<Env> env;
    Tool *active = nullptr;
    /** Set when safememTool is the sampled variant (owned above). */
    SampledSafeMemTool *sampled = nullptr;
};

/** Assemble the @p tool stack for the kernel's current process. */
ToolStack
makeToolStack(Machine &machine, ToolKind tool, const RunParams &params)
{
    ToolStack stack;
    stack.allocator = std::make_unique<HeapAllocator>(machine);

    auto make_safemem = [&](WatchBackend &backend, bool ml, bool mc) {
        SafeMemConfig config;
        config.detectLeaks = ml;
        config.detectCorruption = mc;
        stack.safememTool = std::make_unique<SafeMemTool>(
            machine, *stack.allocator, backend, config);
        stack.active = stack.safememTool.get();
    };

    switch (tool) {
      case ToolKind::None:
        stack.nullTool =
            std::make_unique<NullTool>(machine, *stack.allocator);
        stack.active = stack.nullTool.get();
        break;

      case ToolKind::SafeMemML:
      case ToolKind::SafeMemMC:
      case ToolKind::SafeMemBoth:
        stack.eccBackend = std::make_unique<EccWatchManager>(machine);
        stack.eccBackend->installFaultHandler();
        stack.eccBackend->installScrubHooks();
        make_safemem(*stack.eccBackend, tool != ToolKind::SafeMemMC,
                     tool != ToolKind::SafeMemML);
        break;

      case ToolKind::SafeMemSampled: {
        stack.eccBackend = std::make_unique<EccWatchManager>(machine);
        stack.eccBackend->installFaultHandler();
        stack.eccBackend->installScrubHooks();
        SafeMemConfig config;
        config.sampleRate = params.sampleRate;
        // The run seed keys the sampling stream; together with the pid
        // and the allocation ordinal it makes every decision a pure
        // function of the RunSpec (the bit-identity contract).
        config.sampleSeed = params.seed;
        auto sampled = std::make_unique<SampledSafeMemTool>(
            machine, *stack.allocator, *stack.eccBackend, config,
            machine.kernel().currentPid());
        stack.sampled = sampled.get();
        stack.safememTool = std::move(sampled);
        stack.active = stack.safememTool.get();
        break;
      }

      case ToolKind::PageProtBoth:
        stack.pageBackend = std::make_unique<PageWatchBackend>(machine);
        stack.pageBackend->install();
        make_safemem(*stack.pageBackend, true, true);
        break;

      case ToolKind::Purify:
        stack.purifyTool =
            std::make_unique<PurifyTool>(machine, *stack.allocator);
        stack.purifyTool->install();
        stack.active = stack.purifyTool.get();
        break;
    }

    stack.env =
        std::make_unique<Env>(machine, *stack.allocator, *stack.active);
    if (stack.purifyTool) {
        Env *env = stack.env.get();
        stack.purifyTool->setRootProvider([env] { return env->roots(); });
    }
    return stack;
}

/**
 * Score @p stack's detector output against the workloads' ground truth
 * and merge its tool counters, filling the shared detector fields of
 * @p result (a RunResult or a ProcResult).
 */
template <typename Result>
void
scoreToolStack(const ToolStack &stack, Result &result)
{
    // Earliest true report = time-to-first-catch; 0 means never caught.
    auto note_catch = [&result](Cycles when) {
        if (result.firstCatchCycles == 0 ||
            when < result.firstCatchCycles)
            result.firstCatchCycles = when;
    };

    if (stack.safememTool) {
        if (stack.safememTool->config().detectLeaks) {
            const LeakDetector &leak = stack.safememTool->leakDetector();
            for (const LeakReport &report : leak.reports()) {
                if (isBuggySite(report.siteTag)) {
                    ++result.leakReportsTrue;
                    note_catch(report.reportTime);
                } else {
                    ++result.leakReportsFalse;
                    result.stats["leak.false_report_site." +
                                 std::to_string(report.siteTag &
                                                0xffffffffULL)] += 1;
                }
            }
            for (const LeakReport &report : leak.suspectedGroupReports()) {
                if (isBuggySite(report.siteTag)) {
                    ++result.suspectedTrue;
                } else {
                    ++result.suspectedFalse;
                    result.stats["leak.suspected_site." +
                                 std::to_string(report.siteTag &
                                                0xffffffffULL)] += 1;
                }
            }
            result.prunedSuspects = leak.prunedSuspects();
            for (const auto &entry : leak.stabilityData())
                result.stabilityWarmups.push_back(entry.warmUpTime);
            mergeStats(result.stats, "leak", leak.stats());
        }
        if (stack.safememTool->config().detectCorruption) {
            const CorruptionDetector &corruption =
                stack.safememTool->corruptionDetector();
            for (const CorruptionReport &report : corruption.reports()) {
                if (isBuggySite(report.siteTag)) {
                    ++result.corruptionTrue;
                    note_catch(report.reportTime);
                } else {
                    ++result.corruptionFalse;
                }
            }
            result.wasteBytes = corruption.cumulativeWasteBytes();
            result.userBytes = corruption.cumulativeUserBytes();
            mergeStats(result.stats, "corruption", corruption.stats());
        }
    }

    if (stack.purifyTool) {
        for (const CorruptionReport &report :
             stack.purifyTool->corruptionReports()) {
            if (isBuggySite(report.siteTag)) {
                ++result.corruptionTrue;
                note_catch(report.reportTime);
            } else {
                ++result.corruptionFalse;
                result.stats[std::string("purify.false_report.") +
                             corruptionKindName(report.kind) + ".site" +
                             std::to_string(report.siteTag &
                                            0xffffffffULL) + ".fault" +
                             std::to_string(report.faultAddr) + ".user" +
                             std::to_string(report.userAddr)] += 1;
            }
        }
        std::uint64_t leak_blocks_true = 0;
        for (const LeakReport &report : stack.purifyTool->leakReports()) {
            if (isBuggySite(report.siteTag)) {
                ++leak_blocks_true;
                note_catch(report.reportTime);
            } else {
                ++result.leakReportsFalse;
            }
        }
        // Purify reports per block; collapse the bug site to one hit.
        result.leakReportsTrue = leak_blocks_true > 0 ? 1 : 0;
        mergeStats(result.stats, "purify", stack.purifyTool->stats());
    }

    if (stack.sampled)
        mergeStats(result.stats, "sampled", stack.sampled->samplingStats());

    if (stack.eccBackend)
        mergeStats(result.stats, "watch", stack.eccBackend->stats());
    if (stack.pageBackend)
        mergeStats(result.stats, "watch", stack.pageBackend->stats());

    result.bugDetected =
        result.leakReportsTrue > 0 || result.corruptionTrue > 0;
}

} // namespace

RunResult
runWorkload(const std::string &app_name, ToolKind tool,
            const RunParams &params)
{
    // Route everything this run emits — kernel warnings, SimCheck
    // reports, detector findings — to the run's own sink. The scope is
    // thread-local, so concurrent runs keep independent sinks.
    std::optional<LogScope> log_scope;
    if (params.log)
        log_scope.emplace(*params.log);

    // Same routing for the flight recorder: the thread-local scope lets
    // SimCheck attach trace context to violations raised on this thread.
    std::optional<TraceScope> trace_scope;
    if (params.trace)
        trace_scope.emplace(*params.trace);

    std::unique_ptr<App> app = makeApp(app_name);
    if (!app)
        fatal("runWorkload: unknown application '", app_name, "'");

    MachineConfig machine_config;
    machine_config.memoryBytes = 192u << 20;
    machine_config.geometry = params.geometry;
    machine_config.log = params.log;
    machine_config.trace = params.trace;
    // Only a non-default codec allocates anything: the default spec
    // keeps the shared defaultCodec() instance and with it the exact
    // pre-pluggable behaviour, bit for bit.
    std::unique_ptr<EccCodec> codec;
    if (!(params.codec == EccCodecSpec{})) {
        codec = makeCodec(params.codec);
        machine_config.codec = codec.get();
    }
    Machine machine(machine_config);

    RunResult result;
    result.app = app_name;
    result.tool = tool;
    result.buggy = params.buggy;
    result.geometry = params.geometry;

    // Assemble the tool stack for this configuration (on the machine's
    // init process — single-process runs never create another).
    ToolStack stack = makeToolStack(machine, tool, params);

    app->run(*stack.env, params);
    stack.active->finish();

    result.totalCycles = machine.clock().now();
    result.appCycles = machine.clock().charged(CostCenter::Application);

    // Score detector output against the workloads' ground truth, then
    // append the machine-wide component counters.
    scoreToolStack(stack, result);
    mergeStats(result.stats, "kernel", machine.kernel().stats());
    mergeStats(result.stats, "tlb",
               machine.kernel().currentProcess().tlb().stats());
    mergeStats(result.stats, "cache", machine.cache().stats());
    mergeStats(result.stats, "controller", machine.controller().stats());
    mergeStats(result.stats, "geometry", machine.controller().geometryStats());
    mergeStats(result.stats, "alloc", stack.allocator->stats());
    return result;
}

namespace {

/**
 * Hand-off gate for consolidated runs: one token, one holder. Exactly
 * the thread whose process the machine last switched to may touch the
 * machine, so the simulation stays single-threaded in all but name —
 * bit-identical and data-race free (the mutex carries the
 * happens-before edge between consecutive holders).
 */
class TokenGate
{
  public:
    /** Thrown out of waitFor() to unwind threads on a failed run. */
    struct Aborted
    {
    };

    /** Block until @p pid holds the token (or the run aborts). */
    void
    waitFor(Pid pid) EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        while (!abort_ && running_ != pid)
            cv_.wait(mutex_);
        if (abort_)
            throw Aborted{};
    }

    /** Pass the token to @p pid. */
    void
    handOffTo(Pid pid) EXCLUDES(mutex_)
    {
        {
            MutexLock lock(mutex_);
            running_ = pid;
        }
        cv_.notify_all();
    }

    /** Fail the run: every thread blocked in waitFor() throws. */
    void
    abortAll() EXCLUDES(mutex_)
    {
        {
            MutexLock lock(mutex_);
            abort_ = true;
        }
        cv_.notify_all();
    }

  private:
    Mutex mutex_;
    CondVar cv_;
    Pid running_ GUARDED_BY(mutex_) = 0;
    bool abort_ GUARDED_BY(mutex_) = false;
};

/**
 * First-error-wins slot shared by the consolidated run's process
 * threads. take() is also safe after the threads are joined, which is
 * how runConsolidated reads the verdict.
 */
class ErrorSlot
{
  public:
    /** Record @p message unless an earlier error already claimed the run. */
    void
    setFirst(const std::string &message) EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        if (message_.empty())
            message_ = message;
    }

    /** @return the first recorded error, empty when the run succeeded. */
    std::string
    get() const EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        return message_;
    }

  private:
    mutable Mutex mutex_;
    std::string message_ GUARDED_BY(mutex_);
};

} // namespace

RunResult
runConsolidated(const RunSpec &spec)
{
    std::uint32_t nprocs = spec.procs < 1 ? 1 : spec.procs;

    std::optional<LogScope> log_scope;
    if (spec.params.log)
        log_scope.emplace(*spec.params.log);
    std::optional<TraceScope> trace_scope;
    if (spec.params.trace)
        trace_scope.emplace(*spec.params.trace);

    MachineConfig machine_config;
    machine_config.memoryBytes =
        (192u << 20) + static_cast<std::size_t>(96u << 20) * (nprocs - 1);
    machine_config.geometry = spec.params.geometry;
    machine_config.log = spec.params.log;
    machine_config.trace = spec.params.trace;
    std::unique_ptr<EccCodec> codec;
    if (!(spec.params.codec == EccCodecSpec{})) {
        codec = makeCodec(spec.params.codec);
        machine_config.codec = codec.get();
    }
    Machine machine(machine_config);
    Kernel &kernel = machine.kernel();

    RunResult result;
    result.app = spec.app;
    result.tool = spec.tool;
    result.buggy = spec.params.buggy;
    result.geometry = spec.params.geometry;

    // Boot one process per workload instance. Stacks are built with the
    // owning process current, so handlers, hooks and heap mappings all
    // land in the right address space; instances diverge via seed + k.
    struct ProcRun
    {
        Pid pid = 0;
        RunParams params;
        std::unique_ptr<App> app;
        ToolStack stack;
    };
    std::vector<ProcRun> runs(nprocs);
    for (std::uint32_t k = 0; k < nprocs; ++k) {
        ProcRun &run = runs[k];
        run.app = makeApp(spec.app);
        if (!run.app)
            fatal("runConsolidated: unknown application '", spec.app, "'");
        run.params = spec.params;
        run.params.seed = spec.params.seed + k;
        run.pid = kernel.createProcess();
        kernel.setCurrentProcess(run.pid);
        run.stack = makeToolStack(machine, spec.tool, run.params);
        machine.scheduler().admit(run.pid);
    }

    TokenGate gate;
    machine.setYieldHook([&gate](Pid from, Pid to) {
        gate.handOffTo(to);
        gate.waitFor(from);
    });

    // Point the machine at the first workload before its thread starts;
    // from here on only the token holder touches the machine.
    kernel.setCurrentProcess(runs.front().pid);

    ErrorSlot error;
    // The run's own sink, or else the caller's: one scope covers a whole
    // command, process threads included.
    const Log *log = currentLog();
    std::vector<std::thread> threads;
    threads.reserve(nprocs);
    for (ProcRun &run : runs) {
        threads.emplace_back([&, &run = run] {
            // Per-thread sink/recorder scopes: handlers fired while this
            // thread drives the machine report through the run's sinks.
            std::optional<LogScope> thread_log;
            if (log)
                thread_log.emplace(*log);
            std::optional<TraceScope> thread_trace;
            if (spec.params.trace)
                thread_trace.emplace(*spec.params.trace);
            try {
                gate.waitFor(run.pid);
                run.app->run(*run.stack.env, run.params);
                run.stack.active->finish();

                // Exit: pick the successor while still runnable (round
                // robin continues from this slot), leave the run queue,
                // become a zombie, and hand the machine over. The last
                // process to finish picks itself and just returns.
                std::optional<Pid> next =
                    machine.scheduler().pickNext(run.pid);
                machine.scheduler().markExited(run.pid);
                kernel.exitProcess(run.pid);
                if (next && *next != run.pid) {
                    machine.contextSwitchTo(*next);
                    gate.handOffTo(*next);
                }
            } catch (const TokenGate::Aborted &) {
                // Another process's failure ended the run.
            } catch (const std::exception &err) {
                error.setFirst(err.what());
                gate.abortAll();
            }
        });
    }

    gate.handOffTo(runs.front().pid);
    for (std::thread &thread : threads)
        thread.join();
    machine.setYieldHook(nullptr);

    if (std::string message = error.get(); !message.empty())
        fatal("consolidated run failed: ", message);

    result.totalCycles = machine.clock().now();
    result.appCycles = machine.clock().charged(CostCenter::Application);

    // Per-process slices: detector verdicts plus the counters that have
    // a per-process identity. Top-level detector counts are the sums.
    for (ProcRun &run : runs) {
        ProcResult proc;
        proc.pid = run.pid;
        proc.app = spec.app;
        proc.tool = spec.tool;
        proc.buggy = run.params.buggy;
        scoreToolStack(run.stack, proc);
        mergeStats(proc.stats, "kernel", kernel.process(run.pid).stats());
        mergeStats(proc.stats, "tlb",
                   kernel.process(run.pid).tlb().stats());
        mergeStats(proc.stats, "alloc", run.stack.allocator->stats());

        result.leakReportsTrue += proc.leakReportsTrue;
        result.leakReportsFalse += proc.leakReportsFalse;
        result.suspectedTrue += proc.suspectedTrue;
        result.suspectedFalse += proc.suspectedFalse;
        result.prunedSuspects += proc.prunedSuspects;
        result.corruptionTrue += proc.corruptionTrue;
        result.corruptionFalse += proc.corruptionFalse;
        result.wasteBytes += proc.wasteBytes;
        result.userBytes += proc.userBytes;
        if (proc.firstCatchCycles > 0 &&
            (result.firstCatchCycles == 0 ||
             proc.firstCatchCycles < result.firstCatchCycles))
            result.firstCatchCycles = proc.firstCatchCycles;
        result.procs.push_back(std::move(proc));
    }

    // Machine-wide counters: the shared resources every process
    // contended on, including the consolidation signals
    // (cache.cross_proc_evictions, sched.context_switches).
    mergeStats(result.stats, "kernel", kernel.stats());
    mergeStats(result.stats, "cache", machine.cache().stats());
    mergeStats(result.stats, "controller", machine.controller().stats());
    mergeStats(result.stats, "geometry", machine.controller().geometryStats());
    mergeStats(result.stats, "sched", machine.scheduler().stats());

    result.bugDetected =
        result.leakReportsTrue > 0 || result.corruptionTrue > 0;
    return result;
}

namespace {

/** Run one cell, capturing any escaped exception as the cell's error. */
void
runCell(const RunSpec &spec, MatrixCell &cell)
{
    cell.spec = spec;
    try {
        cell.result = spec.procs > 1
                          ? runConsolidated(spec)
                          : runWorkload(spec.app, spec.tool, spec.params);
    } catch (const std::exception &err) {
        cell.error = err.what();
    } catch (...) {
        cell.error = "unknown exception";
    }
}

} // namespace

std::vector<MatrixCell>
runMatrix(const std::vector<RunSpec> &specs, unsigned workers)
{
    // Each run is a pure function of its spec, so the worker count
    // cannot change any result — only the wall clock.
    std::vector<MatrixCell> cells(specs.size());
    parallelFor(specs.size(), workers,
                [&](std::size_t i) { runCell(specs[i], cells[i]); });
    return cells;
}

RunParams
paperParams(const std::string &app_name, bool buggy)
{
    RunParams params;
    params.requests = defaultRequests(app_name);
    params.seed = 42;
    params.buggy = buggy;
    return params;
}

double
overheadPercent(const RunResult &run, const RunResult &baseline)
{
    if (baseline.totalCycles == 0)
        return 0.0;
    return 100.0 *
           (static_cast<double>(run.totalCycles) -
            static_cast<double>(baseline.totalCycles)) /
           static_cast<double>(baseline.totalCycles);
}

} // namespace safemem
