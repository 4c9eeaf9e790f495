/**
 * @file
 * The traced run and its equivalence gate (see traced.h).
 */

#include "traced.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>

#include "alloc/heap_allocator.h"
#include "purify/purify.h"
#include "safemem/safemem.h"
#include "safemem/sampled.h"
#include "safemem/watch_manager.h"
#include "workloads/app.h"
#include "workloads/env.h"
#include "workloads/null_tool.h"

namespace perfbench {

using namespace safemem;

double
SpanTracer::pop(Open &open)
{
    Clock::time_point end = Clock::now();
    open = stack_.back();
    stack_.pop_back();
    return std::chrono::duration<double>(end - open.start).count();
}

double
SpanTracer::emptySpanSeconds()
{
    static const double seconds = [] {
        SpanTracer probe{Uncalibrated{}};
        std::vector<double> samples(10001);
        for (double &sample : samples) {
            Open open{};
            probe.enter(Layer::App);
            sample = probe.pop(open);
        }
        std::nth_element(samples.begin(),
                         samples.begin() + samples.size() / 2,
                         samples.end());
        return samples[samples.size() / 2];
    }();
    return seconds;
}

double
SpanTracer::leave()
{
    Open open{};
    double duration = std::max(pop(open) - emptySpanSeconds(), 0.0);
    double scale = static_cast<double>(sampleEvery(open.layer));
    LayerTotals &totals = totals_[static_cast<std::size_t>(open.layer)];
    totals.seconds += duration * scale;
    totals.selfSeconds += (duration - open.nested) * scale;
    if (!stack_.empty())
        stack_.back().nested += duration * scale;
    return duration;
}

namespace {

/** Counts encodes and decodes; times a sample of the decodes. */
class TimedCodec final : public EccCodec
{
  public:
    TimedCodec(const EccCodec &inner, SpanTracer &tracer)
        : inner_(inner), tracer_(tracer)
    {}

    const char *name() const override { return inner_.name(); }
    int dataBits() const override { return inner_.dataBits(); }
    int checkBits() const override { return inner_.checkBits(); }

    std::uint64_t
    encode(std::uint64_t data) const override
    {
        ++encodes_;
        return inner_.encode(data);
    }

    EccDecodeResult
    decode(std::uint64_t data, std::uint64_t check) const override
    {
        if (!tracer_.count(Layer::Codec))
            return inner_.decode(data, check);
        ScopedSpan span(tracer_, Layer::Codec);
        return inner_.decode(data, check);
    }

    std::uint64_t column(int bit) const override
    {
        return inner_.column(bit);
    }

    std::uint64_t encodes() const { return encodes_; }

  private:
    const EccCodec &inner_;
    SpanTracer &tracer_;
    mutable std::uint64_t encodes_ = 0;
};

/** Times watch and unwatch; everything else forwards untimed. */
class TimedBackend final : public WatchBackend
{
  public:
    TimedBackend(WatchBackend &inner, SpanTracer &tracer)
        : inner_(inner), tracer_(tracer)
    {}

    std::size_t granule() const override { return inner_.granule(); }

    void
    setFaultCallback(WatchFaultCallback callback) override
    {
        inner_.setFaultCallback(std::move(callback));
    }

    void
    watch(VirtAddr base, std::size_t size, WatchKind kind,
          std::uint64_t cookie) override
    {
        tracer_.count(Layer::Watch);
        ScopedSpan span(tracer_, Layer::Watch);
        inner_.watch(base, size, kind, cookie);
    }

    void
    unwatch(VirtAddr base) override
    {
        tracer_.count(Layer::Watch);
        ScopedSpan span(tracer_, Layer::Watch);
        inner_.unwatch(base);
    }

    bool isWatched(VirtAddr base) const override
    {
        return inner_.isWatched(base);
    }
    std::size_t regionCount() const override { return inner_.regionCount(); }
    std::uint64_t watchedBytes() const override
    {
        return inner_.watchedBytes();
    }
    const StatSet &stats() const override { return inner_.stats(); }

  private:
    WatchBackend &inner_;
    SpanTracer &tracer_;
};

/**
 * Times every malloc-family call. For Purify, also adds up the time of
 * the calls during which its public sweep counter moved.
 */
class TimedTool final : public Tool
{
  public:
    TimedTool(Tool &inner, SpanTracer &tracer, const PurifyTool *purify,
              double &sweep_seconds)
        : inner_(inner), tracer_(tracer), purify_(purify),
          sweepSeconds_(sweep_seconds)
    {}

    VirtAddr
    toolAlloc(std::size_t size, const ShadowStack &stack,
              std::uint64_t site_tag) override
    {
        Call call(*this);
        return inner_.toolAlloc(size, stack, site_tag);
    }

    VirtAddr
    toolCalloc(std::size_t count, std::size_t size, const ShadowStack &stack,
               std::uint64_t site_tag) override
    {
        Call call(*this);
        return inner_.toolCalloc(count, size, stack, site_tag);
    }

    VirtAddr
    toolRealloc(VirtAddr addr, std::size_t new_size, const ShadowStack &stack,
                std::uint64_t site_tag) override
    {
        Call call(*this);
        return inner_.toolRealloc(addr, new_size, stack, site_tag);
    }

    void
    toolFree(VirtAddr addr) override
    {
        Call call(*this);
        inner_.toolFree(addr);
    }

    void
    onCompute(Cycles cycles) override
    {
        Call call(*this);
        inner_.onCompute(cycles);
    }

    void
    finish() override
    {
        Call call(*this);
        inner_.finish();
    }

  private:
    /** One Tool span, plus the sweep check. */
    class Call
    {
      public:
        explicit Call(TimedTool &tool)
            : tool_(tool), sweeps_(tool.sweeps())
        {
            tool_.tracer_.count(Layer::Tool);
            tool_.tracer_.enter(Layer::Tool);
        }
        ~Call()
        {
            double duration = tool_.tracer_.leave();
            if (tool_.sweeps() != sweeps_)
                tool_.sweepSeconds_ += duration;
        }

        Call(const Call &) = delete;
        Call &operator=(const Call &) = delete;

      private:
        TimedTool &tool_;
        std::uint64_t sweeps_;
    };

    std::uint64_t
    sweeps() const
    {
        return purify_ ? purify_->stats().get(PurifyStat::Sweeps) : 0;
    }

    Tool &inner_;
    SpanTracer &tracer_;
    const PurifyTool *purify_;
    double &sweepSeconds_;
};

/** Copy every counter of @p stats into @p out under @p prefix, the way
 *  runWorkload keys run counters. */
void
mergeStats(std::map<std::string, std::uint64_t> &out,
           const std::string &prefix, const StatSet &stats)
{
    for (const auto &[name, value] : stats.all())
        out[prefix + "." + name] = value;
}

/** Counter keys runWorkload adds while scoring reports, not from a
 *  component StatSet. */
bool
isScoringKey(const std::string &key)
{
    for (const char *prefix : {"leak.false_report_site.",
                               "leak.suspected_site.", "purify.false_report."})
        if (key.rfind(prefix, 0) == 0)
            return true;
    return false;
}

} // namespace

MachineConfig
machineConfigFor(const RunParams &params, const EccCodec *codec)
{
    MachineConfig config;
    config.memoryBytes = 192u << 20;
    config.banks = params.banks;
    config.geometry = params.geometry;
    config.codec = codec;
    return config;
}

TracedRun
runTraced(const RunSpec &spec)
{
    const RunParams &params = spec.params;
    std::unique_ptr<App> app = makeApp(spec.app);
    if (!app)
        throw std::runtime_error("unknown application '" + spec.app + "'");

    TracedRun out;
    SpanTracer tracer;
    std::unique_ptr<EccCodec> built;
    if (!(params.codec == EccCodecSpec{}))
        built = makeCodec(params.codec);
    TimedCodec codec(built ? *built : defaultCodec(), tracer);

    Clock::time_point boot_start = Clock::now();
    auto machine =
        std::make_unique<Machine>(machineConfigFor(params, &codec));
    out.bootSeconds = secondsSince(boot_start);

    {
        HeapAllocator allocator(*machine);
        std::optional<EccWatchManager> ecc;
        std::optional<TimedBackend> backend;
        std::unique_ptr<SafeMemTool> safemem;
        SampledSafeMemTool *sampled = nullptr;
        std::optional<PurifyTool> purify;
        std::optional<NullTool> null_tool;
        Tool *active = nullptr;

        auto wire_ecc = [&] {
            ecc.emplace(*machine);
            ecc->installFaultHandler();
            ecc->installScrubHooks();
            backend.emplace(*ecc, tracer);
        };

        switch (spec.tool) {
          case ToolKind::None:
            active = &null_tool.emplace(*machine, allocator);
            break;
          case ToolKind::SafeMemML:
          case ToolKind::SafeMemMC:
          case ToolKind::SafeMemBoth: {
            wire_ecc();
            SafeMemConfig config;
            config.detectLeaks = spec.tool != ToolKind::SafeMemMC;
            config.detectCorruption = spec.tool != ToolKind::SafeMemML;
            safemem = std::make_unique<SafeMemTool>(*machine, allocator,
                                                    *backend, config);
            active = safemem.get();
            break;
          }
          case ToolKind::SafeMemSampled: {
            wire_ecc();
            SafeMemConfig config;
            config.sampleRate = params.sampleRate;
            config.sampleSeed = params.seed;
            auto tool = std::make_unique<SampledSafeMemTool>(
                *machine, allocator, *backend, config,
                machine->kernel().currentPid());
            sampled = tool.get();
            safemem = std::move(tool);
            active = safemem.get();
            break;
          }
          case ToolKind::Purify: {
            active = &purify.emplace(*machine, allocator);
            purify->install();
            AccessHook inner = machine->kernel().currentAccessHook();
            machine->setAccessHook(
                [inner, &tracer](VirtAddr addr, std::size_t size,
                                 bool is_write) {
                    if (!tracer.count(Layer::Hook))
                        return inner(addr, size, is_write);
                    ScopedSpan span(tracer, Layer::Hook);
                    inner(addr, size, is_write);
                });
            break;
          }
          case ToolKind::PageProtBoth:
            throw std::runtime_error("the traced run has no pageprot stack");
        }

        TimedTool timed(*active, tracer, purify ? &*purify : nullptr,
                        out.sweepSeconds);
        Env env(*machine, allocator, timed);
        if (purify)
            purify->setRootProvider([&env] { return env.roots(); });

        Clock::time_point run_start = Clock::now();
        {
            ScopedSpan span(tracer, Layer::App);
            app->run(env, params);
            timed.finish();
        }
        out.runSeconds = secondsSince(run_start);

        RunResult &result = out.result;
        result.app = spec.app;
        result.tool = spec.tool;
        result.buggy = params.buggy;
        result.geometry = params.geometry;
        result.totalCycles = machine->clock().now();
        result.appCycles =
            machine->clock().charged(CostCenter::Application);
        for (std::size_t c = 0; c < out.centerCycles.size(); ++c)
            out.centerCycles[c] =
                machine->clock().charged(static_cast<CostCenter>(c));

        auto &stats = result.stats;
        if (safemem) {
            if (safemem->config().detectLeaks) {
                const LeakDetector &leak = safemem->leakDetector();
                out.reports += leak.reports().size();
                mergeStats(stats, "leak", leak.stats());
            }
            if (safemem->config().detectCorruption) {
                const CorruptionDetector &corruption =
                    safemem->corruptionDetector();
                out.reports += corruption.reports().size();
                mergeStats(stats, "corruption", corruption.stats());
            }
        }
        if (purify) {
            out.reports += purify->corruptionReports().size();
            mergeStats(stats, "purify", purify->stats());
        }
        if (sampled)
            mergeStats(stats, "sampled", sampled->samplingStats());
        if (ecc)
            mergeStats(stats, "watch", ecc->stats());
        mergeStats(stats, "kernel", machine->kernel().stats());
        mergeStats(stats, "tlb",
                   machine->kernel().currentProcess().tlb().stats());
        mergeStats(stats, "cache", machine->cache().stats());
        mergeStats(stats, "controller", machine->controller().stats());
        if (!params.geometry.isWord())
            mergeStats(stats, "geometry",
                       machine->controller().geometryStats());
        mergeStats(stats, "alloc", allocator.stats());
    }

    Clock::time_point teardown_start = Clock::now();
    machine.reset();
    out.bootSeconds += secondsSince(teardown_start);

    for (std::size_t l = 0; l < out.layers.size(); ++l)
        out.layers[l] = tracer.totals(static_cast<Layer>(l));
    out.encodes = codec.encodes();
    return out;
}

std::string
equivalenceError(const TracedRun &traced, const RunResult &reference)
{
    std::ostringstream error;
    const RunResult &run = traced.result;
    Cycles traced_overhead = 0;
    for (std::size_t c = 0; c < traced.centerCycles.size(); ++c)
        if (c != static_cast<std::size_t>(CostCenter::Application))
            traced_overhead += traced.centerCycles[c];

    if (run.totalCycles != reference.totalCycles)
        error << " total cycles " << run.totalCycles << " vs "
              << reference.totalCycles << ";";
    if (run.appCycles != reference.appCycles)
        error << " app cycles " << run.appCycles << " vs "
              << reference.appCycles << ";";
    if (traced_overhead != reference.totalCycles - reference.appCycles)
        error << " tool+kernel cycles " << traced_overhead << " vs "
              << reference.totalCycles - reference.appCycles << ";";

    std::map<std::string, std::uint64_t> expected;
    for (const auto &[key, value] : reference.stats)
        if (!isScoringKey(key))
            expected[key] = value;
    if (run.stats != expected) {
        for (const auto &[key, value] : expected) {
            auto it = run.stats.find(key);
            if (it == run.stats.end() || it->second != value)
                error << " counter " << key << ";";
        }
        for (const auto &[key, value] : run.stats)
            if (!expected.count(key))
                error << " extra counter " << key << ";";
    }

    std::uint64_t reference_reports =
        reference.corruptionTrue + reference.corruptionFalse;
    if (reference.tool != ToolKind::Purify)
        reference_reports +=
            reference.leakReportsTrue + reference.leakReportsFalse;
    if (traced.reports != reference_reports)
        error << " reports " << traced.reports << " vs "
              << reference_reports << ";";
    return error.str();
}

} // namespace perfbench
