/**
 * @file
 * The benchmark's traced run: one RunSpec rebuilt from the simulator's
 * public constructors, with timing decorators on four layer boundaries
 * (Tool, WatchBackend, EccCodec and Purify's access hook).
 *
 * Spans are aggregated per layer as they close: a layer's self time is
 * its span time minus the part its nested spans cover. The per-access
 * boundaries (codec decode, access hook) fire millions of times per run,
 * so every call is counted but only a deterministic 1-in-kSampleEvery
 * is timed, and each timed span stands for kSampleEvery calls.
 */

#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "ecc/codec.h"
#include "os/machine.h"
#include "workloads/driver.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** @return the median of @p values (0 when empty). */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : (values[mid - 1] + values[mid]) / 2.0;
}

/** Per-access spans are timed once per this many calls. */
inline constexpr std::uint64_t kSampleEvery = 64;

/** The wrapped boundaries; App is the root span around App::run. */
enum class Layer : std::size_t
{
    App,
    Tool,
    Watch,
    Codec,
    Hook,
    Count
};

/** Totals of one layer over a run. */
struct LayerTotals
{
    std::uint64_t calls = 0;
    double seconds = 0.0;     ///< span time (sampled layers: scaled)
    double selfSeconds = 0.0; ///< span time minus nested spans
};

/** Aggregating span recorder, one per traced run. */
class SpanTracer
{
  public:
    /** Calibrates the empty-span cost up front, outside any span. */
    SpanTracer() : SpanTracer(Uncalibrated{}) { emptySpanSeconds(); }

    /** Count one call of @p layer. @return true when it is timed. */
    bool
    count(Layer layer)
    {
        LayerTotals &totals = totals_[static_cast<std::size_t>(layer)];
        return totals.calls++ % sampleEvery(layer) == 0;
    }

    /** Open a span of @p layer now. */
    void
    enter(Layer layer)
    {
        stack_.push_back({layer, Clock::now(), 0.0});
    }

    /** Close the innermost span. @return its unscaled duration, less
     *  the calibrated cost of timing an empty span. */
    double leave();

    const LayerTotals &
    totals(Layer layer) const
    {
        return totals_[static_cast<std::size_t>(layer)];
    }

    /** @return the number of calls one timed span of @p layer stands for. */
    static std::uint64_t
    sampleEvery(Layer layer)
    {
        return layer == Layer::Codec || layer == Layer::Hook ? kSampleEvery
                                                             : 1;
    }

  private:
    struct Open
    {
        Layer layer;
        Clock::time_point start;
        double nested; ///< scaled time of spans closed inside this one
    };

    /** The calibration probe's constructor. */
    struct Uncalibrated
    {
    };
    explicit SpanTracer(Uncalibrated) {}

    /** @return the median measured length of an empty span (two clock
     *  reads and the stack work), measured once per process. */
    static double emptySpanSeconds();

    /** Pop the innermost span. @return its raw measured duration. */
    double pop(Open &open);

    std::vector<Open> stack_;
    std::array<LayerTotals, static_cast<std::size_t>(Layer::Count)>
        totals_{};
};

/** Closes a span when it goes out of scope. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanTracer &tracer, Layer layer) : tracer_(tracer)
    {
        tracer_.enter(layer);
    }
    ~ScopedSpan() { tracer_.leave(); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanTracer &tracer_;
};

/** Everything one traced run measured. */
struct TracedRun
{
    /** Cycles and component counters, keyed as runWorkload keys them. */
    safemem::RunResult result;
    std::array<safemem::Cycles,
               static_cast<std::size_t>(
                   safemem::CostCenter::NumCostCenters)>
        centerCycles{};
    /** Reports the detectors raised (leak + corruption). */
    std::uint64_t reports = 0;

    double bootSeconds = 0.0; ///< Machine construction + teardown
    double runSeconds = 0.0;  ///< App::run + Tool::finish
    std::array<LayerTotals, static_cast<std::size_t>(Layer::Count)>
        layers{};
    std::uint64_t encodes = 0;
    /** Purify: tool-call time of calls during which a sweep ran. */
    double sweepSeconds = 0.0;
};

/** @return the MachineConfig runWorkload boots for @p params, wired to
 *  @p codec (null: the default codec). */
safemem::MachineConfig machineConfigFor(const safemem::RunParams &params,
                                        const safemem::EccCodec *codec);

/** Rebuild @p spec's machine and tool stack with the decorators and run
 *  it. Single-process specs only. */
TracedRun runTraced(const safemem::RunSpec &spec);

/**
 * The equivalence gate: @return an empty string when @p traced has the
 * same simulated cycles, counters and report count as @p reference
 * (the untraced runWorkload result), else what differs.
 */
std::string equivalenceError(const TracedRun &traced,
                             const safemem::RunResult &reference);

} // namespace perfbench
