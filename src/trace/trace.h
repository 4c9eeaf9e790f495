/**
 * @file
 * The flight recorder: a fixed-capacity ring buffer of binary trace
 * events covering the rare-event sequencing SafeMem's argument rests on
 * (paper §2.2, §4) — ECC interrupts, watch establish/drop, scrub
 * park/restore, hardware-vs-access fault classification.
 *
 * Design rules, mirroring the enum-stat philosophy of the hot path:
 *
 *  - an event is an enum ID, a cycle timestamp and up to three payload
 *    words; no strings are ever formatted on the emit path (the lint
 *    rule `string-trace-payload` enforces this under src/);
 *  - emitting never advances the simulated clock and never touches a
 *    StatSet, so simulated results are bit-identical with tracing on,
 *    off, or compiled out (-DSAFEMEM_TRACE=OFF);
 *  - tracing is per-run: a Trace* rides on MachineConfig / RunParams
 *    exactly like the per-run Log, so parallel runMatrix() cells record
 *    into fully independent rings and never interleave.
 *
 * Export is offline: writeTraceSection() appends one labelled binary
 * section per run to a stream, and tools/trace_dump turns the file into
 * JSON-lines. TraceScope routes the driving thread's "current trace" so
 * SimCheck can attach the last few events to a violation report.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.h"

namespace safemem {

/** Every recorded event kind; payload word meaning is per-event. */
enum class TraceEvent : std::uint16_t
{
    /** @name Memory controller (a = line/word address unless noted) */
    /// @{
    ControllerBusLock,            ///< bus locked for a scramble
    ControllerBusUnlock,          ///< bus released
    ControllerInterrupt,          ///< a=line, b=word index, c=fault kind
    ControllerSingleBitCorrected, ///< a=word address healed in place
    ControllerFill,               ///< a=line, b=1 clean / 0 faulted
    ControllerEvict,              ///< a=line written back
    ControllerScrubBegin,         ///< a=first line, b=line count
    ControllerScrubEnd,           ///< a=first line, b=line count
    /// @}

    /** @name Cache (sampled; every Cache::kTraceSampleInterval-th) */
    /// @{
    CacheWritebackSample, ///< a=line, b=total writebacks so far
    CacheFlushSample,     ///< a=line, b=total flushes so far
    /// @}

    /** @name Kernel */
    /// @{
    KernelSegvDelivered,      ///< a=faulting vaddr
    KernelWatchMemory,        ///< a=vaddr, b=size (syscall entry)
    KernelDisableWatchMemory, ///< a=vaddr, b=size (syscall entry)
    KernelEccInterrupt,       ///< a=phys line, b=word index, c=kind
    KernelPanicNoHandler,     ///< a=phys line; panic follows
    KernelPanicHardwareError, ///< a=phys line; panic follows
    KernelSwapOut,            ///< a=vpage
    KernelSwapIn,             ///< a=vpage, b=fresh frame
    KernelScrubTickBegin,     ///< scrub pass entered
    KernelScrubTickEnd,       ///< scrub pass left
    /// @}

    /** @name ECC watch manager (a = region base unless noted) */
    /// @{
    WatchEstablish,     ///< a=base, b=size, c=WatchKind
    WatchDrop,          ///< a=base, b=size
    WatchScrubPark,     ///< a=base, b=size (pre-scrub hook)
    WatchScrubRestore,  ///< a=base, b=size (post-scrub hook)
    WatchScrubCancel,   ///< a=base unwatched while scrub-parked
    WatchSwapPark,      ///< a=base, b=size (pre-swap-out hook)
    WatchSwapRestore,   ///< a=base, b=size (post-swap-in hook)
    WatchSwapCancel,    ///< a=base unwatched while swap-parked
    WatchFaultForeign,  ///< a=vline not under any watch
    WatchFaultHardware, ///< a=vline, b=owning region base
    WatchFaultAccess,   ///< a=vline, b=base, c=1 on a store
    WatchRepairDone,    ///< a=base, b=size repaired via device ops
    /// @}

    /** @name Detectors */
    /// @{
    LeakDetectionPass,  ///< a=group count, b=outstanding suspects
    LeakSuspectWatched, ///< a=object, b=watch size
    LeakSuspectPruned,  ///< a=object accessed before the deadline
    LeakReported,       ///< a=object, b=object size, c=site tag
    CorruptionReported, ///< a=fault addr, b=user addr, c=kind
    /// @}

    /** @name Scheduler / processes */
    /// @{
    SchedProcessCreated, ///< a=new pid
    SchedProcessExited,  ///< a=exiting pid
    SchedContextSwitch,  ///< a=from pid, b=to pid
    /// @}

    /** @name Block protection geometry (large-codeword EDC+ECC).
     *  Emitted only on block-geometry machines. */
    /// @{
    EdcCheckPass,    ///< a=line, b=codeword base
    EdcCheckFail,    ///< a=line, b=codeword base
    EccBlockDecode,  ///< a=demanded line, b=codeword base
    PartialWriteRmw, ///< a=written line, b=codeword opened
    /// @}

    NumEvents
};

/** Export names for TraceEvent, in enumerator order. */
inline constexpr const char *kTraceEventNames[] = {
    "controller_bus_lock",
    "controller_bus_unlock",
    "controller_interrupt",
    "controller_single_bit_corrected",
    "controller_fill",
    "controller_evict",
    "controller_scrub_begin",
    "controller_scrub_end",
    "cache_writeback_sample",
    "cache_flush_sample",
    "kernel_segv_delivered",
    "kernel_watch_memory",
    "kernel_disable_watch_memory",
    "kernel_ecc_interrupt",
    "kernel_panic_no_handler",
    "kernel_panic_hardware_error",
    "kernel_swap_out",
    "kernel_swap_in",
    "kernel_scrub_tick_begin",
    "kernel_scrub_tick_end",
    "watch_establish",
    "watch_drop",
    "watch_scrub_park",
    "watch_scrub_restore",
    "watch_scrub_cancel",
    "watch_swap_park",
    "watch_swap_restore",
    "watch_swap_cancel",
    "watch_fault_foreign",
    "watch_fault_hardware",
    "watch_fault_access",
    "watch_repair_done",
    "leak_detection_pass",
    "leak_suspect_watched",
    "leak_suspect_pruned",
    "leak_reported",
    "corruption_reported",
    "sched_process_created",
    "sched_process_exited",
    "sched_context_switch",
    "edc_check_pass",
    "edc_check_fail",
    "ecc_block_decode",
    "partial_write_rmw",
};
static_assert(sizeof(kTraceEventNames) / sizeof(kTraceEventNames[0]) ==
                  static_cast<std::size_t>(TraceEvent::NumEvents),
              "kTraceEventNames must cover every TraceEvent");

/** @return the export name of @p event ("?" out of range). */
const char *traceEventName(TraceEvent event);

/** One recorded event: ID + timestamp + raw payload words. */
struct TraceRecord
{
    Cycles cycle = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t c = 0;
    std::uint32_t pid = 0;  ///< process running when the event fired
    TraceEvent event = TraceEvent::NumEvents;

    bool operator==(const TraceRecord &) const = default;
};

/**
 * The per-run ring buffer. Single-writer: exactly one machine (on one
 * thread) records into a Trace, which is what keeps the parallel run
 * matrix data-race free without any locking. Capacity is rounded up to
 * a power of two so the emit path is a mask, two stores and a counter
 * bump.
 */
class Trace
{
  public:
    static constexpr std::size_t kDefaultCapacity = 8192;

    explicit Trace(std::size_t capacity = kDefaultCapacity);

    /** Record one event. Never advances any clock, never throws. */
    void
    emit(TraceEvent event, Cycles cycle, std::uint64_t a = 0,
         std::uint64_t b = 0, std::uint64_t c = 0)
    {
        TraceRecord &slot =
            ring_[static_cast<std::size_t>(seq_) & mask_];
        slot.cycle = cycle;
        slot.a = a;
        slot.b = b;
        slot.c = c;
        slot.pid = pid_;
        slot.event = event;
        ++seq_;
    }

    /** Stamp subsequent records with @p pid (the kernel's context-switch
     *  path calls this; single-process runs stay at the default 0). */
    void setPid(std::uint32_t pid) { pid_ = pid; }

    /** @return total events emitted, including overwritten ones. */
    std::uint64_t emitted() const { return seq_; }

    /** @return events lost to ring wrap-around. */
    std::uint64_t
    dropped() const
    {
        return seq_ > ring_.size() ? seq_ - ring_.size() : 0;
    }

    /** @return events currently retained. */
    std::size_t
    size() const
    {
        return seq_ < ring_.size() ? static_cast<std::size_t>(seq_)
                                   : ring_.size();
    }

    /** @return the ring capacity (power of two). */
    std::size_t capacity() const { return ring_.size(); }

    /** Forget everything recorded so far. */
    void clear() { seq_ = 0; }

    /** @return retained records, oldest first. */
    std::vector<TraceRecord> records() const;

    /** @return the newest @p n records (fewer when the ring holds fewer),
     *  oldest first. */
    std::vector<TraceRecord> lastRecords(std::size_t n) const;

  private:
    std::vector<TraceRecord> ring_;
    std::uint64_t mask_ = 0;
    std::uint64_t seq_ = 0;
    std::uint32_t pid_ = 0;
};

/** True when emit sites are compiled in (-DSAFEMEM_TRACE=ON, default). */
inline constexpr bool kTraceCompiledIn =
#ifdef SAFEMEM_TRACE_DISABLED
    false;
#else
    true;
#endif

/**
 * RAII: publish @p trace as the current thread's flight recorder for
 * the scope's lifetime (mirrors LogScope). Consumers that cannot be
 * handed a Trace* explicitly — SimCheck::report() attaching event
 * context to a violation — read it back via currentTrace(). Scopes
 * nest and are strictly thread-local, so concurrent runs keep
 * independent recorders.
 */
class TraceScope
{
  public:
    explicit TraceScope(Trace &trace);
    ~TraceScope();

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

  private:
    Trace *previous_;
};

/** @return the thread's current flight recorder, or null. */
Trace *currentTrace();

/**
 * @return a one-line summary of the newest @p n events of the thread's
 * current trace (" | last trace events: ..."), or an empty string when
 * no trace is installed or it is empty. Used by SimCheck to attach
 * flight-recorder context to violation reports.
 */
std::string traceContextSummary(std::size_t n);

/** One run's worth of records as read back from a trace file. */
struct TraceSection
{
    std::string label;           ///< e.g. "gzip/safemem+buggy"
    std::uint64_t emitted = 0;   ///< total emitted (incl. dropped)
    std::uint64_t capacity = 0;  ///< ring capacity at write time
    std::vector<TraceRecord> records; ///< retained records, oldest first
};

/** Append @p trace's retained records to @p os as one binary section. */
void writeTraceSection(std::ostream &os, const Trace &trace,
                       const std::string &label);

/**
 * Read every section of a trace file produced by writeTraceSection().
 * Throws FatalError on a malformed or truncated stream; header counts
 * are never trusted to size an allocation.
 */
std::vector<TraceSection> readTraceSections(std::istream &is);

/**
 * @return record @p index of @p section as one JSON-lines object:
 * {"run":...,"seq":...,"cycle":...,"event":...,"a":...,"b":...,"c":...}
 * where seq is the record's absolute emit sequence number.
 */
std::string traceRecordJsonLine(const TraceSection &section,
                                std::size_t index);

/**
 * @return one JSON object summarising @p section: emitted/retained
 * counts, the cycle span of the retained records, and per-event counts
 * (zero-count events omitted). Backs `trace_dump --summary`.
 */
std::string traceSectionSummaryJson(const TraceSection &section);

#ifdef SAFEMEM_TRACE_DISABLED
namespace trace_detail {
/** Swallows emit arguments in compiled-out builds, keeping them "used". */
template <typename... Args>
inline void
sink(Args &&...)
{
}
} // namespace trace_detail
#define SAFEMEM_TRACE_EMIT(trace, event, cycle, ...)                        \
    do {                                                                    \
        if (false)                                                          \
            ::safemem::trace_detail::sink((trace), (event),                 \
                                          (cycle)__VA_OPT__(, )             \
                                              __VA_ARGS__);                 \
    } while (0)
#else
/**
 * Emit one event into @p trace when tracing is active (null pointer:
 * tracing is off for this run; one predictable branch). Payloads are
 * integral words only — never format strings here.
 */
#define SAFEMEM_TRACE_EMIT(trace, event, cycle, ...)                        \
    do {                                                                    \
        ::safemem::Trace *trace_target_ = (trace);                          \
        if (trace_target_)                                                  \
            trace_target_->emit((event), (cycle)__VA_OPT__(, )              \
                                             __VA_ARGS__);                  \
    } while (0)
#endif

} // namespace safemem
