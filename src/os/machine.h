/**
 * @file
 * The simulated machine: CPU access path over cache, ECC memory controller,
 * DRAM and kernel — the substrate replacing the paper's Pentium 4 +
 * Intel E7500 testbed.
 *
 * Application code (the workloads and examples) performs loads and stores
 * through Machine::read()/write(). Each access is translated by the
 * kernel, split at cache-line boundaries, and serviced by the cache; an
 * uncorrectable ECC fill fault runs the registered user handler and the
 * access restarts, mirroring instruction-restart semantics.
 *
 * An optional access hook lets a Purify-style tool observe (and charge
 * for) every access — the interception that makes Purify expensive and
 * that SafeMem exists to avoid.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "cache/cache.h"
#include "common/clock.h"
#include "common/logging.h"
#include "common/types.h"
#include "mem/memory_controller.h"
#include "mem/physical_memory.h"
#include "os/kernel.h"
#include "os/scheduler.h"

namespace safemem {

class Trace;

/** Construction parameters for a Machine. */
struct MachineConfig
{
    /** DRAM capacity. Frames are handed out from this pool. */
    std::size_t memoryBytes = 64u << 20;
    /** Data-cache geometry. */
    CacheConfig cache{};
    /** Call Kernel::tick() once every this many accesses. */
    std::uint32_t tickInterval = 1024;
    /**
     * ECC codec wired into the memory controller (must outlive the
     * machine). Null: the shared (72,64) Hsiao defaultCodec(). The
     * kernel re-derives its scramble signature from this code at boot
     * and panics if the code cannot host one (see
     * findScramblePositions).
     */
    const EccCodec *codec = nullptr;
    /**
     * Per-run log sink for everything this machine emits (must outlive
     * the machine). Null: the process default. The machine itself is
     * single-threaded, so the run harness installs a LogScope with
     * machine.log() on whichever thread drives the machine — see
     * runWorkload()/runMatrix().
     */
    const Log *log = nullptr;
    /**
     * Per-run flight recorder (must outlive the machine). Null: tracing
     * is off and every emit site reduces to one predictable branch.
     * Routed exactly like `log`: one recorder per run, installed on the
     * driving thread via TraceScope by the run harness.
     */
    Trace *trace = nullptr;
    /**
     * Deprecated; must stay 1, or the Machine panics. The machine has
     * one memory bus. This field exists only because
     * perfbench/traced.cc assigns RunParams::banks to it; both go with
     * that line in the next benchmark change.
     */
    std::uint32_t banks = 1;
    /**
     * Protection geometry of the DIMM + controller datapath: the
     * per-word SEC-DED default, or a large-codeword EDC+ECC split
     * (geometry.h). The default constructs nothing new and is
     * bit-identical to the pre-geometry machine. (Last on purpose: the
     * positional {bytes, cache, tick} initializers predate it.)
     */
    ProtectionGeometry geometry{};
};

/**
 * Called right after the machine context-switches away from @p from to
 * @p to at a scheduling point. The consolidated run harness uses this to
 * hand control to the thread driving process @p to and block the current
 * one until @p from is scheduled again — cooperative multitasking with
 * one CPU. (AccessHook lives in os/process.h with the other per-process
 * hook types.)
 */
using YieldHook = std::function<void(Pid from, Pid to)>;

class Machine
{
  public:
    explicit Machine(MachineConfig config = {});

    /** @name CPU access path */
    /// @{

    /** Load @p size bytes from virtual address @p addr. */
    void read(VirtAddr addr, void *out, std::size_t size);

    /** Store @p size bytes to virtual address @p addr. */
    void write(VirtAddr addr, const void *in, std::size_t size);

    /** Convenience typed load. */
    template <typename T>
    T
    load(VirtAddr addr)
    {
        T value;
        read(addr, &value, sizeof(T));
        return value;
    }

    /** Convenience typed store. */
    template <typename T>
    void
    store(VirtAddr addr, T value)
    {
        write(addr, &value, sizeof(T));
    }

    /**
     * Load the @p n 8-byte words at @p addr, @p addr + 8, ... into
     * @p out for tool code, with exactly the simulated effect of @p n
     * load<std::uint64_t>() calls: ticks at the same words (so the same
     * scrub passes, SimCheck audits and scheduling points), the same
     * TLB and cache counts, LRU stamps, fills, writebacks, cycles per
     * cost center and trace records. The one difference: no access
     * hook runs, because tool code is not instrumented.
     *
     * The host work is done once per cache line: the line's first word
     * takes the full path, and the words after it, up to the next tick,
     * are charged in one step as hits on the TLB's MRU slot and on the
     * now-resident cache way. Whenever that slot no longer holds the
     * page (a SIGSEGV handler's mprotect flushed it, say), the next
     * word takes the full path instead.
     */
    void readWords(VirtAddr addr, std::uint64_t *out, std::size_t n);

    /** Model @p cycles of pure computation (no memory traffic). */
    void compute(Cycles cycles) { clock_.advance(cycles); }
    /// @}

    /**
     * Run the deep SimCheck audits (cache residency, kernel bookkeeping)
     * immediately. No-op while auditing is disabled; the access path also
     * calls this every kAuditTickInterval kernel ticks.
     */
    void auditNow() const;

    /** Install / clear the current process's per-access tool hook. */
    void
    setAccessHook(AccessHook hook)
    {
        kernel_->setAccessHook(std::move(hook));
    }

    /** @name Scheduling (consolidated runs) */
    /// @{

    /** @return the cooperative round-robin scheduler. Single-process
     *  machines never admit anything, so it stays empty and the access
     *  path never switches. */
    Scheduler &scheduler() { return scheduler_; }
    const Scheduler &scheduler() const { return scheduler_; }

    /**
     * Install the hand-off callback fired after every scheduler-driven
     * context switch (see YieldHook). Scheduling points only fire while
     * a hook is installed.
     */
    void setYieldHook(YieldHook hook) { yieldHook_ = std::move(hook); }

    /**
     * Context-switch to @p to now: charge kContextSwitchCycles, retarget
     * the kernel's current process, count and trace the switch. No-op
     * when @p to is already current. Does not fire the yield hook — the
     * run harness calls this directly for admission and exit hand-offs.
     */
    void contextSwitchTo(Pid to);
    /// @}

    /**
     * @return the configured per-run log sink, or null when this
     * machine reports through the process default. The pointer is
     * stable for the machine's lifetime, so it can back a LogScope on
     * the driving thread.
     */
    const Log *log() const { return config_.log; }

    /**
     * @return the configured per-run flight recorder, or null when
     * tracing is off. Stable for the machine's lifetime, so components
     * and tools may cache it at construction.
     */
    Trace *trace() const { return config_.trace; }

    /** @return the machine's cycle clock. */
    CycleClock &clock() { return clock_; }

    /** @return the kernel. */
    Kernel &kernel() { return *kernel_; }

    /** @return the data cache. */
    Cache &cache() { return *cache_; }

    /** @return the ECC memory controller. */
    MemoryController &controller() { return *controller_; }

    /** @return the DRAM model. */
    PhysicalMemory &physicalMemory() { return *memory_; }

  private:
    /**
     * The address translation and cache part of an access: split at
     * page boundaries, accessSpan() each piece.
     * @return the physical address just past the access's last byte.
     */
    PhysAddr access(VirtAddr addr, void *buffer, std::size_t size,
                    bool is_write);

    /**
     * One page-bounded span of an access: translate once, touch lines.
     * @return the physical address just past the span.
     */
    PhysAddr accessSpan(VirtAddr addr, void *buffer, std::size_t size,
                        bool is_write);

    /** Periodic work folded into the access path: kernel tick + audits
     *  + the scheduling point. */
    void maybeTick();

    /** Scheduling point: round-robin to the next runnable process (when
     *  one exists, a yield hook is installed, and the kernel is not mid
     *  scrub/interrupt), then fire the hook. */
    void schedule();

    MachineConfig config_;
    CycleClock clock_;
    std::unique_ptr<PhysicalMemory> memory_;
    std::unique_ptr<MemoryController> controller_;
    std::unique_ptr<Cache> cache_;
    std::unique_ptr<Kernel> kernel_;
    Scheduler scheduler_;
    YieldHook yieldHook_;
    std::uint32_t accessesSinceTick_ = 0;
    std::uint32_t ticksSinceAudit_ = 0;
};

} // namespace safemem
