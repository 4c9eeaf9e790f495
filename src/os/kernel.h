/**
 * @file
 * The simulated kernel, including the paper's three OS extensions
 * (paper §2.2.1):
 *
 *   - WatchMemory(address, size): scramble + watch a line-aligned region;
 *   - DisableWatchMemory(address, size): unscramble + unwatch;
 *   - RegisterECCFaultHandler(function): deliver ECC interrupts to a
 *     user-level handler.
 *
 * Plus the stock facilities the baselines and substrate need: virtual
 * memory with per-process page tables and a shared frame allocator,
 * mprotect and user SIGSEGV delivery (the page-protection baseline),
 * page pinning, a swap daemon (to demonstrate why watched pages are
 * pinned), and scrub coordination hooks (SafeMem unwatches everything
 * around a scrub pass, §2.2.2).
 *
 * The kernel is multi-process: it owns a table of Process objects (see
 * os/process.h) and a current-process pointer that the Machine switches
 * on scheduler decisions. Syscalls act on the current process; ECC
 * interrupts are routed to the process *owning* the faulting frame,
 * whoever is running — an interrupt with no handler registered by the
 * owner panics the kernel, the behaviour of stock Linux/Windows the
 * paper describes in §2.1.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cache/cache.h"
#include "common/clock.h"
#include "common/stats.h"
#include "common/types.h"
#include "ecc/scramble.h"
#include "mem/memory_controller.h"
#include "os/process.h"

namespace safemem {

class Trace;

class Kernel
{
  public:
    Kernel(MemoryController &controller, Cache &cache, CycleClock &clock,
           Trace *trace = nullptr);

    /** @name Processes */
    /// @{

    /**
     * Create a fresh process with an empty address space.
     * @return its pid. Does not switch to it.
     */
    Pid createProcess();

    /**
     * Mark @p pid exited. The zombie keeps its address space, watches
     * and counters for post-run harvesting (the machine is torn down
     * wholesale after a run, exactly as single-process runs never
     * unmapped either); it only leaves the scheduling universe.
     */
    void exitProcess(Pid pid);

    /**
     * Retarget the CPU context at @p pid (must be alive). Charges no
     * cycles — the Machine's context-switch path prices the switch; this
     * is the raw CR3 write, also used directly by tests.
     */
    void setCurrentProcess(Pid pid);

    /** @return the running process's pid. */
    Pid currentPid() const { return current_->pid(); }

    /** @return the running process. */
    Process &currentProcess() { return *current_; }
    const Process &currentProcess() const { return *current_; }

    /** @return process @p pid (panics when out of range). */
    Process &process(Pid pid);
    const Process &process(Pid pid) const;

    /**
     * @return true when it is safe to context-switch: not inside a scrub
     * pass and not dispatching an interrupt. The Machine's scheduling
     * point checks this so a switch never lands mid-handler on a
     * borrowed process context.
     */
    bool schedulable() const { return !inScrub_ && !inInterrupt_; }
    /// @}

    /** @name Virtual memory (current process) */
    /// @{

    /**
     * Map a fresh region of @p bytes (rounded up to pages) backed by
     * physical frames. @return the region's base virtual address.
     */
    VirtAddr mapRegion(std::size_t bytes);

    /** Unmap a page-aligned region previously returned by mapRegion(). */
    void unmapRegion(VirtAddr base, std::size_t bytes);

    /**
     * Resolve @p vaddr for an access. Pages in swapped pages, delivers
     * SIGSEGV for protected pages (retrying after a handling SEGV
     * handler), and panics on unmapped addresses.
     */
    PhysAddr translate(VirtAddr vaddr);

    /**
     * Charge @p count more translations of addresses in the page of
     * @p vaddr, exactly as @p count translate() calls would, when each
     * would hit the TLB's MRU slot on a resident, accessible page whose
     * frame places @p vaddr at @p paddr.
     * @return false, with nothing charged, when they would not.
     */
    bool translateHits(VirtAddr vaddr, PhysAddr paddr, std::uint64_t count);

    /**
     * Pure page-table lookup for the current process: no cycle charge,
     * no TLB traffic, no page-in, no SIGSEGV (tests and the tradeoff
     * bench use it to find the frame behind an address).
     * @return nothing when the page is unmapped or swapped out.
     */
    std::optional<PhysAddr> peekTranslate(VirtAddr vaddr) const;

    /** @return true when the page containing @p vaddr is mapped. */
    bool pageMapped(VirtAddr vaddr) const;

    /** mprotect analog: make a page-aligned region (in)accessible. */
    void mprotectRange(VirtAddr base, std::size_t bytes, bool accessible);

    /** Register the user SIGSEGV handler (page-protection baseline). */
    void registerSegvHandler(UserSegvHandler handler);
    /// @}

    /** @name The paper's three syscalls (current process) */
    /// @{

    /**
     * Monitor a line-aligned region: flush each line, scramble its data
     * under ECC-disable with the bus locked, and pin its page.
     */
    void watchMemory(VirtAddr addr, std::size_t size);

    /** Remove monitoring: unscramble each line and unpin its page. */
    void disableWatchMemory(VirtAddr addr, std::size_t size);

    /** Register the user-level ECC fault handler. */
    void registerEccFaultHandler(UserEccHandler handler);

    /** @return the 3-bit scramble signature WatchMemory applies —
     *  derived at boot from the controller's codec. */
    const ScramblePattern &scramblePattern() const { return scramble_; }
    /// @}

    /**
     * CPU context note: the machine records whether the in-flight
     * access is a store, so fault handlers can tell reads from writes
     * (a real kernel reads this from the faulting instruction).
     */
    void noteAccessType(bool is_write)
    {
        current_->lastAccessWrite_ = is_write;
    }

    /** @return true when the in-flight access is a store. */
    bool lastAccessWasWrite() const { return current_->lastAccessWrite_; }

    /** Install / clear the current process's per-access tool hook. */
    void setAccessHook(AccessHook hook)
    {
        current_->accessHook_ = std::move(hook);
    }

    /** @return the running process's access hook (Machine access path). */
    const AccessHook &currentAccessHook() const
    {
        return current_->accessHook_;
    }

    /** @return true when the line containing @p vaddr is watched by the
     *  current process. */
    bool isWatched(VirtAddr vaddr) const;

    /** @return number of lines watched by the current process. */
    std::size_t watchedLineCount() const;

    /** @return number of watched lines across every process — the load
     *  the one shared scrubber coordinates with. */
    std::size_t totalWatchedLineCount() const;

    /** @name Scrubbing (paper §2.2.2 "Dealing with ECC Memory Scrubbing") */
    /// @{

    /** Enable periodic scrubbing every @p period cycles. */
    void enableScrubbing(Cycles period);

    /** Disable periodic scrubbing. */
    void disableScrubbing();

    /** Hooks run immediately before/after each scrub pass, registered
     *  by (and dispatched in the context of) the current process. */
    void setScrubHooks(std::function<void()> pre,
                       std::function<void()> post);

    /** Run the scrub pass now if it is due (park → scrubAll →
     *  restore); called from the machine loop. */
    void tick();
    /// @}

    /** @name Swap daemon (tests/ablation; current process) */
    /// @{

    /**
     * Try to swap out the page containing @p vaddr.
     * @return false when the page is pinned or not resident.
     */
    bool swapOutPage(VirtAddr vaddr);

    /** @return true when the page containing @p vaddr is resident. */
    bool pageResident(VirtAddr vaddr) const;

    /** Select how ECC watches interact with swapping. */
    void setSwapWatchPolicy(SwapWatchPolicy policy);

    /** @return the active swap/watch policy. */
    SwapWatchPolicy swapWatchPolicy() const
    {
        return current_->swapPolicy_;
    }

    /**
     * Hooks for the UnwatchRewatch policy: @p pre_out runs before a
     * page with watched lines swaps out, @p post_in after any page is
     * swapped back in. Both receive the virtual page address.
     */
    void setSwapHooks(std::function<void(VirtAddr)> pre_out,
                      std::function<void(VirtAddr)> post_in);
    /// @}

    /**
     * Control whether a HardwareError decision from the user handler (or
     * an unhandled hardware fault) panics. Tests flip this to observe the
     * accounting instead of unwinding. Machine-wide.
     */
    void setPanicOnHardwareError(bool value);

    /**
     * SimCheck deep audit: per-process TLB/page-table consistency, watch
     * bookkeeping against syscall history, cross-process frame
     * exclusivity, frame free-list sanity. No-op when auditing is
     * disabled; called periodically by the Machine and by tests.
     */
    void auditInvariants() const;

    /** @return machine-wide kernel statistics (sum over processes plus
     *  machine-global events like scrub passes). */
    const StatSet &stats() const { return stats_; }

  private:
    void onEccInterrupt(const EccFaultInfo &info);

    /**
     * The page walk of WatchMemory/DisableWatchMemory (@p syscall names
     * it in panics): charge one walk per page of [addr, addr + size),
     * page it in if swapped out and, when @p pin, pin it.
     * @return the entries of those pages, in address order.
     */
    std::vector<PageTableEntry *> walkWatchPages(const char *syscall,
                                                 VirtAddr addr,
                                                 std::size_t size, bool pin);

    /** Flip the scramble signature of every word of the line at
     *  @p pline with one line read and one line write; the mask is its
     *  own inverse, so this scrambles and restores. Uncharged. */
    void toggleScramble(PhysAddr pline);
    PhysAddr allocFrame();
    void freeFrame(PhysAddr frame);
    void pageIn(VirtAddr vpage);

    /** Raw context retarget shared by setCurrentProcess, interrupt
     *  routing and scrub-hook dispatch: current pointer, cache owner
     *  tag, trace pid stamp. No aliveness check, no cycle charge. */
    void switchTo(Process &proc);

    /** Bump @p stat in the machine-wide set and the current process. */
    void
    bump(KernelStat stat, std::uint64_t delta = 1)
    {
        stats_.add(stat, delta);
        current_->stats_.add(stat, delta);
    }

    MemoryController &controller_;
    Cache &cache_;
    CycleClock &clock_;
    Trace *trace_;
    /** The scramble signature for the controller's codec, found at
     *  boot; boot panics when the codec cannot host one. */
    ScramblePattern scramble_;

    /** Process table, indexed by pid. Never shrinks; exited processes
     *  become zombies. */
    std::vector<std::unique_ptr<Process>> processes_;
    Process *current_ = nullptr;

    /** Frame free list — frames are a shared machine resource, handed
     *  out from the back. */
    std::vector<PhysAddr> freeFrames_;

    bool scrubEnabled_ = false;
    bool inScrub_ = false;
    bool inInterrupt_ = false;
    Cycles scrubPeriod_ = 0;
    Cycles nextScrubDue_ = 0;

    bool panicOnHardwareError_ = true;

    /** Machine-wide aggregate counters (see stats()). */
    StatSet stats_{kKernelStatNames};
};

} // namespace safemem
