/**
 * @file
 * The per-process half of the simulated kernel: everything that belongs
 * to one running program rather than to the machine.
 *
 * A Process owns an AddressSpace (page table, TLB, allocation cursor,
 * swap images; the page-table entries record which lines are watched),
 * its watched-line count, its registered ECC/SIGSEGV fault handlers and
 * tool access hook, its swap/scrub coordination hooks, and a
 * per-process view of the kernel syscall counters. The Kernel keeps a
 * vector of these plus a current-process pointer; the cache, memory
 * controller, scrubber, bus lock and frame free list stay shared machine
 * resources (consolidation is the point — many watch sets, one scrubber).
 *
 * Everything here is kernel-internal state: only the Kernel mutates a
 * Process. The public const accessors are the one inspection seam the
 * run harness and tests use (per-process stats, page table and TLB
 * counters), reached through Kernel::currentProcess() or
 * Kernel::process(pid).
 */

#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/stats.h"
#include "common/types.h"
#include "mem/fault.h"
#include "mem/line.h"
#include "os/page_table.h"
#include "os/tlb.h"

namespace safemem {

/** Process identifier. Pid 0 is the init process a machine boots with. */
using Pid = std::uint32_t;

/** ECC fault as delivered to the user-level handler. */
struct UserEccFault
{
    VirtAddr vaddr = 0;       ///< virtual address of the faulting line
    PhysAddr lineAddr = 0;    ///< physical address of the faulting line
    int wordIndex = 0;        ///< faulting ECC group within the line
    EccFaultKind kind = EccFaultKind::MultiBit;
    std::uint64_t rawData = 0;
    /** The faulting instruction was a store (its RFO fill faulted). */
    bool isWrite = false;
};

/** How the kernel reconciles ECC watches with page swapping. */
enum class SwapWatchPolicy : std::uint8_t
{
    /** Watched pages are pinned; the swap daemon skips them (the
     *  paper's implemented scheme, §2.2.2). */
    PinPages,
    /** Watched pages may swap; registered hooks unwatch on swap-out
     *  and rewatch on swap-in (the paper's proposed "better
     *  solution"). */
    UnwatchRewatch
};

/** What the user-level ECC handler concluded. */
enum class FaultDecision : std::uint8_t
{
    Handled,       ///< access fault consumed; restart the access
    HardwareError  ///< data does not match the scramble signature
};

/** User-level ECC fault handler (RegisterECCFaultHandler). */
using UserEccHandler = std::function<FaultDecision(const UserEccFault &)>;

/** User-level SIGSEGV handler; returns true when the fault was handled. */
using UserSegvHandler = std::function<bool(VirtAddr)>;

/** Observer invoked before every application load/store (Purify). */
using AccessHook =
    std::function<void(VirtAddr addr, std::size_t size, bool is_write)>;

/** Slot indices into a kernel StatSet; order matches kKernelStatNames.
 *  The Kernel keeps one machine-wide aggregate set plus one set per
 *  process, bumped together, so single-process totals are unchanged by
 *  the multi-process refactor while consolidated runs still attribute
 *  syscall traffic to its process. */
enum class KernelStat : std::size_t
{
    PagesMapped,
    PagesUnmapped,
    SegvDelivered,
    MprotectCalls,
    LinesWatched,
    LinesUnwatched,
    MaxWatchedLines,
    EccInterrupts,
    SingleBitReports,
    HardwareErrors,
    AccessFaultsHandled,
    ScrubPasses,
    WatchedPagesSwapped,
    PagesSwappedOut,
    PagesSwappedIn,
};

/** Report/snapshot names for KernelStat, in enumerator order. */
inline constexpr const char *kKernelStatNames[] = {
    "pages_mapped",
    "pages_unmapped",
    "segv_delivered",
    "mprotect_calls",
    "lines_watched",
    "lines_unwatched",
    "max_watched_lines",
    "ecc_interrupts",
    "single_bit_reports",
    "hardware_errors",
    "access_faults_handled",
    "scrub_passes",
    "watched_pages_swapped",
    "pages_swapped_out",
    "pages_swapped_in",
};

/**
 * One process's view of memory. Every process allocates from the same
 * virtual base, so two processes see identical addresses backed by
 * different frames — which is exactly what the per-process TLB exists
 * to keep straight (an ASID-tagged TLB in hardware terms: a context
 * switch changes which TLB answers, so no flush cost is charged and no
 * stale cross-process translation can ever hit).
 */
struct AddressSpace
{
    PageTable pageTable;
    Tlb tlb;
    /** Next fresh mapping address (bump allocation, never reused). */
    VirtAddr nextVirt = 0x10000000;
    /** Swapped-out page images (kLinesPerPage lines), keyed by vpage. */
    std::unordered_map<VirtAddr, std::vector<LineWords>> swapStore;
};

class Process
{
  public:
    explicit Process(Pid pid) : pid_(pid) {}

    Process(const Process &) = delete;
    Process &operator=(const Process &) = delete;

    /** @return this process's identifier. */
    Pid pid() const { return pid_; }

    /** @return false once the process has exited (zombie: its address
     *  space and counters remain inspectable until machine teardown). */
    bool alive() const { return alive_; }

    /** @return the address space (page table, TLB, swap images). */
    const AddressSpace &space() const { return space_; }

    /** @return the process's page table. */
    const PageTable &pageTable() const { return space_.pageTable; }

    /** @return the process's TLB (per-process hit/miss counters). */
    const Tlb &tlb() const { return space_.tlb; }

    /** @return this process's share of the kernel syscall counters. */
    const StatSet &stats() const { return stats_; }

    /** @return number of lines this process currently watches. */
    std::size_t watchedLineCount() const { return watchedLineCount_; }

  private:
    friend class Kernel;

    Pid pid_;
    bool alive_ = true;
    AddressSpace space_;

    /** Lines this process watches: the popcount sum of its page-table
     *  entries' watchedLines masks. */
    std::size_t watchedLineCount_ = 0;

    UserEccHandler eccHandler_;
    UserSegvHandler segvHandler_;
    AccessHook accessHook_;

    /** CPU context note: was the in-flight access a store? */
    bool lastAccessWrite_ = false;

    /**
     * The clock's default cost center is set by RAII CostScopes on the
     * driving call stack, so it is process context: a full process
     * switch saves the outgoing process's center here and restores the
     * incoming one's (like CR3), or a switch landing inside one
     * process's tool scope would charge the *other* process's
     * application work to that tool.
     */
    CostCenter costCenter_ = CostCenter::Application;

    SwapWatchPolicy swapPolicy_ = SwapWatchPolicy::PinPages;
    std::function<void(VirtAddr)> preSwapOutHook_;
    std::function<void(VirtAddr)> postSwapInHook_;
    /** Scrub coordination hooks, run around each scrub pass. */
    std::function<void()> preScrubHook_;
    std::function<void()> postScrubHook_;

    StatSet stats_{kKernelStatNames};
};

} // namespace safemem
