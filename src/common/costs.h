/**
 * @file
 * Cycle-cost model of the simulated machine.
 *
 * One place holds every latency constant so the experiment tables are easy
 * to audit. Kernel-path constants are calibrated so the Table 2
 * microbenchmark lands on the paper's measurements for the 2.4 GHz
 * evaluation machine: WatchMemory ~2.0 us, DisableWatchMemory ~1.5 us,
 * mprotect ~1.02 us per page.
 */

#pragma once

#include "common/types.h"

namespace safemem {

/** L1 data-cache hit latency. */
inline constexpr Cycles kCacheHitCycles = 4;

/** Full cache-line DRAM transfer (fill or writeback), including ECC work. */
inline constexpr Cycles kDramLineCycles = 200;

/** Extra cache bookkeeping on a miss (tag update, victim selection). */
inline constexpr Cycles kCacheMissMgmtCycles = 20;

/** Kernel entry/exit for any syscall. */
inline constexpr Cycles kSyscallEntryCycles = 900;

/** Page-table walk to resolve one user pointer inside the kernel. */
inline constexpr Cycles kPageTableWalkCycles = 300;

/**
 * WatchMemory / DisableWatchMemory cost structure. One syscall pays a
 * fixed cost (bus lock, ECC mode switches, registry update), a per-page
 * cost (page-table walk + pin), and a small marginal cost per extra
 * cache line (scramble the 8 ECC groups, flush). The constants are
 * calibrated so a one-line call reproduces Table 2 (2.0 us / 1.5 us at
 * 2.4 GHz) while multi-line regions scale sublinearly, as a batched
 * scramble under a single bus lock would.
 */
/// @{
/** Locking or unlocking the memory bus around a scramble (paper §2.2.2). */
inline constexpr Cycles kBusLockCycles = 200;

/** Switching the controller ECC mode (device register write). */
inline constexpr Cycles kEccModeSwitchCycles = 300;

/** Flushing one line from the cache (clflush analog). */
inline constexpr Cycles kCacheFlushLineCycles = 60;

/** Scrambling the 8 ECC groups of one line (device word writes). */
inline constexpr Cycles kScrambleLineCycles = 340;

/** Unscrambling the 8 ECC groups of one line. */
inline constexpr Cycles kUnscrambleLineCycles = 300;

/** Pinning or unpinning one page in the VM system. */
inline constexpr Cycles kPagePinCycles = 1100;

/** Watch-registry insert bookkeeping per WatchMemory call. */
inline constexpr Cycles kWatchInsertCycles = 1000;

/** Watch-registry removal bookkeeping per DisableWatchMemory call. */
inline constexpr Cycles kWatchRemoveCycles = 580;
/// @}

/** Page-table permission update for one page (mprotect body). */
inline constexpr Cycles kPageProtCycles = 500;

/** TLB shootdown after a permission change. */
inline constexpr Cycles kTlbFlushCycles = 748;

/** Hardware page walk on a CPU-side TLB miss. */
inline constexpr Cycles kTlbMissCycles = 40;

/** Delivering an interrupt / fault to a user-level handler. */
inline constexpr Cycles kFaultDeliveryCycles = 1400;

/** Tool wrapper bookkeeping per allocation/deallocation event. */
inline constexpr Cycles kWrapperEventCycles = 90;

/** Fixed cost of one §3.2.2 outlier-detection pass. */
inline constexpr Cycles kDetectPassCycles = 60;

/** Per-group cost of one outlier-detection pass. */
inline constexpr Cycles kDetectPerGroupCycles = 15;

/** Purify-model cost of checking one memory access against shadow bits. */
inline constexpr Cycles kPurifyCheckCycles = 24;

/** Purify-model instrumentation multiplier on compute blocks: an
 *  instrumented block takes this many times its original cycles. */
inline constexpr double kPurifyComputeFactor = 8.0;

/** Purify-model cost of updating shadow state for one byte. */
inline constexpr Cycles kPurifyShadowByteCycles = 2;

/** Purify-model mark-and-sweep cost per heap word scanned. */
inline constexpr Cycles kPurifySweepWordCycles = 6;

/** Application cycles between Purify's mark-and-sweep leak scans. */
inline constexpr Cycles kPurifySweepPeriod = 8'000'000;

/** Scrubbing one ECC group during a scrub pass. */
inline constexpr Cycles kScrubWordCycles = 2;

/** Swapping one page out to (or in from) the backing store. */
inline constexpr Cycles kSwapPageCycles = 24000;

/** Creating a fresh process (address-space setup, kernel structures). */
inline constexpr Cycles kProcessCreateCycles = 12000;

/** One cooperative context switch (register save/restore, CR3 write;
 *  TLBs are per-address-space — ASID-tagged — so no flush is charged). */
inline constexpr Cycles kContextSwitchCycles = 2400;

/** @name Block protection geometry (large-codeword EDC+ECC split).
 *  Charged only on block-geometry machines; the per-word SEC-DED
 *  default never reaches these paths. */
/// @{

/** Verifying one line's EDC fold on the fill fast path. */
inline constexpr Cycles kEdcCheckCycles = 2;

/** Decoding one 64-bit word of a codeword after an EDC miss (the ECC
 *  redundancy fetch and long-code decode, amortized per word). */
inline constexpr Cycles kBlockDecodeWordCycles = 6;

/** Read-modify-write turnaround when a writeback opens a new codeword:
 *  fetch the old line and ECC, merge, rewrite the redundancy. */
inline constexpr Cycles kPartialWriteRmwCycles = 150;

/** Folding a writeback into an already-open codeword (EDC update plus
 *  the buffered incremental ECC merge). */
inline constexpr Cycles kEdcUpdateCycles = 8;
/// @}

} // namespace safemem
