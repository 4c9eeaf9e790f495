#include "os/kernel.h"

#include <bit>

#include "check/simcheck.h"
#include "common/costs.h"
#include "common/logging.h"
#include "ecc/edc.h"
#include "trace/trace.h"

namespace safemem {

Kernel::Kernel(MemoryController &controller, Cache &cache, CycleClock &clock,
               Trace *trace)
    : controller_(controller), cache_(cache), clock_(clock), trace_(trace)
{
    // WatchMemory is only sound when a guaranteed-uncorrectable bit
    // triple exists for the machine's codec. This is the one place the
    // no-signature case still panics: a machine that cannot watch
    // memory must not boot (campaign sweeps probe codecs without a
    // machine and report the verdict instead — see runCampaign).
    std::optional<ScramblePattern> pattern =
        findScramblePositions(controller_.code());
    if (!pattern)
        panic("Kernel: ECC codec '", controller_.code().name(),
              "' cannot host a scramble signature; WatchMemory would "
              "never fault");
    scramble_ = *pattern;
    // Under a block geometry the watch trick additionally relies on the
    // scramble leaving the line's EDC fold stale: the fill's EDC fast
    // check must miss so the long-code decode (which raises the fault)
    // actually runs. The folds are linear, so the delta a scramble
    // induces is a data-independent constant — the EDC analogue of the
    // scramble-signature search above, checked once at boot.
    const ProtectionGeometry &geom = controller_.geometry();
    if (!geom.isWord() &&
        edcScrambleFoldDelta(geom.edc, scramble_.mask()) == 0)
        panic("Kernel: scramble signature ", scramble_.mask(),
              " is invisible to the '", geometryName(geom),
              "' EDC fold; WatchMemory would never fault");
    // Build the frame free list over all of physical memory.
    std::size_t frames = controller_.memory().size() / kPageSize;
    freeFrames_.reserve(frames);
    // Hand out low frames first so tests see deterministic addresses.
    for (std::size_t i = frames; i-- > 0;)
        freeFrames_.push_back(static_cast<PhysAddr>(i) * kPageSize);

    // The init process exists at power-on: free (no cycles, no trace),
    // so a single-process machine boots exactly as it always has.
    processes_.push_back(std::make_unique<Process>(0));
    current_ = processes_.front().get();

    controller_.setInterruptHandler(
        [this](const EccFaultInfo &info) { onEccInterrupt(info); });
}

void
Kernel::switchTo(Process &proc)
{
    current_ = &proc;
    cache_.setCurrentPid(proc.pid());
    if (trace_)
        trace_->setPid(proc.pid());
}

Pid
Kernel::createProcess()
{
    clock_.advance(kSyscallEntryCycles + kProcessCreateCycles,
                   CostCenter::Kernel);
    Pid pid = static_cast<Pid>(processes_.size());
    processes_.push_back(std::make_unique<Process>(pid));
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::SchedProcessCreated, clock_.now(),
                       pid);
    return pid;
}

void
Kernel::exitProcess(Pid pid)
{
    Process &proc = process(pid);
    if (!proc.alive_)
        panic("Kernel::exitProcess: pid ", pid, " already exited");
    proc.alive_ = false;
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::SchedProcessExited, clock_.now(),
                       pid);
}

void
Kernel::setCurrentProcess(Pid pid)
{
    Process &proc = process(pid);
    if (!proc.alive_)
        panic("Kernel::setCurrentProcess: pid ", pid, " has exited");
    // The clock's default cost center belongs to the outgoing call
    // stack's CostScopes: park it with the process and restore the
    // incoming one's, or a switch landing inside a tool scope would
    // bill the next process's application work to this one's tool.
    current_->costCenter_ = clock_.currentCenter();
    clock_.setCurrentCenter(proc.costCenter_);
    switchTo(proc);
}

Process &
Kernel::process(Pid pid)
{
    if (pid >= processes_.size())
        panic("Kernel::process: no such pid ", pid);
    return *processes_[pid];
}

const Process &
Kernel::process(Pid pid) const
{
    if (pid >= processes_.size())
        panic("Kernel::process: no such pid ", pid);
    return *processes_[pid];
}

PhysAddr
Kernel::allocFrame()
{
    if (freeFrames_.empty())
        fatal("Kernel: out of physical memory");
    PhysAddr frame = freeFrames_.back();
    freeFrames_.pop_back();
    return frame;
}

void
Kernel::freeFrame(PhysAddr frame)
{
    freeFrames_.push_back(frame);
}

VirtAddr
Kernel::mapRegion(std::size_t bytes)
{
    clock_.advance(kSyscallEntryCycles);
    AddressSpace &space = current_->space_;
    std::size_t pages = alignUp(bytes, kPageSize) / kPageSize;
    if (pages == 0)
        pages = 1;
    VirtAddr base = space.nextVirt;
    space.nextVirt += pages * kPageSize;
    for (std::size_t i = 0; i < pages; ++i)
        space.pageTable.map(base + i * kPageSize, allocFrame());
    bump(KernelStat::PagesMapped, pages);
    return base;
}

void
Kernel::unmapRegion(VirtAddr base, std::size_t bytes)
{
    clock_.advance(kSyscallEntryCycles);
    AddressSpace &space = current_->space_;
    if (!isAligned(base, kPageSize))
        panic("Kernel::unmapRegion: unaligned base ", base);
    std::size_t pages = alignUp(bytes, kPageSize) / kPageSize;
    for (std::size_t i = 0; i < pages; ++i) {
        VirtAddr vpage = base + i * kPageSize;
        PageTableEntry *entry = space.pageTable.find(vpage);
        if (!entry)
            panic("Kernel::unmapRegion: vpage ", vpage, " not mapped");
        if (entry->pinCount > 0)
            panic("Kernel::unmapRegion: vpage ", vpage, " still pinned");
        // Unpinned under UnwatchRewatch, but its frame is still
        // scrambled: freed, it would fault in the next owner's hands.
        if (entry->watchedLines != 0)
            panic("Kernel::unmapRegion: vpage ", vpage, " still watched");
        if (entry->present) {
            // Drop stale cached copies of the departing frame.
            for (std::size_t l = 0; l < kLinesPerPage; ++l)
                cache_.flushLine(entry->frame + l * kCacheLineSize);
            freeFrame(entry->frame);
        } else {
            space.swapStore.erase(vpage);
        }
        space.pageTable.unmap(vpage);
        space.tlb.invalidate(vpage);
    }
    bump(KernelStat::PagesUnmapped, pages);
}

bool
Kernel::pageMapped(VirtAddr vaddr) const
{
    return current_->space_.pageTable.find(alignDown(vaddr, kPageSize)) !=
           nullptr;
}

bool
Kernel::pageResident(VirtAddr vaddr) const
{
    const PageTableEntry *entry =
        current_->space_.pageTable.find(alignDown(vaddr, kPageSize));
    return entry && entry->present;
}

PhysAddr
Kernel::translate(VirtAddr vaddr)
{
    AddressSpace &space = current_->space_;
    VirtAddr vpage = alignDown(vaddr, kPageSize);
    bool hit = false;
    PageTableEntry *&cached = space.tlb.lookup(vpage, hit);
    // A hit on a resident, accessible page needs no walk: the cached
    // entry is the page table's own (unmap shoots it down first).
    if (hit && cached->present && cached->accessible)
        return cached->frame + (vaddr - vpage);
    if (!hit)
        clock_.advance(kTlbMissCycles);
    for (int attempt = 0; attempt < 4; ++attempt) {
        PageTableEntry *entry = space.pageTable.find(vpage);
        if (!entry) {
            // Never leave an invalid translation cached: the lookup above
            // optimistically inserted the vpage before the walk failed.
            space.tlb.invalidate(vpage);
            panic("SIGSEGV: access to unmapped address ", vaddr);
        }
        // Cache the walk before a page-in hook or SEGV handler can
        // reshape the TLB and leave the slot reference dangling.
        if (attempt == 0)
            cached = entry;
        if (!entry->present)
            pageIn(vpage);
        if (!entry->accessible) {
            // Deliver SIGSEGV to the user handler (page-protection
            // monitoring path); retry the translation if it handled it.
            bump(KernelStat::SegvDelivered);
            clock_.advance(kFaultDeliveryCycles);
            SAFEMEM_TRACE_EMIT(trace_, TraceEvent::KernelSegvDelivered,
                               clock_.now(), vaddr);
            if (current_->segvHandler_ && current_->segvHandler_(vaddr))
                continue;
            panic("SIGSEGV: access to protected address ", vaddr);
        }
        return entry->frame + (vaddr - vpage);
    }
    panic("Kernel::translate: SEGV handler loop on address ", vaddr);
}

bool
Kernel::translateHits(VirtAddr vaddr, PhysAddr paddr, std::uint64_t count)
{
    Tlb &tlb = current_->space_.tlb;
    VirtAddr vpage = alignDown(vaddr, kPageSize);
    const PageTableEntry *entry = tlb.mruEntry(vpage);
    if (!entry || !entry->present || !entry->accessible ||
        entry->frame + (vaddr - vpage) != paddr)
        return false;
    tlb.hitMru(count);
    return true;
}

std::optional<PhysAddr>
Kernel::peekTranslate(VirtAddr vaddr) const
{
    VirtAddr vpage = alignDown(vaddr, kPageSize);
    const PageTableEntry *entry = current_->space_.pageTable.find(vpage);
    if (!entry || !entry->present)
        return std::nullopt;
    return entry->frame + (vaddr - vpage);
}

void
Kernel::mprotectRange(VirtAddr base, std::size_t bytes, bool accessible)
{
    clock_.advance(kSyscallEntryCycles);
    AddressSpace &space = current_->space_;
    if (!isAligned(base, kPageSize) || !isAligned(bytes, kPageSize))
        panic("Kernel::mprotectRange: unaligned region");
    for (std::size_t off = 0; off < bytes; off += kPageSize) {
        clock_.advance(kPageTableWalkCycles + kPageProtCycles);
        PageTableEntry *entry = space.pageTable.find(base + off);
        if (!entry)
            panic("Kernel::mprotectRange: unmapped vpage ", base + off);
        entry->accessible = accessible;
    }
    clock_.advance(kTlbFlushCycles);
    space.tlb.flush();
    bump(KernelStat::MprotectCalls);
}

void
Kernel::registerSegvHandler(UserSegvHandler handler)
{
    current_->segvHandler_ = std::move(handler);
}

namespace {

/**
 * Call @p fn(entry, vline, pline) for each line of the line-aligned
 * region [addr, addr + size), in address order. @p pages holds the
 * entries of the pages the region touches, as walkWatchPages() returns
 * them.
 */
template <typename Fn>
void
forEachLine(const std::vector<PageTableEntry *> &pages, VirtAddr addr,
            std::size_t size, Fn &&fn)
{
    const VirtAddr first_page = alignDown(addr, kPageSize);
    for (VirtAddr vline = addr; vline < addr + size;
         vline += kCacheLineSize) {
        PageTableEntry &entry = *pages[(vline - first_page) / kPageSize];
        fn(entry, vline, entry.frame + vline % kPageSize);
    }
}

} // namespace

std::vector<PageTableEntry *>
Kernel::walkWatchPages(const char *syscall, VirtAddr addr, std::size_t size,
                       bool pin)
{
    AddressSpace &space = current_->space_;
    std::vector<PageTableEntry *> pages;
    for (VirtAddr vpage = alignDown(addr, kPageSize); vpage < addr + size;
         vpage += kPageSize) {
        clock_.advance(kPageTableWalkCycles);
        PageTableEntry *entry = space.pageTable.find(vpage);
        if (!entry)
            panic(syscall, ": unmapped address ", vpage);
        if (!entry->present)
            pageIn(vpage);
        if (pin) {
            clock_.advance(kPagePinCycles);
            ++entry->pinCount;
        }
        pages.push_back(entry);
    }
    return pages;
}

void
Kernel::toggleScramble(PhysAddr pline)
{
    LineWords words = controller_.peekLine(pline);
    for (std::uint64_t &word : words)
        word = scramble_.apply(word);
    controller_.writeLineDeviceOp(pline, words);
}

void
Kernel::watchMemory(VirtAddr addr, std::size_t size)
{
    clock_.advance(kSyscallEntryCycles);
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::KernelWatchMemory, clock_.now(),
                       addr, size);
    Process &proc = *current_;
    if (!isAligned(addr, kCacheLineSize) || !isAligned(size, kCacheLineSize))
        panic("WatchMemory: region must be cache-line aligned (addr=",
              addr, " size=", size, ")");

    // Resolve and pin every page the region touches (one walk + pin per
    // page, not per line).
    const std::vector<PageTableEntry *> pages = walkWatchPages(
        "WatchMemory", addr, size,
        proc.swapPolicy_ == SwapWatchPolicy::PinPages);

    // Evict cached copies so memory holds current data and the next
    // access must go to DRAM (paper: cache effects).
    forEachLine(pages, addr, size,
                [&](const PageTableEntry &entry, VirtAddr vline,
                    PhysAddr pline) {
                    if (entry.watchedLines & watchBit(vline))
                        panic("WatchMemory: line ", vline,
                              " already watched");
                    cache_.flushLine(pline); // charges kCacheFlushLineCycles
                });

    // Figure 2, batched: lock the bus, disable ECC, flip the 3
    // signature bits of every ECC group (check bytes stay stale),
    // restore ECC, unlock. An empty region takes no bus lock.
    clock_.advance((size == 0 ? 0 : 2 * kBusLockCycles) +
                   2 * kEccModeSwitchCycles);
    if (size != 0) {
        BusLockGuard bus(controller_);
        EccMode saved = controller_.mode();
        controller_.setMode(EccMode::Disabled);
        forEachLine(pages, addr, size,
                    [&](const PageTableEntry &, VirtAddr, PhysAddr pline) {
                        clock_.advance(kScrambleLineCycles);
                        toggleScramble(pline);
                    });
        controller_.setMode(saved);
    }

    if (simCheckActive()) {
        // The scramble's whole purpose is to leave every group of the line
        // uncorrectable under the stale check bytes; a clean or merely
        // "corrected" group means the watch would never fire (or worse,
        // silently corrupt data on the next fill). Under a block
        // geometry the scrambled line must also have gone EDC-stale, or
        // the fill fast path would wave it through and the decode would
        // never run (boot checked the fold delta is nonzero; this audits
        // the datapath actually left it stale).
        const EccCodec &code = controller_.code();
        const PhysicalMemory &memory = controller_.memory();
        const bool block = !controller_.geometry().isWord();
        forEachLine(
            pages, addr, size,
            [&](const PageTableEntry &, VirtAddr, PhysAddr pline) {
                LineWords words;
                std::uint8_t checks[kEccGroupsPerLine];
                memory.readLine(pline, words, checks);
                for (std::size_t i = 0; i < kEccGroupsPerLine; ++i) {
                    SIMCHECK_AUDIT(
                        AuditDomain::Kernel, "scramble_uncorrectable",
                        code.decode(words[i], checks[i]).status ==
                            EccDecodeStatus::Uncorrectable,
                        "scrambled word at ", pline + i * kEccGroupSize,
                        " does not decode as a multi-bit fault");
                }
                if (block) {
                    SIMCHECK_AUDIT(AuditDomain::Kernel, "scramble_edc_stale",
                                   !controller_.edcConsistent(pline),
                                   "scrambled line at ", pline,
                                   " still passes the EDC fast check");
                }
            });
    }

    clock_.advance(kWatchInsertCycles);
    forEachLine(pages, addr, size,
                [&](PageTableEntry &entry, VirtAddr vline, PhysAddr) {
                    entry.watchedLines |= watchBit(vline);
                    ++proc.watchedLineCount_;
                    bump(KernelStat::LinesWatched);
                });
    stats_.maxOf(KernelStat::MaxWatchedLines, totalWatchedLineCount());
    proc.stats_.maxOf(KernelStat::MaxWatchedLines, proc.watchedLineCount_);
}

void
Kernel::disableWatchMemory(VirtAddr addr, std::size_t size)
{
    clock_.advance(kSyscallEntryCycles);
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::KernelDisableWatchMemory,
                       clock_.now(), addr, size);
    Process &proc = *current_;
    if (!isAligned(addr, kCacheLineSize) || !isAligned(size, kCacheLineSize))
        panic("DisableWatchMemory: region must be cache-line aligned");

    const std::vector<PageTableEntry *> pages =
        walkWatchPages("DisableWatchMemory", addr, size, false);

    // The scramble mask is its own inverse, and rewriting with ECC
    // enabled regenerates matching check bytes, clearing the watch.
    // The not-watched panic below unwinds *while the bus is locked*,
    // so the lock must be RAII-held or it stays wedged for the next
    // caller (regression: test_lock_discipline.cc). An empty region
    // takes no bus lock.
    clock_.advance(size == 0 ? 0 : 2 * kBusLockCycles);
    if (size != 0) {
        BusLockGuard bus(controller_);
        forEachLine(pages, addr, size,
                    [&](PageTableEntry &entry, VirtAddr vline,
                        PhysAddr pline) {
                        const std::uint64_t bit = watchBit(vline);
                        if (!(entry.watchedLines & bit))
                            panic("DisableWatchMemory: line ", vline,
                                  " not watched");
                        clock_.advance(kUnscrambleLineCycles);
                        toggleScramble(pline);
                        entry.watchedLines &= ~bit;
                        --proc.watchedLineCount_;
                        bump(KernelStat::LinesUnwatched);
                    });
    }

    clock_.advance(kWatchRemoveCycles);
    if (proc.swapPolicy_ == SwapWatchPolicy::PinPages) {
        VirtAddr vpage = alignDown(addr, kPageSize);
        for (PageTableEntry *entry : pages) {
            clock_.advance(kPagePinCycles);
            if (entry->pinCount == 0)
                panic("DisableWatchMemory: vpage ", vpage, " not pinned");
            --entry->pinCount;
            vpage += kPageSize;
        }
    }
}

void
Kernel::registerEccFaultHandler(UserEccHandler handler)
{
    clock_.advance(kSyscallEntryCycles);
    current_->eccHandler_ = std::move(handler);
}

bool
Kernel::isWatched(VirtAddr vaddr) const
{
    const PageTableEntry *entry =
        current_->space_.pageTable.find(alignDown(vaddr, kPageSize));
    return entry && (entry->watchedLines & watchBit(vaddr)) != 0;
}

std::size_t
Kernel::watchedLineCount() const
{
    return current_->watchedLineCount_;
}

std::size_t
Kernel::totalWatchedLineCount() const
{
    std::size_t total = 0;
    for (const auto &proc : processes_)
        total += proc->watchedLineCount_;
    return total;
}

void
Kernel::onEccInterrupt(const EccFaultInfo &info)
{
    clock_.advance(kFaultDeliveryCycles);
    stats_.add(KernelStat::EccInterrupts);
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::KernelEccInterrupt, clock_.now(),
                       info.lineAddr,
                       static_cast<std::uint64_t>(info.wordIndex),
                       static_cast<std::uint64_t>(info.kind));

    // Route to the process owning the faulting frame. A fault in a frame
    // no process maps (an injected error in free memory hit by the
    // scrubber) is delivered to the current process, which triggered the
    // device access — the single-process behaviour, generalised.
    PhysAddr frame = alignDown(info.lineAddr, kPageSize);
    Process *owner = nullptr;
    VirtAddr vaddr = 0;
    for (const auto &proc : processes_) {
        if (auto vpage = proc->space_.pageTable.reverse(frame)) {
            owner = proc.get();
            vaddr = *vpage + (info.lineAddr - frame);
            break;
        }
    }
    Process *target = owner ? owner : current_;
    target->stats_.add(KernelStat::EccInterrupts);

    if (info.kind == EccFaultKind::UnreportedSingle) {
        // Check-Only mode report; log and continue.
        stats_.add(KernelStat::SingleBitReports);
        target->stats_.add(KernelStat::SingleBitReports);
        return;
    }

    if (!target->eccHandler_) {
        // Stock-OS behaviour (paper §2.1): panic / blue screen. Another
        // process's handler is no help — the fault is not its memory.
        SAFEMEM_TRACE_EMIT(trace_, TraceEvent::KernelPanicNoHandler,
                           clock_.now(), info.lineAddr, target->pid());
        panic("kernel panic: uncorrectable ECC memory error at phys line ",
              info.lineAddr);
    }

    UserEccFault fault;
    fault.vaddr = vaddr;
    fault.lineAddr = info.lineAddr;
    fault.wordIndex = info.wordIndex;
    fault.kind = info.kind;
    fault.rawData = info.rawData;
    fault.isWrite = current_->lastAccessWrite_;

    // Dispatch in the owner's context so the handler's repair/unwatch
    // syscalls act on the owner's address space, then restore whoever
    // was running. The inInterrupt_ flag keeps the Machine's scheduling
    // point from switching away mid-handler.
    Process *running = current_;
    inInterrupt_ = true;
    switchTo(*target);
    FaultDecision decision = target->eccHandler_(fault);
    switchTo(*running);
    inInterrupt_ = false;

    if (decision == FaultDecision::HardwareError) {
        stats_.add(KernelStat::HardwareErrors);
        target->stats_.add(KernelStat::HardwareErrors);
        if (panicOnHardwareError_) {
            SAFEMEM_TRACE_EMIT(trace_, TraceEvent::KernelPanicHardwareError,
                               clock_.now(), info.lineAddr);
            panic("kernel panic: hardware ECC error at phys line ",
                  info.lineAddr);
        }
    } else {
        stats_.add(KernelStat::AccessFaultsHandled);
        target->stats_.add(KernelStat::AccessFaultsHandled);
    }
}

void
Kernel::setPanicOnHardwareError(bool value)
{
    panicOnHardwareError_ = value;
}

void
Kernel::enableScrubbing(Cycles period)
{
    scrubEnabled_ = true;
    scrubPeriod_ = period;
    nextScrubDue_ = clock_.now() + period;
    controller_.setMode(EccMode::CorrectAndScrub);
}

void
Kernel::disableScrubbing()
{
    scrubEnabled_ = false;
    if (controller_.mode() == EccMode::CorrectAndScrub)
        controller_.setMode(EccMode::CorrectError);
}

void
Kernel::setScrubHooks(std::function<void()> pre,
                      std::function<void()> post)
{
    current_->preScrubHook_ = std::move(pre);
    current_->postScrubHook_ = std::move(post);
}

void
Kernel::tick()
{
    // The rewatch hook performs memory accesses that re-enter tick();
    // the guard keeps a scrub pass from recursing into itself.
    if (!scrubEnabled_ || inScrub_ || clock_.now() < nextScrubDue_)
        return;
    inScrub_ = true;
    stats_.add(KernelStat::ScrubPasses);
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::KernelScrubTickBegin,
                       clock_.now());
    // One scrubber, many watch sets: every process's pre-hook parks its
    // watches (in its own context), the pass runs, every post-hook
    // restores. Zombies included — a leak left watched by an exited
    // process must still be parked or the scrub would fault on it.
    Process *running = current_;
    for (const auto &proc : processes_) {
        if (!proc->preScrubHook_)
            continue;
        switchTo(*proc);
        proc->preScrubHook_();
    }
    switchTo(*running);
    controller_.scrubAll();
    for (const auto &proc : processes_) {
        if (!proc->postScrubHook_)
            continue;
        switchTo(*proc);
        proc->postScrubHook_();
    }
    switchTo(*running);
    nextScrubDue_ = clock_.now() + scrubPeriod_;
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::KernelScrubTickEnd, clock_.now());
    inScrub_ = false;
}

void
Kernel::setSwapWatchPolicy(SwapWatchPolicy policy)
{
    if (current_->watchedLineCount_ != 0)
        panic("Kernel: cannot change the swap/watch policy while lines "
              "are watched");
    current_->swapPolicy_ = policy;
}

void
Kernel::setSwapHooks(std::function<void(VirtAddr)> pre_out,
                     std::function<void(VirtAddr)> post_in)
{
    current_->preSwapOutHook_ = std::move(pre_out);
    current_->postSwapInHook_ = std::move(post_in);
}

bool
Kernel::swapOutPage(VirtAddr vaddr)
{
    Process &proc = *current_;
    AddressSpace &space = proc.space_;
    VirtAddr vpage = alignDown(vaddr, kPageSize);
    PageTableEntry *entry = space.pageTable.find(vpage);
    if (!entry || !entry->present || entry->pinCount > 0)
        return false;

    // Lift any watches on this page before the frame leaves; the hook
    // (SafeMem's library) parks them for the swap-in side. (Under
    // PinPages a watched page is pinned and never gets here.)
    if (entry->watchedLines != 0) {
        if (!proc.preSwapOutHook_)
            panic("Kernel: watched page swapping out with no "
                  "pre-swap hook registered");
        proc.preSwapOutHook_(vpage);
        if (entry->watchedLines != 0)
            panic("Kernel: pre-swap hook left line watched on vpage ",
                  vpage);
        bump(KernelStat::WatchedPagesSwapped);
    }

    clock_.advance(kSwapPageCycles, CostCenter::Kernel);

    // Writeback any cached lines of this frame, then copy it out.
    for (std::size_t l = 0; l < kLinesPerPage; ++l)
        cache_.flushLine(entry->frame + l * kCacheLineSize);

    std::vector<LineWords> &store = space.swapStore[vpage];
    store.resize(kLinesPerPage);
    for (std::size_t l = 0; l < kLinesPerPage; ++l)
        store[l] = controller_.peekLine(entry->frame + l * kCacheLineSize);

    freeFrame(entry->frame);
    space.pageTable.markSwappedOut(vpage);
    space.tlb.invalidate(vpage);
    bump(KernelStat::PagesSwappedOut);
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::KernelSwapOut, clock_.now(),
                       vpage);
    return true;
}

void
Kernel::pageIn(VirtAddr vpage)
{
    clock_.advance(kSwapPageCycles, CostCenter::Kernel);
    Process &proc = *current_;
    AddressSpace &space = proc.space_;
    auto it = space.swapStore.find(vpage);
    if (it == space.swapStore.end())
        panic("Kernel::pageIn: no swap copy for vpage ", vpage);

    PhysAddr frame = allocFrame();
    // Restoring through the controller with ECC enabled regenerates fresh
    // check bytes — which is exactly why an unpinned watched page loses
    // its watch across a swap cycle (paper §2.2.2).
    for (std::size_t l = 0; l < kLinesPerPage; ++l)
        controller_.writeLineDeviceOp(frame + l * kCacheLineSize,
                                      it->second[l]);
    space.swapStore.erase(it);
    space.pageTable.markSwappedIn(vpage, frame);
    bump(KernelStat::PagesSwappedIn);
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::KernelSwapIn, clock_.now(),
                       vpage, frame);

    if (proc.swapPolicy_ == SwapWatchPolicy::UnwatchRewatch &&
        proc.postSwapInHook_)
        proc.postSwapInHook_(vpage);
}

void
Kernel::auditInvariants() const
{
    if (!simCheckActive())
        return;

    // Frames mapped by any process, for exclusivity and free-list checks.
    std::unordered_map<PhysAddr, Pid> owned;

    for (const auto &proc : processes_) {
        const AddressSpace &space = proc->space_;

        // TLB ⊆ page table, per process: every cached translation must
        // refer to a mapped, resident page of *this* space, through the
        // very entry a fresh walk finds. Unmap, mprotect and swap
        // transitions all shoot the entry down, and failed walks never
        // install one.
        space.tlb.forEachEntry([&](VirtAddr vpage,
                                   const PageTableEntry *cached) {
            const PageTableEntry *entry = space.pageTable.find(vpage);
            SIMCHECK_AUDIT(AuditDomain::Kernel, "tlb_entry_mapped",
                           entry != nullptr, "pid ", proc->pid(),
                           " TLB caches unmapped vpage ", vpage);
            SIMCHECK_AUDIT(AuditDomain::Kernel, "tlb_entry_resident",
                           !entry || entry->present, "pid ", proc->pid(),
                           " TLB caches swapped-out vpage ", vpage);
            SIMCHECK_AUDIT(AuditDomain::Kernel, "tlb_pte_current",
                           cached == entry, "pid ", proc->pid(),
                           " TLB slot for vpage ", vpage,
                           " caches a page-table entry other than the "
                           "one the page table holds");
        });

        // A frame backs at most one page of one process — address spaces
        // never share memory. A page with watched lines must be resident
        // (swap-out lifts its watches first) and, under PinPages,
        // pinned.
        std::size_t masked_lines = 0;
        space.pageTable.forEach([&](VirtAddr vpage,
                                    const PageTableEntry &entry) {
            if (entry.present) {
                auto [it, fresh] = owned.emplace(entry.frame, proc->pid());
                SIMCHECK_AUDIT(AuditDomain::Kernel, "frame_exclusive", fresh,
                               "frame ", entry.frame, " mapped by pid ",
                               proc->pid(), " and pid ", it->second,
                               " (vpage ", vpage, ")");
            }
            if (entry.watchedLines == 0)
                return;
            masked_lines += static_cast<std::size_t>(
                std::popcount(entry.watchedLines));
            SIMCHECK_AUDIT(AuditDomain::Kernel, "watched_page_resident",
                           entry.present, "pid ", proc->pid(),
                           " has watched lines on non-resident vpage ",
                           vpage);
            if (proc->swapPolicy_ == SwapWatchPolicy::PinPages) {
                SIMCHECK_AUDIT(AuditDomain::Kernel, "watched_page_pinned",
                               entry.pinCount > 0, "pid ", proc->pid(),
                               " has watched lines on unpinned vpage ",
                               vpage, " under PinPages");
            }
        });

        // The watched-line count must equal the lines the page-table
        // masks record, and reconcile with the per-process syscall
        // history: every watched line entered through WatchMemory and
        // left through DisableWatchMemory (or a swap hook, which goes
        // through the same syscall).
        SIMCHECK_AUDIT(AuditDomain::Kernel, "watch_count_matches_masks",
                       proc->watchedLineCount_ == masked_lines, "pid ",
                       proc->pid(), ": ", proc->watchedLineCount_,
                       " lines watched but the page-table masks hold ",
                       masked_lines);
        SIMCHECK_AUDIT(
            AuditDomain::Kernel, "watch_count_matches_history",
            proc->watchedLineCount_ ==
                proc->stats_.get(KernelStat::LinesWatched) -
                    proc->stats_.get(KernelStat::LinesUnwatched),
            "pid ", proc->pid(), ": ", proc->watchedLineCount_,
            " lines watched but history says ",
            proc->stats_.get(KernelStat::LinesWatched), " - ",
            proc->stats_.get(KernelStat::LinesUnwatched));
    }

    // The machine-wide aggregate must reconcile the same way.
    SIMCHECK_AUDIT(AuditDomain::Kernel, "watch_total_matches_history",
                   totalWatchedLineCount() ==
                       stats_.get(KernelStat::LinesWatched) -
                           stats_.get(KernelStat::LinesUnwatched),
                   totalWatchedLineCount(),
                   " lines watched machine-wide but history says ",
                   stats_.get(KernelStat::LinesWatched), " - ",
                   stats_.get(KernelStat::LinesUnwatched));

    // Frame allocator: a frame on the free list must not back any page
    // of any process.
    for (PhysAddr frame : freeFrames_) {
        SIMCHECK_AUDIT(AuditDomain::Kernel, "free_frame_unmapped",
                       owned.find(frame) == owned.end(),
                       "free frame ", frame, " still maps a page");
    }
}

} // namespace safemem
