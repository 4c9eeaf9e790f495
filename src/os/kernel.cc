#include "os/kernel.h"

#include <algorithm>
#include <array>
#include <bitset>
#include <cstring>

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
    // Build the per-bank frame free lists over all of physical memory.
    std::size_t frames = controller_.memory().size() / kPageSize;
    freeFramesByBank_.resize(controller_.numBanks());
    for (auto &list : freeFramesByBank_)
        list.reserve(frames / controller_.numBanks() + 1);
    // Hand out low frames first so tests see deterministic addresses.
    for (std::size_t i = frames; i-- > 0;) {
        PhysAddr frame = static_cast<PhysAddr>(i) * kPageSize;
        freeFramesByBank_[controller_.bankOf(frame)].push_back(frame);
    }
    nextScrubByBank_.resize(controller_.numBanks(), 0);

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
    // Home-bank affinity with ascending work-stealing: a process's
    // frames come from bank pid % N while it lasts, so multi-tenant
    // runs naturally settle into disjoint banks and the consolidated
    // runner's per-bank hand-off has disjointness to exploit. With one
    // bank this is exactly the old shared free list.
    unsigned banks = controller_.numBanks();
    unsigned home = current_->pid() % banks;
    for (unsigned i = 0; i < banks; ++i) {
        std::vector<PhysAddr> &list = freeFramesByBank_[(home + i) % banks];
        if (list.empty())
            continue;
        PhysAddr frame = list.back();
        list.pop_back();
        ++current_->bankFrames_[controller_.bankOf(frame)];
        return frame;
    }
    fatal("Kernel: out of physical memory");
}

void
Kernel::freeFrame(PhysAddr frame)
{
    unsigned bank = controller_.bankOf(frame);
    if (current_->bankFrames_[bank] == 0)
        panic("Kernel::freeFrame: pid ", current_->pid(),
              " frees frame ", frame, " with no frames in bank ", bank);
    --current_->bankFrames_[bank];
    freeFramesByBank_[bank].push_back(frame);
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
        if (entry->present) {
            // Drop stale cached copies of the departing frame.
            for (std::size_t l = 0; l < kPageSize / kCacheLineSize; ++l)
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

std::optional<PhysAddr>
Kernel::peekTranslate(VirtAddr vaddr) const
{
    VirtAddr vpage = alignDown(vaddr, kPageSize);
    const PageTableEntry *entry = current_->space_.pageTable.find(vpage);
    if (!entry || !entry->present)
        return std::nullopt;
    return entry->frame + (vaddr - vpage);
}

std::uint64_t
Kernel::bankFootprint(Pid pid) const
{
    const Process &proc = process(pid);
    std::uint64_t mask = 0;
    for (unsigned b = 0; b < controller_.numBanks(); ++b)
        if (proc.bankFrames_[b] != 0)
            mask |= std::uint64_t{1} << b;
    return mask;
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

void
Kernel::pinPage(VirtAddr vpage)
{
    clock_.advance(kPagePinCycles);
    PageTableEntry *entry = current_->space_.pageTable.find(vpage);
    if (!entry)
        panic("Kernel::pinPage: unmapped vpage ", vpage);
    if (!entry->present)
        pageIn(vpage);
    ++entry->pinCount;
}

void
Kernel::unpinPage(VirtAddr vpage)
{
    clock_.advance(kPagePinCycles);
    PageTableEntry *entry = current_->space_.pageTable.find(vpage);
    if (!entry || entry->pinCount == 0)
        panic("Kernel::unpinPage: vpage ", vpage, " not pinned");
    --entry->pinCount;
}

void
Kernel::watchMemory(VirtAddr addr, std::size_t size)
{
    clock_.advance(kSyscallEntryCycles);
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::KernelWatchMemory, clock_.now(),
                       addr, size);
    Process &proc = *current_;
    AddressSpace &space = proc.space_;
    if (!isAligned(addr, kCacheLineSize) || !isAligned(size, kCacheLineSize))
        panic("WatchMemory: region must be cache-line aligned (addr=",
              addr, " size=", size, ")");

    // Resolve and pin every page the region touches (one walk + pin per
    // page, not per line).
    for (VirtAddr vpage = alignDown(addr, kPageSize);
         vpage < addr + size; vpage += kPageSize) {
        clock_.advance(kPageTableWalkCycles);
        PageTableEntry *entry = space.pageTable.find(vpage);
        if (!entry)
            panic("WatchMemory: unmapped address ", vpage);
        if (!entry->present)
            pageIn(vpage);
        if (proc.swapPolicy_ == SwapWatchPolicy::PinPages)
            pinPage(vpage);
    }

    // Evict cached copies so memory holds current data and the next
    // access must go to DRAM (paper: cache effects).
    std::vector<PhysAddr> plines;
    plines.reserve(size / kCacheLineSize);
    for (std::size_t off = 0; off < size; off += kCacheLineSize) {
        VirtAddr vline = addr + off;
        VirtAddr vpage = alignDown(vline, kPageSize);
        PhysAddr pline =
            space.pageTable.find(vpage)->frame + (vline - vpage);
        if (proc.watched_.count(pline))
            panic("WatchMemory: line ", vline, " already watched");
        cache_.flushLine(pline); // charges kCacheFlushLineCycles
        plines.push_back(pline);
    }

    // Figure 2, batched: lock the banks the region's frames span (each
    // spanned bank's bus independently; untouched banks keep serving
    // cache traffic), disable ECC, flip the 3 signature bits of every
    // ECC group (check bytes stay stale), restore ECC, unlock.
    std::uint64_t bank_mask = 0;
    for (PhysAddr pline : plines)
        bank_mask |= std::uint64_t{1} << controller_.bankOf(pline);
    Cycles lock_count = std::bitset<64>(bank_mask).count();
    clock_.advance(2 * lock_count * kBusLockCycles +
                   2 * kEccModeSwitchCycles);
    {
        BankSetLockGuard bus(controller_, bank_mask);
        EccMode saved = controller_.mode();
        controller_.setMode(EccMode::Disabled);
        for (PhysAddr pline : plines) {
            clock_.advance(kScrambleLineCycles);
            for (std::size_t i = 0; i < kEccGroupsPerLine; ++i) {
                PhysAddr word_addr = pline + i * kEccGroupSize;
                std::uint64_t original = controller_.peekWord(word_addr);
                controller_.writeWordDeviceOp(word_addr,
                                              scramble_.apply(original));
            }
        }
        controller_.setMode(saved);
    }

    if (simCheckActive()) {
        // The scramble's whole purpose is to leave every group of the line
        // uncorrectable under the stale check bytes; a clean or merely
        // "corrected" group means the watch would never fire (or worse,
        // silently corrupt data on the next fill).
        const EccCodec &code = controller_.code();
        for (PhysAddr pline : plines) {
            for (std::size_t i = 0; i < kEccGroupsPerLine; ++i) {
                PhysAddr word_addr = pline + i * kEccGroupSize;
                SIMCHECK_AUDIT(
                    AuditDomain::Kernel, "scramble_uncorrectable",
                    code.decode(controller_.memory().readWord(word_addr),
                                controller_.memory().readCheck(word_addr))
                            .status == EccDecodeStatus::Uncorrectable,
                    "scrambled word at ", word_addr,
                    " does not decode as a multi-bit fault");
            }
        }
        // Under a block geometry the scrambled line must also have gone
        // EDC-stale, or the fill fast path would wave it through and the
        // decode above would never run (boot checked the fold delta is
        // nonzero; this audits the datapath actually left it stale).
        if (!controller_.geometry().isWord()) {
            for (PhysAddr pline : plines) {
                SIMCHECK_AUDIT(AuditDomain::Kernel, "scramble_edc_stale",
                               !controller_.edcConsistent(pline),
                               "scrambled line at ", pline,
                               " still passes the EDC fast check");
            }
        }
    }

    clock_.advance(kWatchInsertCycles);
    for (std::size_t off = 0; off < size; off += kCacheLineSize) {
        proc.watched_[plines[off / kCacheLineSize]] =
            Process::WatchEntry{addr + off};
        bump(KernelStat::LinesWatched);
    }
    stats_.maxOf(KernelStat::MaxWatchedLines, totalWatchedLineCount());
    proc.stats_.maxOf(KernelStat::MaxWatchedLines, proc.watched_.size());
}

void
Kernel::disableWatchMemory(VirtAddr addr, std::size_t size)
{
    clock_.advance(kSyscallEntryCycles);
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::KernelDisableWatchMemory,
                       clock_.now(), addr, size);
    Process &proc = *current_;
    AddressSpace &space = proc.space_;
    if (!isAligned(addr, kCacheLineSize) || !isAligned(size, kCacheLineSize))
        panic("DisableWatchMemory: region must be cache-line aligned");

    for (VirtAddr vpage = alignDown(addr, kPageSize);
         vpage < addr + size; vpage += kPageSize) {
        clock_.advance(kPageTableWalkCycles);
        PageTableEntry *entry = space.pageTable.find(vpage);
        if (!entry)
            panic("DisableWatchMemory: unmapped address ", vpage);
        if (!entry->present)
            pageIn(vpage);
    }

    // Resolve the frames up front (uncharged re-walks; the charged
    // walks happened in the page loop above) so the spanned banks are
    // known before their buses are taken.
    std::vector<PhysAddr> plines;
    plines.reserve(size / kCacheLineSize);
    std::uint64_t bank_mask = 0;
    for (std::size_t off = 0; off < size; off += kCacheLineSize) {
        VirtAddr vline = addr + off;
        VirtAddr vpage = alignDown(vline, kPageSize);
        PhysAddr pline =
            space.pageTable.find(vpage)->frame + (vline - vpage);
        plines.push_back(pline);
        bank_mask |= std::uint64_t{1} << controller_.bankOf(pline);
    }

    // The scramble mask is its own inverse, and rewriting with ECC
    // enabled regenerates matching check bytes, clearing the watch.
    // The not-watched panic below unwinds *while the banks are locked*,
    // so the locks must be RAII-held or they stay wedged for the next
    // caller (regression: test_lock_discipline.cc).
    Cycles lock_count = std::bitset<64>(bank_mask).count();
    clock_.advance(2 * lock_count * kBusLockCycles);
    {
        BankSetLockGuard bus(controller_, bank_mask);
        for (std::size_t off = 0; off < size; off += kCacheLineSize) {
            VirtAddr vline = addr + off;
            PhysAddr pline = plines[off / kCacheLineSize];
            auto it = proc.watched_.find(pline);
            if (it == proc.watched_.end())
                panic("DisableWatchMemory: line ", vline, " not watched");

            clock_.advance(kUnscrambleLineCycles);
            for (std::size_t i = 0; i < kEccGroupsPerLine; ++i) {
                PhysAddr word_addr = pline + i * kEccGroupSize;
                std::uint64_t scrambled = controller_.peekWord(word_addr);
                controller_.writeWordDeviceOp(word_addr,
                                              scramble_.apply(scrambled));
            }
            proc.watched_.erase(it);
            bump(KernelStat::LinesUnwatched);
        }
    }

    clock_.advance(kWatchRemoveCycles);
    if (proc.swapPolicy_ == SwapWatchPolicy::PinPages) {
        for (VirtAddr vpage = alignDown(addr, kPageSize);
             vpage < addr + size; vpage += kPageSize)
            unpinPage(vpage);
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
    const AddressSpace &space = current_->space_;
    VirtAddr vpage = alignDown(vaddr, kPageSize);
    const PageTableEntry *entry = space.pageTable.find(vpage);
    if (!entry || !entry->present)
        return false;
    PhysAddr pline =
        entry->frame + (alignDown(vaddr, kCacheLineSize) - vpage);
    return current_->watched_.count(pline) != 0;
}

std::size_t
Kernel::watchedLineCount() const
{
    return current_->watched_.size();
}

std::size_t
Kernel::totalWatchedLineCount() const
{
    std::size_t total = 0;
    for (const auto &proc : processes_)
        total += proc->watched_.size();
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
    fault.bank = info.bank;

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
    nextScrubByBank_.assign(controller_.numBanks(), clock_.now() + period);
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
Kernel::setScrubHooks(std::function<void(unsigned)> pre,
                      std::function<void(unsigned)> post)
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
    for (unsigned b = 0; b < controller_.numBanks(); ++b) {
        if (clock_.now() < nextScrubByBank_[b])
            continue;
        inScrub_ = true;
        stats_.add(KernelStat::ScrubPasses);
        SAFEMEM_TRACE_EMIT(trace_, TraceEvent::KernelScrubTickBegin,
                           clock_.now(), b);
        // One scrubber per bank, many watch sets: every process's
        // pre-hook parks the watches that bank holds (in its own
        // context), the bank's pass runs, every post-hook restores.
        // Zombies included — a leak left watched by an exited process
        // must still be parked or the scrub would fault on it.
        Process *running = current_;
        for (const auto &proc : processes_) {
            if (!proc->preScrubHook_)
                continue;
            switchTo(*proc);
            proc->preScrubHook_(b);
        }
        switchTo(*running);
        controller_.scrubBank(b);
        for (const auto &proc : processes_) {
            if (!proc->postScrubHook_)
                continue;
            switchTo(*proc);
            proc->postScrubHook_(b);
        }
        switchTo(*running);
        nextScrubByBank_[b] = clock_.now() + scrubPeriod_;
        SAFEMEM_TRACE_EMIT(trace_, TraceEvent::KernelScrubTickEnd,
                           clock_.now(), b);
        inScrub_ = false;
    }
    nextScrubDue_ = *std::min_element(nextScrubByBank_.begin(),
                                      nextScrubByBank_.end());
}

void
Kernel::setSwapWatchPolicy(SwapWatchPolicy policy)
{
    if (!current_->watched_.empty())
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

    if (proc.swapPolicy_ == SwapWatchPolicy::UnwatchRewatch) {
        // Lift any watches on this page before the frame leaves; the
        // hook (SafeMem's library) parks them for the swap-in side.
        bool page_watched = false;
        for (std::size_t l = 0; l < kPageSize / kCacheLineSize; ++l) {
            if (proc.watched_.count(entry->frame + l * kCacheLineSize)) {
                page_watched = true;
                break;
            }
        }
        if (page_watched) {
            if (!proc.preSwapOutHook_)
                panic("Kernel: watched page swapping out with no "
                      "pre-swap hook registered");
            proc.preSwapOutHook_(vpage);
            for (std::size_t l = 0; l < kPageSize / kCacheLineSize; ++l) {
                if (proc.watched_.count(entry->frame + l * kCacheLineSize))
                    panic("Kernel: pre-swap hook left line watched on "
                          "vpage ", vpage);
            }
            bump(KernelStat::WatchedPagesSwapped);
        }
    }

    clock_.advance(kSwapPageCycles, CostCenter::Kernel);

    // Writeback any cached lines of this frame, then copy it out.
    for (std::size_t l = 0; l < kPageSize / kCacheLineSize; ++l)
        cache_.flushLine(entry->frame + l * kCacheLineSize);

    std::vector<std::uint8_t> &store = space.swapStore[vpage];
    store.resize(kPageSize);
    for (std::size_t off = 0; off < kPageSize; off += kEccGroupSize) {
        std::uint64_t word = controller_.peekWord(entry->frame + off);
        std::memcpy(store.data() + off, &word, sizeof(word));
    }

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
    for (std::size_t off = 0; off < kPageSize; off += kEccGroupSize) {
        std::uint64_t word;
        std::memcpy(&word, it->second.data() + off, sizeof(word));
        controller_.writeWordDeviceOp(frame + off, word);
    }
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
        // never share memory. Tally the per-bank residency as we go to
        // reconcile the incremental bankFrames_ counters below.
        std::array<std::uint32_t, kMaxMemoryBanks> per_bank{};
        space.pageTable.forEach([&](VirtAddr vpage,
                                    const PageTableEntry &entry) {
            if (!entry.present)
                return;
            ++per_bank[controller_.bankOf(entry.frame)];
            auto [it, fresh] = owned.emplace(entry.frame, proc->pid());
            SIMCHECK_AUDIT(AuditDomain::Kernel, "frame_exclusive", fresh,
                           "frame ", entry.frame, " mapped by pid ",
                           proc->pid(), " and pid ", it->second,
                           " (vpage ", vpage, ")");
        });

        // The frame allocator's incremental per-bank counts (the O(1)
        // source of the consolidated runner's disjointness test) must
        // agree with a fresh page-table recount.
        for (unsigned b = 0; b < controller_.numBanks(); ++b) {
            SIMCHECK_AUDIT(AuditDomain::Kernel, "bank_frame_accounting",
                           per_bank[b] == proc->bankFrames_[b], "pid ",
                           proc->pid(), " holds ", per_bank[b],
                           " resident frames in bank ", b,
                           " but the incremental counter reads ",
                           proc->bankFrames_[b]);
        }

        // Watch bookkeeping must reconcile with the per-process syscall
        // history: every watched line entered through WatchMemory and
        // left through DisableWatchMemory (or a swap hook, which goes
        // through the same syscall).
        SIMCHECK_AUDIT(
            AuditDomain::Kernel, "watch_count_matches_history",
            proc->watched_.size() ==
                proc->stats_.get(KernelStat::LinesWatched) -
                    proc->stats_.get(KernelStat::LinesUnwatched),
            "pid ", proc->pid(), ": ", proc->watched_.size(),
            " lines watched but history says ",
            proc->stats_.get(KernelStat::LinesWatched), " - ",
            proc->stats_.get(KernelStat::LinesUnwatched));

        for (const auto &[pline, entry] : proc->watched_) {
            PhysAddr frame = alignDown(pline, kPageSize);
            auto vpage = space.pageTable.reverse(frame);
            SIMCHECK_AUDIT(AuditDomain::Kernel, "watched_line_mapped",
                           vpage.has_value(), "watched phys line ", pline,
                           " backs no mapped page of pid ", proc->pid());
            if (!vpage)
                continue;
            const PageTableEntry *pte = space.pageTable.find(*vpage);
            SIMCHECK_AUDIT(AuditDomain::Kernel, "watched_page_resident",
                           pte && pte->present, "watched phys line ", pline,
                           " on a non-resident page");
            if (proc->swapPolicy_ == SwapWatchPolicy::PinPages) {
                SIMCHECK_AUDIT(AuditDomain::Kernel, "watched_page_pinned",
                               pte && pte->pinCount > 0,
                               "watched phys line ", pline,
                               " on an unpinned page under PinPages");
            }
            SIMCHECK_AUDIT(AuditDomain::Kernel, "watch_vline_translates",
                           *vpage + (pline - frame) == entry.vline,
                           "watch entry for phys line ", pline,
                           " recorded vline ", entry.vline,
                           " but the frame maps to vpage ", *vpage);
        }
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

    // Frame allocator: a frame on a free list must not back any page of
    // any process, and must be filed under the bank that owns it.
    for (unsigned b = 0; b < controller_.numBanks(); ++b) {
        for (PhysAddr frame : freeFramesByBank_[b]) {
            SIMCHECK_AUDIT(AuditDomain::Kernel, "free_frame_unmapped",
                           owned.find(frame) == owned.end(),
                           "free frame ", frame, " still maps a page");
            SIMCHECK_AUDIT(AuditDomain::Kernel, "free_frame_bank_home",
                           controller_.bankOf(frame) == b, "free frame ",
                           frame, " of bank ", controller_.bankOf(frame),
                           " filed under bank ", b);
        }
    }

    // The controller's machine-wide stats must stay the exact roll-up
    // of its per-bank slots.
    controller_.auditBankRollup();
}

} // namespace safemem
