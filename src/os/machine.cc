#include "os/machine.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "check/simcheck.h"
#include "common/costs.h"
#include "common/logging.h"
#include "trace/trace.h"

namespace safemem {

namespace {

/** Kernel ticks between the deep SimCheck audits of the access path. */
constexpr std::uint32_t kAuditTickInterval = 64;

} // namespace

Machine::Machine(MachineConfig config)
    : config_(config)
{
    if (config_.banks != 1)
        panic("Machine: MachineConfig::banks is ", config_.banks,
              "; the machine has one memory bus");
    memory_ = std::make_unique<PhysicalMemory>(config_.memoryBytes, 8,
                                               config_.geometry);
    controller_ = std::make_unique<MemoryController>(
        *memory_, clock_, config_.trace,
        config_.codec ? *config_.codec : defaultCodec(), config_.geometry);
    cache_ = std::make_unique<Cache>(*controller_, clock_, config_.cache,
                                     config_.trace);
    kernel_ = std::make_unique<Kernel>(*controller_, *cache_, clock_,
                                       config_.trace);
}

void
Machine::auditNow() const
{
    cache_->auditResidency();
    kernel_->auditInvariants();
}

void
Machine::maybeTick()
{
    if (++accessesSinceTick_ < config_.tickInterval)
        return;
    accessesSinceTick_ = 0;
    kernel_->tick();
    if (simCheckActive() && ++ticksSinceAudit_ >= kAuditTickInterval) {
        ticksSinceAudit_ = 0;
        auditNow();
    }
    schedule();
}

void
Machine::schedule()
{
    // Access-count-driven scheduling points keep consolidated runs
    // deterministic: the switch happens after the same access of the
    // same workload no matter how the host schedules the driving
    // threads. schedulable() keeps a switch from landing mid scrub pass
    // or mid interrupt handler, where the kernel runs on a borrowed
    // process context.
    if (!yieldHook_ || !kernel_->schedulable())
        return;
    Pid from = kernel_->currentPid();
    std::optional<Pid> next = scheduler_.pickNext(from);
    if (!next || *next == from)
        return;
    contextSwitchTo(*next);
    yieldHook_(from, *next);
}

void
Machine::contextSwitchTo(Pid to)
{
    Pid from = kernel_->currentPid();
    if (to == from)
        return;
    clock_.advance(kContextSwitchCycles, CostCenter::Kernel);
    kernel_->setCurrentProcess(to);
    scheduler_.noteSwitch();
    SAFEMEM_TRACE_EMIT(config_.trace, TraceEvent::SchedContextSwitch,
                       clock_.now(), from, to);
}

PhysAddr
Machine::accessSpan(VirtAddr addr, void *buffer, std::size_t size,
                    bool is_write)
{
    // The span never crosses a page, so one translation covers all of it
    // (a physical page is contiguous). A faulting fill runs the user ECC
    // handler and the faulted line restarts with a fresh translation, as
    // a real CPU restarts the faulting instruction; the attempt bound —
    // reset whenever the span makes progress — catches handlers that
    // fail to clear the fault.
    int attempts = 0;
    while (true) {
        PhysAddr paddr = kernel_->translate(addr);
        std::size_t done = cache_->accessBlock(paddr, buffer, size, is_write);
        if (done == size)
            return paddr + size;
        if (done > 0)
            attempts = 0;
        if (++attempts >= 8)
            panic("Machine: access to ", addr + done,
                  " keeps faulting; handler did not clear the watch");
        addr += done;
        buffer = static_cast<std::uint8_t *>(buffer) + done;
        size -= done;
    }
}

PhysAddr
Machine::access(VirtAddr addr, void *buffer, std::size_t size, bool is_write)
{
    auto *cursor = static_cast<std::uint8_t *>(buffer);
    PhysAddr end = 0;
    while (size > 0) {
        VirtAddr page_end = alignDown(addr, kPageSize) + kPageSize;
        std::size_t span = std::min<std::size_t>(size, page_end - addr);
        end = accessSpan(addr, cursor, span, is_write);
        addr += span;
        cursor += span;
        size -= span;
    }
    return end;
}

void
Machine::read(VirtAddr addr, void *out, std::size_t size)
{
    if (size == 0)
        return;
    kernel_->noteAccessType(false);
    if (const AccessHook &hook = kernel_->currentAccessHook())
        hook(addr, size, false);
    maybeTick();
    access(addr, out, size, false);
}

void
Machine::write(VirtAddr addr, const void *in, std::size_t size)
{
    if (size == 0)
        return;
    kernel_->noteAccessType(true);
    if (const AccessHook &hook = kernel_->currentAccessHook())
        hook(addr, size, true);
    maybeTick();
    access(addr, const_cast<void *>(in), size, true);
}

void
Machine::readWords(VirtAddr addr, std::uint64_t *out, std::size_t n)
{
    constexpr std::size_t kWord = sizeof(std::uint64_t);
    std::size_t i = 0;
    while (i < n) {
        // Word i takes read()'s path, minus the access hook.
        kernel_->noteAccessType(false);
        maybeTick();
        PhysAddr end = access(addr + i * kWord, &out[i], kWord, false);
        ++i;
        // The words left in its line that arrive before the next tick
        // would each hit the TLB's MRU slot and the line just touched.
        std::size_t quiet = config_.tickInterval > accessesSinceTick_ + 1
            ? config_.tickInterval - accessesSinceTick_ - 1
            : 0;
        std::size_t run = std::min<std::size_t>(
            {n - i, (alignUp(end, kCacheLineSize) - end) / kWord, quiet});
        if (run == 0 || !kernel_->translateHits(addr + i * kWord, end, run))
            continue;
        kernel_->noteAccessType(false);
        cache_->readWordHits(end, &out[i], run);
        accessesSinceTick_ += static_cast<std::uint32_t>(run);
        i += run;
    }
}

} // namespace safemem
