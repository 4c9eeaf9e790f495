#include "os/machine.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "check/simcheck.h"
#include "common/costs.h"
#include "common/logging.h"
#include "trace/trace.h"

namespace safemem {

Machine::Machine(MachineConfig config)
    : config_(config)
{
    if (config_.banks != 1)
        panic("Machine: MachineConfig::banks is ", config_.banks,
              "; the machine has one memory bus");
    if (config_.simCheck)
        SimCheck::instance().setEnabled(true);
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
    if (simCheckActive() && ++ticksSinceAudit_ >= config_.auditTickInterval) {
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

void
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
        std::size_t done = is_write
            ? cache_->writeBlock(paddr, buffer, size)
            : cache_->readBlock(paddr, buffer, size);
        if (done == size)
            return;
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

void
Machine::read(VirtAddr addr, void *out, std::size_t size)
{
    if (size == 0)
        return;
    kernel_->noteAccessType(false);
    if (const AccessHook &hook = kernel_->currentAccessHook())
        hook(addr, size, false);
    maybeTick();

    auto *cursor = static_cast<std::uint8_t *>(out);
    while (size > 0) {
        VirtAddr page_end = alignDown(addr, kPageSize) + kPageSize;
        std::size_t span = std::min<std::size_t>(size, page_end - addr);
        accessSpan(addr, cursor, span, false);
        addr += span;
        cursor += span;
        size -= span;
    }
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

    auto *cursor = const_cast<std::uint8_t *>(
        static_cast<const std::uint8_t *>(in));
    while (size > 0) {
        VirtAddr page_end = alignDown(addr, kPageSize) + kPageSize;
        std::size_t span = std::min<std::size_t>(size, page_end - addr);
        accessSpan(addr, cursor, span, true);
        addr += span;
        cursor += span;
        size -= span;
    }
}

} // namespace safemem
