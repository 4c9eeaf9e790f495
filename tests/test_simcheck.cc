/**
 * @file
 * SimCheck auditor tests: reporting semantics, the audit hooks riding on
 * real machine traffic, and — most importantly — seeded violations proving
 * the auditor actually notices deliberate corruption (an auditor that
 * never fires is indistinguishable from one that never looks).
 */

#include <gtest/gtest.h>

#include <string>

#include "alloc/heap_allocator.h"
#include "check/simcheck.h"
#include "common/logging.h"
#include "ecc/codec.h"
#include "mem/memory_controller.h"
#include "os/machine.h"
#include "tests/pass_through_codec.h"

namespace safemem {
namespace {

/**
 * Scoped collect mode: violations are recorded instead of thrown for the
 * duration of a test, and the record is wiped on both ends.
 */
class CollectViolations
{
  public:
    CollectViolations()
    {
        SimCheck::instance().setThrowOnViolation(false);
        SimCheck::instance().clearViolations();
    }

    ~CollectViolations()
    {
        SimCheck::instance().clearViolations();
        SimCheck::instance().setThrowOnViolation(true);
    }

    bool
    sawInvariant(const std::string &invariant) const
    {
        for (const AuditViolation &v : SimCheck::instance().violations()) {
            if (v.invariant == invariant)
                return true;
        }
        return false;
    }

    std::size_t count() const
    {
        return SimCheck::instance().violations().size();
    }
};

TEST(SimCheck, HooksAreSilentWhileDisabled)
{
    SimCheck &auditor = SimCheck::instance();
    ASSERT_TRUE(auditor.enabled()); // test_main switches it on
    std::uint64_t before = auditor.auditsRun();

    auditor.setEnabled(false);
    CollectViolations guard;
    SIMCHECK_AUDIT(AuditDomain::Cache, "always_false", false,
                   "must not be recorded while disabled");
    auditor.setEnabled(true);

    EXPECT_EQ(guard.count(), 0u);
    EXPECT_EQ(auditor.auditsRun(), before);
}

TEST(SimCheck, ViolationThrowsPanicByDefault)
{
    ASSERT_TRUE(SimCheck::instance().throwOnViolation());
    try {
        SIMCHECK_AUDIT(AuditDomain::Kernel, "self_test_throw", false,
                       "seeded violation");
        FAIL() << "audit failure did not throw";
    } catch (const PanicError &err) {
        EXPECT_NE(std::string(err.what()).find("SimCheck violation"),
                  std::string::npos);
        EXPECT_NE(std::string(err.what()).find("self_test_throw"),
                  std::string::npos);
    }
}

TEST(SimCheck, CollectModeRecordsStructuredViolation)
{
    CollectViolations guard;
    SIMCHECK_AUDIT(AuditDomain::Allocator, "self_test_collect", false,
                   "detail ", 42);
    ASSERT_EQ(guard.count(), 1u);
    const AuditViolation v = SimCheck::instance().violations()[0];
    EXPECT_EQ(v.domain, AuditDomain::Allocator);
    EXPECT_EQ(v.invariant, "self_test_collect");
    EXPECT_EQ(v.detail, "detail 42");
}

TEST(SimCheck, AuditHooksRideRealTraffic)
{
    std::uint64_t before = SimCheck::instance().auditsRun();
    Machine machine;
    VirtAddr buf = machine.kernel().mapRegion(kPageSize);
    for (int i = 0; i < 64; ++i)
        machine.store<std::uint64_t>(buf + i * 8, i);
    machine.cache().flushAll(); // writebacks run the coherence audits
    machine.auditNow();
    EXPECT_GT(SimCheck::instance().auditsRun(), before);
}

TEST(SimCheck, CleanMachineStatePassesDeepAudits)
{
    Machine machine;
    VirtAddr buf = machine.kernel().mapRegion(4 * kPageSize);
    for (std::size_t i = 0; i < 4 * kPageSize / 8; ++i)
        machine.store<std::uint64_t>(buf + i * 8, i * 0x9e37);
    machine.kernel().watchMemory(buf, 2 * kCacheLineSize);

    CollectViolations guard;
    machine.auditNow();
    EXPECT_EQ(guard.count(), 0u);

    machine.kernel().disableWatchMemory(buf, 2 * kCacheLineSize);
    machine.auditNow();
    EXPECT_EQ(guard.count(), 0u);
}

TEST(SimCheck, SeededFreeListCorruptionIsReported)
{
    Machine machine;
    HeapAllocator heap(machine);
    VirtAddr a = heap.allocate(64);
    VirtAddr b = heap.allocate(64);
    heap.deallocate(a);
    (void)b;

    CollectViolations guard;
    heap.auditInvariants();
    ASSERT_EQ(guard.count(), 0u) << "healthy heap must audit clean";

    heap.testOnlyClobberFreeList();
    heap.auditInvariants();
    EXPECT_TRUE(guard.sawInvariant("free_chunk_aligned"))
        << "clobbered free-list link was not reported";
}

TEST(SimCheck, SeededCanaryClobberIsReported)
{
    Machine machine;
    HeapAllocator heap(machine);
    VirtAddr block = heap.allocate(128);

    CollectViolations guard;
    heap.testOnlyClobberCanary(block);
    heap.auditInvariants();
    EXPECT_TRUE(guard.sawInvariant("metadata_canary"));
}

TEST(SimCheck, BusLockPairingViolationIsReported)
{
    Machine machine;
    machine.controller().lockBus();

    CollectViolations guard;
    // In collect mode the audit records the violation, after which the
    // controller's own hard panic still fires.
    EXPECT_THROW(machine.controller().lockBus(), PanicError);
    EXPECT_TRUE(guard.sawInvariant("bus_lock_pairing"));

    machine.controller().unlockBus();
}

/** The default codec with its check bits XORed with a mask a test can
 *  change: flipping the mask after a store makes stored check bytes
 *  wrong without any store to the DIMM. */
class MaskedCodec final : public PassThroughCodec
{
  public:
    MaskedCodec() : PassThroughCodec(defaultCodec()) {}

    std::uint64_t
    encode(std::uint64_t data) const override
    {
        return PassThroughCodec::encode(data) ^ mask;
    }
    EccDecodeResult
    decode(std::uint64_t data, std::uint64_t check) const override
    {
        return PassThroughCodec::decode(data, check ^ mask);
    }

    std::uint64_t mask = 0;
};

TEST(SimCheck, SkippedFillCheckIsAudited)
{
    // A fill of a line its controller encoded skips the syndrome check;
    // with SimCheck on it recomputes the syndromes, so a broken tag
    // contract (here, a code that changed after the store) is caught.
    MaskedCodec code;
    PhysicalMemory memory(4096);
    CycleClock clock;
    MemoryController controller(memory, clock, nullptr, code);
    controller.setInterruptHandler([](const EccFaultInfo &) {});
    LineWords line{};
    line[0] = 0x77ULL;
    controller.evictLine(0, line);
    code.mask = 0x1;

    CollectViolations guard;
    LineWords out{};
    EXPECT_TRUE(controller.fillLine(0, out));
    EXPECT_TRUE(guard.sawInvariant("encoded_line_clean"));
}

TEST(SimCheck, TrafficWhileBusLockedIsReported)
{
    Machine machine;
    machine.controller().lockBus();

    CollectViolations guard;
    LineWords line{};
    EXPECT_THROW(machine.controller().fillLine(0, line), PanicError);
    EXPECT_TRUE(guard.sawInvariant("no_traffic_while_locked"));

    machine.controller().unlockBus();
}

} // namespace
} // namespace safemem
