/**
 * @file
 * Differential test of Machine::readWords against the loop it batches:
 * twin machines run the same seeded scenario, one reading each span
 * with per-word load<std::uint64_t>() calls under a no-op access hook,
 * the other with one readWords() call. Spans start at any byte, so
 * words straddle lines and spans cross pages; scrub passes tick inside
 * them; a tiny cache makes the scan's fills evict dirty victims; and a
 * span may run into a swapped-out page, a protected page whose SIGSEGV
 * handler calls mprotect (flushing the TLB under the batch), and a
 * double-bit error whose ECC handler repairs the line (restarting the
 * fill). After every span the twins must agree on the words, the clock
 * and every cost-center bucket, every cache, TLB, controller and kernel
 * counter, and every trace record.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "common/random.h"
#include "os/machine.h"
#include "trace/trace.h"

namespace safemem {
namespace {

constexpr std::size_t kPages = 6;
constexpr std::size_t kRegionBytes = kPages * kPageSize;
constexpr Cycles kScrubPeriod = 60'000;

/** One of the two machines, with the handlers the scenario needs. */
struct Twin
{
    explicit Twin(std::uint32_t tick_interval)
        : machine([&] {
              MachineConfig config{1u << 20, CacheConfig{8, 2},
                                   tick_interval};
              config.trace = &trace;
              return config;
          }())
    {
        Kernel &kernel = machine.kernel();
        base = kernel.mapRegion(kRegionBytes);
        kernel.registerSegvHandler([this](VirtAddr vaddr) {
            machine.kernel().mprotectRange(alignDown(vaddr, kPageSize),
                                           kPageSize, true);
            return true;
        });
        kernel.registerEccFaultHandler([this](const UserEccFault &fault) {
            auto it = injected.find(fault.lineAddr);
            if (it == injected.end())
                return FaultDecision::HardwareError;
            machine.controller().writeLineDeviceOp(fault.lineAddr,
                                                   it->second);
            injected.erase(it);
            return FaultDecision::Handled;
        });
        kernel.enableScrubbing(kScrubPeriod);
        machine.setAccessHook(
            [this](VirtAddr, std::size_t, bool) { ++hookCalls; });
    }

    Trace trace{1u << 16};
    Machine machine;
    VirtAddr base = 0;
    /** Lines holding an injected error, with their original words. */
    std::map<PhysAddr, LineWords> injected;
    std::uint64_t hookCalls = 0;
};

/** Flip two bits of one stored word of the line holding @p vaddr (a
 *  resident page), after flushing the line so the next fill sees it. */
void
injectDoubleBitError(Twin &twin, VirtAddr vaddr, int bit_a, int bit_b)
{
    PhysAddr word = *twin.machine.kernel().peekTranslate(alignDown(vaddr, 8));
    PhysAddr line = alignDown(word, kCacheLineSize);
    twin.machine.cache().flushLine(line);
    twin.injected.emplace(line, twin.machine.controller().peekLine(line));
    twin.machine.physicalMemory().flipDataBit(word, bit_a);
    twin.machine.physicalMemory().flipDataBit(word, bit_b);
}

void
expectSameState(Twin &a, Twin &b)
{
    Machine &x = a.machine;
    Machine &y = b.machine;
    EXPECT_EQ(x.clock().now(), y.clock().now());
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(CostCenter::NumCostCenters); ++c) {
        auto center = static_cast<CostCenter>(c);
        EXPECT_EQ(x.clock().charged(center), y.clock().charged(center))
            << "cost center " << c;
    }
    EXPECT_EQ(x.cache().stats().all(), y.cache().stats().all());
    EXPECT_EQ(x.kernel().currentProcess().tlb().stats().all(),
              y.kernel().currentProcess().tlb().stats().all());
    EXPECT_EQ(x.controller().stats().all(), y.controller().stats().all());
    EXPECT_EQ(x.kernel().stats().all(), y.kernel().stats().all());

    EXPECT_EQ(a.trace.emitted(), b.trace.emitted());
    std::vector<TraceRecord> ra = a.trace.records();
    std::vector<TraceRecord> rb = b.trace.records();
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
        ASSERT_TRUE(ra[i] == rb[i])
            << "trace record " << i << ": event "
            << static_cast<int>(ra[i].event) << " at cycle " << ra[i].cycle
            << " vs event " << static_cast<int>(rb[i].event)
            << " at cycle " << rb[i].cycle;
    }
}

/** What the scenarios exercised, summed over all of them. */
struct Coverage
{
    std::uint64_t scrubPasses = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t pageIns = 0;
    std::uint64_t segvs = 0;
    std::uint64_t faultedFills = 0;
    std::uint64_t pageCrossings = 0;
};

void
runScenario(std::uint64_t seed, std::uint32_t tick_interval,
            Coverage &coverage)
{
    SCOPED_TRACE(::testing::Message() << "seed " << seed << ", tickInterval "
                                      << tick_interval);
    Rng rng(seed);
    Twin a(tick_interval);
    Twin b(tick_interval);
    ASSERT_EQ(a.base, b.base);
    const VirtAddr base = a.base;
    auto both = [&](auto &&fn) {
        fn(a);
        fn(b);
    };

    for (int round = 0; round < 10; ++round) {
        // Dirty random words so the span's fills evict dirty victims.
        for (int k = 0; k < 24; ++k) {
            VirtAddr at = base + rng.range(0, kRegionBytes / 8 - 1) * 8;
            std::uint64_t value = rng.next();
            both([&](Twin &t) { t.machine.store<std::uint64_t>(at, value); });
        }

        const std::size_t n = rng.range(1, 700);
        const VirtAddr start = base + rng.range(0, kRegionBytes - n * 8);
        const VirtAddr end = start + n * 8;
        coverage.pageCrossings += alignDown(end - 1, kPageSize) !=
                                  alignDown(start, kPageSize);
        auto wordInSpan = [&] { return start + rng.range(0, n - 1) * 8; };
        if (rng.chance(0.4)) {
            VirtAddr at = wordInSpan();
            both([&](Twin &t) { t.machine.kernel().swapOutPage(at); });
        }
        if (rng.chance(0.4)) {
            VirtAddr page = alignDown(wordInSpan(), kPageSize);
            both([&](Twin &t) {
                t.machine.kernel().mprotectRange(page, kPageSize, false);
            });
        }
        if (rng.chance(0.4)) {
            VirtAddr at = wordInSpan();
            int bit_a = static_cast<int>(rng.range(0, 63));
            int bit_b = static_cast<int>((bit_a + rng.range(1, 63)) % 64);
            if (a.machine.kernel().pageResident(at))
                both([&](Twin &t) {
                    injectDoubleBitError(t, at, bit_a, bit_b);
                });
        }

        std::vector<std::uint64_t> per_word(n);
        std::vector<std::uint64_t> batched(n);
        const std::uint64_t a_hooks = a.hookCalls;
        const std::uint64_t b_hooks = b.hookCalls;
        for (std::size_t i = 0; i < n; ++i)
            per_word[i] = a.machine.load<std::uint64_t>(start + i * 8);
        b.machine.readWords(start, batched.data(), n);

        EXPECT_EQ(per_word, batched) << "round " << round;
        EXPECT_EQ(a.hookCalls - a_hooks, n);
        EXPECT_EQ(b.hookCalls, b_hooks) << "readWords ran the access hook";
        EXPECT_TRUE(a.injected.empty() && b.injected.empty())
            << "an injected error was never repaired";
        expectSameState(a, b);
        if (::testing::Test::HasFailure())
            return;
    }

    const StatSet &kernel = b.machine.kernel().stats();
    const StatSet &cache = b.machine.cache().stats();
    coverage.scrubPasses += kernel.get(KernelStat::ScrubPasses);
    coverage.pageIns += kernel.get(KernelStat::PagesSwappedIn);
    coverage.segvs += kernel.get(KernelStat::SegvDelivered);
    coverage.writebacks += cache.get(CacheStat::Writebacks);
    coverage.faultedFills += cache.get(CacheStat::FaultedFills);
}

TEST(ReadWords, MatchesThePerWordLoadLoop)
{
    Coverage coverage;
    for (std::uint32_t tick_interval : {1u, 2u, 7u, 1024u}) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            runScenario(seed * 7919 + tick_interval, tick_interval,
                        coverage);
            if (HasFailure())
                return;
        }
    }
    // The scenarios reached every path they are meant to cover.
    EXPECT_GT(coverage.scrubPasses, 0u);
    EXPECT_GT(coverage.writebacks, 0u);
    EXPECT_GT(coverage.pageIns, 0u);
    EXPECT_GT(coverage.segvs, 0u);
    EXPECT_GT(coverage.faultedFills, 0u);
    EXPECT_GT(coverage.pageCrossings, 0u);
}

} // namespace
} // namespace safemem
