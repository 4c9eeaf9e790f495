/**
 * @file
 * The watch contract both backends keep, run against each at its own
 * granule (cache lines for ECC protection, pages for page protection):
 * the overlap check, exact neighbours, and which region a fault lands
 * in.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/logging.h"
#include "pageprot/page_watch.h"
#include "safemem/watch_manager.h"

namespace safemem {
namespace {

enum class Mechanism
{
    Ecc,
    Page,
};

class WatchContract : public ::testing::TestWithParam<Mechanism>
{
  protected:
    WatchContract() : machine(MachineConfig{8u << 20, CacheConfig{16, 2}, 64})
    {
        if (GetParam() == Mechanism::Ecc) {
            ecc = std::make_unique<EccWatchManager>(machine);
            ecc->installFaultHandler();
            backend = ecc.get();
        } else {
            page = std::make_unique<PageWatchBackend>(machine);
            page->install();
            backend = page.get();
        }
        backend->setFaultCallback([this](VirtAddr base, WatchKind,
                                         std::uint64_t cookie,
                                         VirtAddr fault_addr, bool) {
            ++callbacks;
            lastBase = base;
            lastCookie = cookie;
            lastFault = fault_addr;
        });
        granule = backend->granule();
        region = machine.kernel().mapRegion(alignUp(16 * granule, kPageSize));
    }

    /** @return the address of granule @p n of the mapped region. */
    VirtAddr at(std::size_t n) const { return region + n * granule; }

    /** Watch granules [@p first, @p first + @p count). */
    void
    watch(std::size_t first, std::size_t count, std::uint64_t cookie)
    {
        backend->watch(at(first), count * granule, WatchKind::FreedBuffer,
                       cookie);
    }

    /** @return bit i set for each granule i < @p n the mechanism has
     *  armed: a scrambled line (ECC) or a PROT_NONE page (pages). */
    std::uint64_t
    armedMask(std::size_t n)
    {
        std::uint64_t mask = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const bool armed =
                ecc ? machine.kernel().isWatched(at(i))
                    : !machine.kernel().currentProcess().pageTable().find(
                          at(i))->accessible;
            mask |= std::uint64_t{armed} << i;
        }
        return mask;
    }

    /** Load a word from each of granules [0, @p n).
     *  @return the fault callbacks the loads raised. */
    int
    touch(std::size_t n)
    {
        const int before = callbacks;
        for (std::size_t i = 0; i < n; ++i)
            machine.load<std::uint64_t>(at(i));
        return callbacks - before;
    }

    /** Hand a fault at @p addr straight to the backend's handler.
     *  @return true when the backend took it as an access fault. */
    bool
    deliverFault(VirtAddr addr)
    {
        if (page)
            return page->onSegv(addr);
        UserEccFault fault;
        fault.vaddr = addr;
        fault.lineAddr = *machine.kernel().peekTranslate(addr);
        fault.kind = EccFaultKind::MultiBit;
        return ecc->onEccFault(fault) == FaultDecision::Handled;
    }

    /** @return the faults the backend filed as not its own. */
    std::uint64_t
    foreignFaults() const
    {
        return backend->stats().get(page ? "foreign_segvs"
                                         : "foreign_faults");
    }

    Machine machine;
    std::unique_ptr<EccWatchManager> ecc;
    std::unique_ptr<PageWatchBackend> page;
    WatchBackend *backend = nullptr;
    std::size_t granule = 0;
    VirtAddr region = 0;
    int callbacks = 0;
    VirtAddr lastBase = 0;
    std::uint64_t lastCookie = 0;
    VirtAddr lastFault = 0;
};

TEST_P(WatchContract, OverlappingWatchPanics)
{
    // Watched: granules 2-3 and granule 8.
    watch(2, 2, 1);
    watch(8, 1, 2);
    struct Shape
    {
        const char *name;
        std::size_t first;
        std::size_t count;
    };
    const Shape shapes[] = {
        {"same base, inside", 2, 1},
        {"identical", 2, 2},
        {"starts inside", 3, 2},
        {"ends inside", 1, 2},
        {"encloses", 1, 4},
        {"clears the left neighbour, reaches the right one", 4, 5},
        {"encloses both", 0, 10},
    };
    for (const Shape &shape : shapes) {
        SCOPED_TRACE(shape.name);
        EXPECT_THROW(watch(shape.first, shape.count, 3), PanicError);
    }
    EXPECT_EQ(backend->regionCount(), 2u) << "a refused watch changes nothing";
    EXPECT_EQ(backend->watchedBytes(), 3 * granule);
    EXPECT_EQ(armedMask(16), 0b1'0000'1100u) << "granules 2, 3 and 8 only";
    if (ecc) {
        EXPECT_EQ(machine.kernel().watchedLineCount(), 3u);
    }
    EXPECT_EQ(touch(10), 2) << "one fault per region, none from a refusal";
}

TEST_P(WatchContract, ExactNeighboursDoNotOverlap)
{
    watch(2, 2, 1);
    // One region ending where it starts, one starting where it ends.
    EXPECT_NO_THROW(watch(0, 2, 2));
    EXPECT_NO_THROW(watch(4, 1, 3));
    EXPECT_EQ(backend->regionCount(), 3u);
    EXPECT_EQ(backend->watchedBytes(), 5 * granule);
    EXPECT_EQ(armedMask(16), 0b1'1111u) << "granules 0-4, each neighbour whole";
    if (ecc) {
        EXPECT_EQ(machine.kernel().watchedLineCount(), 5u);
    }
    EXPECT_EQ(touch(5), 3) << "each region faults on its own";
}

TEST_P(WatchContract, FaultOnTheLastGranuleDispatchesToItsRegion)
{
    machine.store<std::uint64_t>(at(2), 0x33ULL);
    watch(0, 3, 9);

    EXPECT_EQ(machine.load<std::uint64_t>(at(2)), 0x33ULL);
    EXPECT_EQ(callbacks, 1);
    EXPECT_EQ(lastBase, region);
    EXPECT_EQ(lastCookie, 9u);
    EXPECT_EQ(lastFault, at(2));
    EXPECT_EQ(foreignFaults(), 0u);
}

TEST_P(WatchContract, FaultJustPastARegionIsForeign)
{
    watch(0, 3, 9);

    EXPECT_FALSE(deliverFault(at(3)));
    EXPECT_EQ(foreignFaults(), 1u);
    EXPECT_EQ(callbacks, 0);
    EXPECT_TRUE(backend->isWatched(region)) << "its neighbour is untouched";
}

INSTANTIATE_TEST_SUITE_P(Backends, WatchContract,
                         ::testing::Values(Mechanism::Ecc, Mechanism::Page),
                         [](const ::testing::TestParamInfo<Mechanism> &info) {
                             return info.param == Mechanism::Ecc ? "Ecc"
                                                                 : "Page";
                         });

} // namespace
} // namespace safemem
