/**
 * @file
 * Tests for the set-associative write-back data cache.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <list>
#include <map>

#include "cache/cache.h"
#include "common/costs.h"
#include "common/logging.h"
#include "common/random.h"
#include "mem/memory_controller.h"
#include "mem/physical_memory.h"

namespace safemem {
namespace {

class CacheTest : public ::testing::Test
{
  protected:
    CacheTest()
        : memory(1 << 20), controller(memory, clock),
          cache(controller, clock, CacheConfig{4, 2})
    {
        controller.setInterruptHandler(
            [this](const EccFaultInfo &) { ++interrupts; });
    }

    CycleClock clock;
    PhysicalMemory memory;
    MemoryController controller;
    Cache cache; ///< tiny: 4 sets x 2 ways so eviction is easy to force
    int interrupts = 0;
};

TEST_F(CacheTest, ReadMissThenHit)
{
    std::uint8_t buffer[8] = {};
    EXPECT_TRUE(cache.read(0, buffer, 8));
    EXPECT_EQ(cache.stats().get("misses"), 1u);
    EXPECT_TRUE(cache.read(0, buffer, 8));
    EXPECT_EQ(cache.stats().get("hits"), 1u);
}

TEST_F(CacheTest, HitCostVsMissCost)
{
    std::uint8_t buffer[8] = {};
    Cycles t0 = clock.now();
    cache.read(0, buffer, 8);
    Cycles miss_cost = clock.now() - t0;
    t0 = clock.now();
    cache.read(0, buffer, 8);
    Cycles hit_cost = clock.now() - t0;
    EXPECT_EQ(hit_cost, kCacheHitCycles);
    EXPECT_EQ(miss_cost, kCacheMissMgmtCycles + kDramLineCycles);
}

TEST_F(CacheTest, WriteReadRoundTrip)
{
    std::uint32_t value = 0xfeedface;
    EXPECT_TRUE(cache.write(100, &value, sizeof(value)));
    std::uint32_t out = 0;
    EXPECT_TRUE(cache.read(100, &out, sizeof(out)));
    EXPECT_EQ(out, value);
    // Still only in the cache: memory holds the old word.
    EXPECT_EQ(memory.readWord(96), 0u);
}

TEST_F(CacheTest, DirtyEvictionWritesBack)
{
    std::uint64_t value = 0x1122334455667788ULL;
    cache.write(0, &value, 8);

    // Fill the same set with enough conflicting lines to evict line 0.
    // Set index = (addr/64) % 4, so addresses 0, 256, 512 share set 0.
    std::uint8_t buffer[8];
    cache.read(256, buffer, 8);
    cache.read(512, buffer, 8);

    EXPECT_FALSE(cache.contains(0));
    EXPECT_EQ(memory.readWord(0), value) << "writeback happened";
    EXPECT_GE(cache.stats().get("writebacks"), 1u);
}

TEST_F(CacheTest, LruVictimSelection)
{
    std::uint8_t buffer[8];
    cache.read(0, buffer, 8);    // way A
    cache.read(256, buffer, 8);  // way B
    cache.read(0, buffer, 8);    // touch A: B is now LRU
    cache.read(512, buffer, 8);  // evicts B
    EXPECT_TRUE(cache.contains(0));
    EXPECT_FALSE(cache.contains(256));
}

TEST_F(CacheTest, FlushLineWritesBackAndInvalidates)
{
    std::uint64_t value = 0xabcdULL;
    cache.write(64, &value, 8);
    cache.flushLine(64);
    EXPECT_FALSE(cache.contains(64));
    EXPECT_EQ(memory.readWord(64), value);
}

TEST_F(CacheTest, FlushCleanLineJustInvalidates)
{
    std::uint8_t buffer[8];
    cache.read(64, buffer, 8);
    std::uint64_t before = cache.stats().get("writebacks");
    cache.flushLine(64);
    EXPECT_FALSE(cache.contains(64));
    EXPECT_EQ(cache.stats().get("writebacks"), before);
}

TEST_F(CacheTest, FlushAbsentLineIsHarmless)
{
    cache.flushLine(4096);
    EXPECT_EQ(cache.stats().get("flushes"), 0u);
}

TEST_F(CacheTest, FlushAllDrainsEverything)
{
    std::uint64_t value = 7;
    cache.write(0, &value, 8);
    cache.write(64, &value, 8);
    cache.flushAll();
    EXPECT_FALSE(cache.contains(0));
    EXPECT_FALSE(cache.contains(64));
    EXPECT_EQ(memory.readWord(0), 7u);
    EXPECT_EQ(memory.readWord(64), 7u);
}

TEST_F(CacheTest, FlushAllAccountsLikePerLineFlushes)
{
    // flushAll() must charge the same cycles and counters as flushing
    // each resident line individually with flushLine().
    std::uint64_t value = 42;
    cache.write(0, &value, 8);    // dirty
    cache.write(64, &value, 8);   // dirty
    std::uint8_t buffer[8];
    cache.read(128, buffer, 8);   // clean

    // Replay the same residency in a twin cache and flush line by line.
    PhysicalMemory twin_memory(1 << 20);
    CycleClock twin_clock;
    MemoryController twin_controller(twin_memory, twin_clock);
    Cache twin(twin_controller, twin_clock, CacheConfig{4, 2});
    twin.write(0, &value, 8);
    twin.write(64, &value, 8);
    twin.read(128, buffer, 8);

    Cycles bulk_t0 = clock.now();
    cache.flushAll();
    Cycles bulk_cost = clock.now() - bulk_t0;

    Cycles line_t0 = twin_clock.now();
    twin.flushLine(0);
    twin.flushLine(64);
    twin.flushLine(128);
    Cycles line_cost = twin_clock.now() - line_t0;

    EXPECT_EQ(bulk_cost, line_cost);
    // 3 flushed lines, of which 2 are dirty and pay a DRAM writeback.
    EXPECT_EQ(bulk_cost, 3 * kCacheFlushLineCycles + 2 * kDramLineCycles);
    EXPECT_EQ(cache.stats().get("flushes"), twin.stats().get("flushes"));
    EXPECT_EQ(cache.stats().get("flushes"), 3u);
    EXPECT_EQ(cache.stats().get("writebacks"),
              twin.stats().get("writebacks"));
}

TEST_F(CacheTest, FlushAllOnEmptyCacheIsFree)
{
    Cycles t0 = clock.now();
    cache.flushAll();
    EXPECT_EQ(clock.now(), t0);
    EXPECT_EQ(cache.stats().get("flushes"), 0u);
}

TEST_F(CacheTest, FaultedFillIsNotCountedAsMiss)
{
    // An uncorrectable-ECC fill must count as a faulted fill only; the
    // access that retries after the handler repairs memory contributes
    // exactly one completed miss, never two.
    memory.flipDataBit(0, 1);
    memory.flipDataBit(0, 2);
    std::uint8_t buffer[8];
    EXPECT_FALSE(cache.read(0, buffer, 8));
    EXPECT_EQ(cache.stats().get("faulted_fills"), 1u);
    EXPECT_EQ(cache.stats().get("misses"), 0u);

    // Repair the line (flip the bits back) and retry the access.
    memory.flipDataBit(0, 1);
    memory.flipDataBit(0, 2);
    EXPECT_TRUE(cache.read(0, buffer, 8));
    EXPECT_EQ(cache.stats().get("faulted_fills"), 1u);
    EXPECT_EQ(cache.stats().get("misses"), 1u);
}

TEST_F(CacheTest, BlockReadWriteTouchEachLineOnce)
{
    std::uint8_t pattern[256];
    for (std::size_t i = 0; i < sizeof(pattern); ++i)
        pattern[i] = static_cast<std::uint8_t>(i * 7);

    // 256 bytes starting mid-line: spans lines 0..4 (5 fills).
    EXPECT_EQ(cache.accessBlock(32, pattern, sizeof(pattern), true),
              sizeof(pattern));
    EXPECT_EQ(cache.stats().get("misses"), 5u);

    std::uint8_t out[256] = {};
    EXPECT_EQ(cache.accessBlock(32, out, sizeof(out), false), sizeof(out));
    EXPECT_EQ(std::memcmp(out, pattern, sizeof(out)), 0);
    EXPECT_EQ(cache.stats().get("misses"), 5u)
        << "the read after the write hits every line";
    EXPECT_EQ(cache.stats().get("hits"), 5u);
}

TEST_F(CacheTest, BlockReadStopsAtFaultedLine)
{
    // Poison the third line of the span; accessBlock must return the
    // bytes completed before the fault so the caller can retry from there.
    memory.flipDataBit(128, 1);
    memory.flipDataBit(128, 2);
    std::uint8_t out[256];
    EXPECT_EQ(cache.accessBlock(0, out, sizeof(out), false), 128u);
    EXPECT_EQ(interrupts, 1);

    memory.flipDataBit(128, 1);
    memory.flipDataBit(128, 2);
    EXPECT_EQ(cache.accessBlock(128, out + 128, sizeof(out) - 128, false),
              128u);
}

TEST_F(CacheTest, CrossLineAccessPanics)
{
    std::uint8_t buffer[16];
    EXPECT_THROW(cache.read(60, buffer, 16), PanicError);
    EXPECT_THROW(cache.write(60, buffer, 16), PanicError);
}

TEST_F(CacheTest, FaultedFillNotInstalled)
{
    memory.flipDataBit(0, 1);
    memory.flipDataBit(0, 2);
    std::uint8_t buffer[8];
    EXPECT_FALSE(cache.read(0, buffer, 8));
    EXPECT_FALSE(cache.contains(0));
    EXPECT_EQ(cache.stats().get("faulted_fills"), 1u);
    EXPECT_EQ(interrupts, 1);
}

TEST_F(CacheTest, WriteMissDoesReadForOwnership)
{
    // Write-allocate: a write to an uncached line fills first — this is
    // why stores to watched lines still trigger ECC faults (paper
    // §2.2.2 "Dealing with Cache Effects").
    memory.flipDataBit(128, 1);
    memory.flipDataBit(128, 2);
    std::uint64_t value = 1;
    EXPECT_FALSE(cache.write(128, &value, 8));
    EXPECT_EQ(interrupts, 1);
}

TEST_F(CacheTest, CachedLineNeverRechecksEcc)
{
    // The cache filtering effect: once resident, accesses bypass the
    // controller entirely.
    std::uint8_t buffer[8];
    cache.read(0, buffer, 8);
    std::uint64_t fills = controller.stats().get("line_fills");
    for (int i = 0; i < 10; ++i)
        cache.read(0, buffer, 8);
    EXPECT_EQ(controller.stats().get("line_fills"), fills);
}

TEST(CacheConfigTest, ZeroGeometryIsFatal)
{
    CycleClock clock;
    PhysicalMemory memory(4096);
    MemoryController controller(memory, clock);
    EXPECT_THROW(Cache(controller, clock, CacheConfig{0, 2}), FatalError);
    EXPECT_THROW(Cache(controller, clock, CacheConfig{4, 0}), FatalError);
}

/** Parameterized sweep over cache geometries: data integrity holds. */
class CacheGeometry
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>>
{
};

TEST_P(CacheGeometry, RandomAccessPatternKeepsDataConsistent)
{
    auto [sets, ways] = GetParam();
    CycleClock clock;
    PhysicalMemory memory(1 << 20);
    MemoryController controller(memory, clock);
    Cache cache(controller, clock, CacheConfig{sets, ways});

    // Mirror model in host memory.
    std::vector<std::uint64_t> mirror(512, 0);
    Rng rng(sets * 131 + ways);
    for (int op = 0; op < 4000; ++op) {
        std::size_t idx = rng.range(0, mirror.size() - 1);
        PhysAddr addr = idx * 8;
        if (rng.chance(0.5)) {
            std::uint64_t value = rng.next();
            ASSERT_TRUE(cache.write(addr, &value, 8));
            mirror[idx] = value;
        } else {
            std::uint64_t out = 0;
            ASSERT_TRUE(cache.read(addr, &out, 8));
            ASSERT_EQ(out, mirror[idx]) << "idx " << idx;
        }
    }
    // Flush and verify memory agrees with the mirror.
    cache.flushAll();
    for (std::size_t idx = 0; idx < mirror.size(); ++idx)
        ASSERT_EQ(memory.readWord(idx * 8), mirror[idx]);
}

/**
 * A naive write-back, write-allocate LRU cache: per set, a list of
 * resident lines most recently used first, and DRAM as a map of lines.
 */
class ReferenceCache
{
  public:
    ReferenceCache(std::size_t sets, std::size_t ways)
        : sets_(sets), ways_(ways)
    {
    }

    /** The model keeps a line as plain bytes, not the cache's words. */
    using Bytes = std::array<std::uint8_t, kCacheLineSize>;

    struct Line
    {
        PhysAddr addr;
        bool dirty;
        Bytes data;
    };

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::vector<PhysAddr> writtenBack; ///< by the last operation
    std::map<PhysAddr, Bytes> dram;

    /** Bring @p line_addr to the front of its set; @return it. */
    Line &
    touch(PhysAddr line_addr)
    {
        std::list<Line> &set = set_(line_addr);
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->addr == line_addr) {
                ++hits;
                set.splice(set.begin(), set, it);
                return set.front();
            }
        }
        ++misses;
        if (set.size() == ways_) {
            writeBack(set.back());
            set.pop_back();
        }
        set.push_front(Line{line_addr, false, dram[line_addr]});
        return set.front();
    }

    void
    flushLine(PhysAddr line_addr)
    {
        std::list<Line> &set = set_(line_addr);
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->addr == line_addr) {
                writeBack(*it);
                set.erase(it);
                return;
            }
        }
    }

    void
    flushAll()
    {
        for (auto &[index, set] : lines_) {
            for (Line &line : set)
                writeBack(line);
            set.clear();
        }
    }

  private:
    std::list<Line> &
    set_(PhysAddr line_addr)
    {
        return lines_[(line_addr / kCacheLineSize) % sets_];
    }

    void
    writeBack(const Line &line)
    {
        if (!line.dirty)
            return;
        dram[line.addr] = line.data;
        writtenBack.push_back(line.addr);
    }

    std::size_t sets_;
    std::size_t ways_;
    std::map<std::size_t, std::list<Line>> lines_;
};

class CacheReference
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>>
{
};

TEST_P(CacheReference, MatchesANaiveLruModel)
{
    auto [sets, ways] = GetParam();
    for (std::uint64_t seed : {1, 2, 3}) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        Rng rng(seed * 1000 + sets * 16 + ways);
        CycleClock clock;
        // Three lines per way of every set, so sets overflow often.
        const std::size_t lines = sets * ways * 3;
        PhysicalMemory memory(lines * kCacheLineSize);
        MemoryController controller(memory, clock);
        Cache cache(controller, clock, CacheConfig{sets, ways});
        ReferenceCache model(sets, ways);

        const int ops = 3000 + static_cast<int>(sets * ways) * 4;
        for (int op = 0; op < ops; ++op) {
            model.writtenBack.clear();
            const std::uint64_t hits = cache.stats().get("hits");
            const std::uint64_t misses = cache.stats().get("misses");
            const std::uint64_t writebacks = cache.stats().get("writebacks");
            const std::uint64_t model_hits = model.hits;
            const std::uint64_t model_misses = model.misses;

            PhysAddr line_addr = rng.range(0, lines - 1) * kCacheLineSize;
            std::size_t offset = rng.range(0, kCacheLineSize - 1);
            std::size_t size = rng.range(1, kCacheLineSize - offset);
            std::uint64_t kind = rng.range(0, 99);
            if (kind < 45) {
                std::uint8_t got[kCacheLineSize];
                ASSERT_TRUE(cache.read(line_addr + offset, got, size));
                const ReferenceCache::Bytes &want =
                    model.touch(line_addr).data;
                ASSERT_EQ(std::memcmp(got, want.data() + offset, size), 0)
                    << "op " << op << " read " << line_addr + offset;
            } else if (kind < 90) {
                std::uint8_t bytes[kCacheLineSize];
                for (std::size_t i = 0; i < size; ++i)
                    bytes[i] = static_cast<std::uint8_t>(rng.next());
                ASSERT_TRUE(cache.write(line_addr + offset, bytes, size));
                ReferenceCache::Line &line = model.touch(line_addr);
                std::memcpy(line.data.data() + offset, bytes, size);
                line.dirty = true;
            } else if (kind < 99) {
                cache.flushLine(line_addr);
                model.flushLine(line_addr);
            } else {
                cache.flushAll();
                model.flushAll();
            }

            ASSERT_EQ(cache.stats().get("hits") - hits,
                      model.hits - model_hits) << "op " << op;
            ASSERT_EQ(cache.stats().get("misses") - misses,
                      model.misses - model_misses) << "op " << op;
            ASSERT_EQ(cache.stats().get("writebacks") - writebacks,
                      model.writtenBack.size()) << "op " << op;
            for (PhysAddr written : model.writtenBack) {
                const LineWords stored = controller.peekLine(written);
                ASSERT_EQ(std::memcmp(stored.data(),
                                      model.dram[written].data(),
                                      kCacheLineSize),
                          0)
                    << "op " << op << " line " << written;
            }
        }
        cache.auditResidency();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheReference,
    ::testing::Values(std::make_pair<std::size_t, std::size_t>(1, 8),
                      std::make_pair<std::size_t, std::size_t>(4, 2),
                      std::make_pair<std::size_t, std::size_t>(256, 8)));

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_pair<std::size_t, std::size_t>(1, 1),
                      std::make_pair<std::size_t, std::size_t>(1, 8),
                      std::make_pair<std::size_t, std::size_t>(4, 2),
                      std::make_pair<std::size_t, std::size_t>(64, 4),
                      std::make_pair<std::size_t, std::size_t>(256, 8)));

} // namespace
} // namespace safemem
