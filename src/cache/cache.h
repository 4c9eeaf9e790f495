/**
 * @file
 * Set-associative, write-back, write-allocate data cache.
 *
 * The cache is the reason ECC watchpoints work at all: ECC codes are only
 * checked when the memory controller services a line fill, so WatchMemory
 * must flush a line before watching it (paper §2.2.2, "Dealing with Cache
 * Effects"), and a *write* to an uncached watched line still faults because
 * write-allocate performs a read-for-ownership fill first.
 *
 * The cache holds real data: fills decode through the controller, hits are
 * served locally (never re-checking ECC — the "cache filtering effect"),
 * and dirty evictions re-encode check bytes on writeback.
 *
 * The hit path is deliberately header-inline: a resident-line access is a
 * tag scan, one clock advance, one slot-counter increment and a memcpy,
 * with no out-of-line call. Misses, flushes and audits live in cache.cc.
 *
 * Ways live in flat arrays indexed by set * ways + way: tags, LRU
 * stamps, per-way state and line data. A lookup scans one set's row of
 * the tag array (64 bytes for 8 ways) and touches no line data.
 */

#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/clock.h"
#include "common/costs.h"
#include "common/logging.h"
#include "common/stats.h"
#include "common/types.h"
#include "mem/memory_controller.h"

namespace safemem {

class Trace;

/** Geometry of the simulated data cache. */
struct CacheConfig
{
    std::size_t sets = 256; ///< number of sets
    std::size_t ways = 8;   ///< associativity
};

/** Slot indices into the cache StatSet; order matches kCacheStatNames. */
enum class CacheStat : std::size_t
{
    Hits,
    Misses,
    Writebacks,
    FaultedFills,
    Flushes,
    /** Evictions where the victim was filled by a different process —
     *  the consolidation contention signal (stays 0, and therefore out
     *  of stat snapshots, on single-process machines). */
    CrossProcEvictions,
};

/** Report/snapshot names for CacheStat, in enumerator order. */
inline constexpr const char *kCacheStatNames[] = {
    "hits",    "misses",          "writebacks",
    "faulted_fills", "flushes", "cross_proc_evictions",
};

class Cache
{
  public:
    Cache(MemoryController &controller, CycleClock &clock,
          CacheConfig config = {}, Trace *trace = nullptr);

    /** Dirty writebacks / flushes are traced once per this many. */
    static constexpr std::uint64_t kTraceSampleInterval = 64;

    /**
     * Read @p size bytes at physical address @p addr (must not cross a
     * line boundary).
     *
     * @return false when the required line fill hit an uncorrectable ECC
     *         error; the interrupt handler has already run and the caller
     *         should retry.
     */
    bool
    read(PhysAddr addr, void *out, std::size_t size)
    {
        PhysAddr line_addr = alignDown(addr, kCacheLineSize);
        if (addr + size > line_addr + kCacheLineSize)
            panic("Cache::read crosses a line boundary at ", addr);
        std::size_t slot = lookup(line_addr);
        if (slot != kNoSlot) {
            touchHit(slot);
            std::memcpy(out, bytes(slot) + (addr - line_addr), size);
            return true;
        }
        return readMiss(line_addr, addr, out, size);
    }

    /** Write counterpart of read(); write-allocate, so misses fill. */
    bool
    write(PhysAddr addr, const void *in, std::size_t size)
    {
        PhysAddr line_addr = alignDown(addr, kCacheLineSize);
        if (addr + size > line_addr + kCacheLineSize)
            panic("Cache::write crosses a line boundary at ", addr);
        std::size_t slot = lookup(line_addr);
        if (slot != kNoSlot) {
            touchHit(slot);
            std::memcpy(bytes(slot) + (addr - line_addr), in, size);
            state_[slot].dirty = true;
            return true;
        }
        return writeMiss(line_addr, addr, in, size);
    }

    /**
     * Serve the @p count 8-byte words at @p addr, @p addr + 8, ... from
     * the resident line that holds them all, exactly as @p count read()
     * hits would: latency, hit counter and LRU stamp. Panics when they
     * are not all in one resident line.
     */
    void
    readWordHits(PhysAddr addr, std::uint64_t *out, std::size_t count)
    {
        PhysAddr line_addr = alignDown(addr, kCacheLineSize);
        std::size_t slot = lookup(line_addr);
        if (slot == kNoSlot || addr + count * 8 > line_addr + kCacheLineSize)
            panic("Cache::readWordHits: ", count, " words at ", addr,
                  " are not in one resident line");
        clock_.advance(count * kCacheHitCycles);
        stats_.add(CacheStat::Hits, count);
        useCounter_ += count;
        lastUse_[slot] = useCounter_;
        std::memcpy(out, bytes(slot) + (addr - line_addr), count * 8);
    }

    /**
     * Read (@p is_write false) or write @p size bytes of @p buffer at
     * @p addr, a span that may cross line boundaries, touching each
     * line once.
     * @return bytes copied before a faulted fill stopped the span (equal
     *         to @p size when no fill faulted). The caller retries from
     *         @p addr + the returned count after the handler has run.
     */
    std::size_t accessBlock(PhysAddr addr, void *buffer, std::size_t size,
                            bool is_write);

    /**
     * Write back (if dirty) and invalidate the line at @p line_addr.
     * The clflush analog used by WatchMemory.
     */
    void flushLine(PhysAddr line_addr);

    /**
     * Flush every valid line, with the same per-line cycle and counter
     * accounting as flushLine() over each resident line.
     */
    void flushAll();

    /** @return true when @p line_addr currently resides in the cache. */
    bool contains(PhysAddr line_addr) const;

    /**
     * SimCheck deep audit: set placement, duplicate residency, LRU stamp
     * sanity. No-op when auditing is disabled; called periodically by the
     * Machine and directly by tests.
     */
    void auditResidency() const;

    /** @return cache statistics (hits, misses, writebacks...). */
    const StatSet &stats() const { return stats_; }

    /** Tag subsequent fills with the running process (the kernel's
     *  context-switch path calls this) so evictions can tell whether the
     *  victim belonged to someone else. */
    void setCurrentPid(std::uint32_t pid) { currentPid_ = pid; }

  private:
    /** lookup()'s and fillLine()'s "no such way". */
    static constexpr std::size_t kNoSlot = ~std::size_t{0};

    /** Tag of an invalid way: no line-aligned address equals it. */
    static constexpr PhysAddr kInvalidTag = ~PhysAddr{0};

    /** What a resident way carries besides its tag, stamp and data. */
    struct WayState
    {
        bool dirty = false;
        std::uint32_t ownerPid = 0; ///< process whose access filled it
    };

    /** @return the slot of way 0 of @p line_addr's set. */
    std::size_t
    setBase(PhysAddr line_addr) const
    {
        return (line_addr / kCacheLineSize) % config_.sets * config_.ways;
    }

    /** @return the slot holding @p line_addr, or kNoSlot on a miss. */
    std::size_t
    lookup(PhysAddr line_addr) const
    {
        const std::size_t base = setBase(line_addr);
        const PhysAddr *row = tags_.data() + base;
        for (std::size_t way = 0; way < config_.ways; ++way) {
            if (row[way] == line_addr)
                return base + way;
        }
        return kNoSlot;
    }

    /** @return the line in @p slot as bytes, in memory order: the view
     *  every byte-offset copy into or out of a way goes through. */
    std::uint8_t *
    bytes(std::size_t slot)
    {
        return reinterpret_cast<std::uint8_t *>(data_[slot].data());
    }

    /** Hit bookkeeping: latency, counter, LRU stamp. */
    void
    touchHit(std::size_t slot)
    {
        clock_.advance(kCacheHitCycles);
        stats_.add(CacheStat::Hits);
        lastUse_[slot] = ++useCounter_;
    }

    /** Out-of-line miss paths: fill (evicting as needed), then copy. */
    bool readMiss(PhysAddr line_addr, PhysAddr addr, void *out,
                  std::size_t size);
    bool writeMiss(PhysAddr line_addr, PhysAddr addr, const void *in,
                   std::size_t size);

    /**
     * Fill @p line_addr into a victim way.
     * @return the filled slot, or kNoSlot when the fill faulted.
     */
    std::size_t fillLine(PhysAddr line_addr);

    /** Write back (if dirty) and invalidate the resident way in
     *  @p slot, billed as one flush. */
    void flushSlot(std::size_t slot);

    /** Sampled trace emits (out of line: the hit path stays emit-free). */
    void traceWriteback(PhysAddr line_addr);
    void traceFlush(PhysAddr line_addr);

    MemoryController &controller_;
    CycleClock &clock_;
    CacheConfig config_;
    Trace *trace_;
    /** Per way, indexed by set * ways + way. The tag array is the only
     *  record of a way's line address and of whether it is valid. */
    std::vector<PhysAddr> tags_;
    std::vector<std::uint64_t> lastUse_;
    std::vector<WayState> state_;
    std::vector<LineWords> data_;
    std::uint64_t useCounter_ = 0;
    std::uint32_t currentPid_ = 0;
    StatSet stats_{kCacheStatNames};
};

} // namespace safemem
