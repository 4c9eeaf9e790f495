#include "cache/cache.h"

#include <algorithm>
#include <unordered_set>

#include "check/simcheck.h"
#include "trace/trace.h"

namespace safemem {

Cache::Cache(MemoryController &controller, CycleClock &clock,
             CacheConfig config, Trace *trace)
    : controller_(controller), clock_(clock), config_(config), trace_(trace)
{
    if (config_.sets == 0 || config_.ways == 0)
        fatal("Cache: geometry must be non-zero");
    const std::size_t slots = config_.sets * config_.ways;
    tags_.assign(slots, kInvalidTag);
    lastUse_.assign(slots, 0);
    state_.assign(slots, WayState{});
    data_.assign(slots, LineWords{});
}

std::size_t
Cache::fillLine(PhysAddr line_addr)
{
    clock_.advance(kCacheMissMgmtCycles);

    // Victim: first invalid way, else LRU.
    const std::size_t base = setBase(line_addr);
    std::size_t victim = base;
    for (std::size_t slot = base; slot < base + config_.ways; ++slot) {
        if (tags_[slot] == kInvalidTag) {
            victim = slot;
            break;
        }
        if (lastUse_[slot] < lastUse_[victim])
            victim = slot;
    }

    if (tags_[victim] != kInvalidTag) {
        if (state_[victim].ownerPid != currentPid_) {
            // Consolidation contention: this fill pushes out a line some
            // other process brought in (a shared-cache effect no
            // single-process run can produce, so the counter stays 0
            // there).
            stats_.add(CacheStat::CrossProcEvictions);
        }
        if (state_[victim].dirty) {
            stats_.add(CacheStat::Writebacks);
            controller_.evictLine(tags_[victim], data_[victim]);
            traceWriteback(tags_[victim]);
        }
    }
    tags_[victim] = kInvalidTag;
    state_[victim].dirty = false;

    // The controller writes the line straight into the victim's slot,
    // and leaves it alone when the fill faults.
    if (!controller_.fillLine(line_addr, data_[victim])) {
        // Uncorrectable ECC error: the interrupt handler has run; do not
        // install the line, let the access restart. This is counted as a
        // faulted fill, not a completed miss — only a fill that installs
        // the line increments `misses`, so a faulted-then-retried access
        // shows up as one miss plus one faulted fill, never two misses.
        stats_.add(CacheStat::FaultedFills);
        return kNoSlot;
    }

    stats_.add(CacheStat::Misses);
    tags_[victim] = line_addr;
    lastUse_[victim] = ++useCounter_;
    state_[victim] = WayState{false, currentPid_};
    return victim;
}

bool
Cache::readMiss(PhysAddr line_addr, PhysAddr addr, void *out, std::size_t size)
{
    std::size_t slot = fillLine(line_addr);
    if (slot == kNoSlot)
        return false;
    std::memcpy(out, bytes(slot) + (addr - line_addr), size);
    return true;
}

bool
Cache::writeMiss(PhysAddr line_addr, PhysAddr addr, const void *in,
                 std::size_t size)
{
    // Write-allocate: a write miss performs a read-for-ownership fill,
    // which is exactly why writes to watched lines still trigger faults.
    std::size_t slot = fillLine(line_addr);
    if (slot == kNoSlot)
        return false;
    std::memcpy(bytes(slot) + (addr - line_addr), in, size);
    state_[slot].dirty = true;
    return true;
}

std::size_t
Cache::accessBlock(PhysAddr addr, void *buffer, std::size_t size,
                   bool is_write)
{
    auto *cursor = static_cast<std::uint8_t *>(buffer);
    std::size_t done = 0;
    while (done < size) {
        PhysAddr line_end =
            alignDown(addr + done, kCacheLineSize) + kCacheLineSize;
        std::size_t chunk =
            std::min<std::size_t>(size - done, line_end - (addr + done));
        if (!(is_write ? write(addr + done, cursor + done, chunk)
                       : read(addr + done, cursor + done, chunk)))
            break;
        done += chunk;
    }
    return done;
}

void
Cache::flushLine(PhysAddr line_addr)
{
    std::size_t slot = lookup(line_addr);
    if (slot == kNoSlot) {
        clock_.advance(kCacheFlushLineCycles);
        return;
    }
    flushSlot(slot);
}

void
Cache::flushAll()
{
    // Bulk flush pays the same bill as flushLine() over each *resident*
    // line: kCacheFlushLineCycles and one `flushes` count per valid way.
    // Invalid ways are skipped — a bulk flush iterates the tag array, it
    // does not issue a flush per possible address.
    for (std::size_t slot = 0; slot < tags_.size(); ++slot) {
        if (tags_[slot] != kInvalidTag)
            flushSlot(slot);
    }
}

void
Cache::flushSlot(std::size_t slot)
{
    clock_.advance(kCacheFlushLineCycles);
    const PhysAddr line_addr = tags_[slot];
    bool wrote_back = false;
    if (state_[slot].dirty) {
        stats_.add(CacheStat::Writebacks);
        controller_.evictLine(line_addr, data_[slot]);
        traceWriteback(line_addr);
        wrote_back = true;
    }
    SIMCHECK_AUDIT(AuditDomain::Cache, "no_dirty_loss_on_flush",
                   !state_[slot].dirty || wrote_back,
                   "dirty line ", line_addr, " dropped without writeback");
    tags_[slot] = kInvalidTag;
    state_[slot].dirty = false;
    stats_.add(CacheStat::Flushes);
    traceFlush(line_addr);
}

void
Cache::traceWriteback(PhysAddr line_addr)
{
    // Writebacks are too frequent for per-event records; sampling every
    // kTraceSampleInterval-th keeps the ring for the rare events while
    // still pinning down writeback cadence.
    std::uint64_t count = stats_.get(CacheStat::Writebacks);
    if (count % kTraceSampleInterval == 0)
        SAFEMEM_TRACE_EMIT(trace_, TraceEvent::CacheWritebackSample,
                           clock_.now(), line_addr, count);
}

void
Cache::traceFlush(PhysAddr line_addr)
{
    std::uint64_t count = stats_.get(CacheStat::Flushes);
    if (count % kTraceSampleInterval == 0)
        SAFEMEM_TRACE_EMIT(trace_, TraceEvent::CacheFlushSample,
                           clock_.now(), line_addr, count);
}

bool
Cache::contains(PhysAddr line_addr) const
{
    return lookup(line_addr) != kNoSlot;
}

void
Cache::auditResidency() const
{
    // Structural sweep: every valid way sits in the set its address hashes
    // to, no line is resident twice, and LRU stamps never run ahead of the
    // use counter. Cached *data* is deliberately not compared against DRAM:
    // hardware faults injected underneath a resident line are legitimate
    // simulator states (the paper's cache-filtering effect).
    if (!simCheckActive())
        return;
    std::unordered_set<PhysAddr> resident;
    for (std::size_t slot = 0; slot < tags_.size(); ++slot) {
        const std::size_t set = slot / config_.ways;
        const PhysAddr tag = tags_[slot];
        if (tag == kInvalidTag) {
            SIMCHECK_AUDIT(AuditDomain::Cache, "invalid_way_clean",
                           !state_[slot].dirty, "invalid way in set ", set,
                           " still flagged dirty");
            continue;
        }
        SIMCHECK_AUDIT(AuditDomain::Cache, "line_alignment",
                       isAligned(tag, kCacheLineSize),
                       "resident line ", tag, " misaligned");
        SIMCHECK_AUDIT(AuditDomain::Cache, "set_placement",
                       setBase(tag) == set * config_.ways,
                       "line ", tag, " resident in set ", set,
                       " but hashes to set ", setBase(tag) / config_.ways);
        SIMCHECK_AUDIT(AuditDomain::Cache, "unique_residency",
                       resident.insert(tag).second,
                       "line ", tag, " resident in two ways");
        SIMCHECK_AUDIT(AuditDomain::Cache, "lru_stamp_bound",
                       lastUse_[slot] <= useCounter_,
                       "LRU stamp ", lastUse_[slot],
                       " ahead of use counter ", useCounter_);
    }
}

} // namespace safemem
