#include "purify/purify.h"

#include <algorithm>
#include <vector>

#include "common/costs.h"
#include "common/logging.h"

namespace safemem {

namespace {

/** Red-zone bytes placed before and after every block. */
constexpr std::size_t kPurifyRedZoneBytes = 32;

/** RAII guard suppressing access instrumentation inside tool code. */
class ToolCodeGuard
{
  public:
    explicit ToolCodeGuard(bool &flag) : flag_(flag), saved_(flag)
    {
        flag_ = true;
    }
    ~ToolCodeGuard() { flag_ = saved_; }

  private:
    bool &flag_;
    bool saved_;
};

} // namespace

PurifyTool::PurifyTool(Machine &machine, HeapAllocator &allocator)
    : machine_(machine), allocator_(allocator)
{
}

void
PurifyTool::install()
{
    machine_.setAccessHook(
        [this](VirtAddr addr, std::size_t size, bool is_write) {
            onAccess(addr, size, is_write);
        });
}

void
PurifyTool::setRootProvider(RootProvider provider)
{
    rootProvider_ = std::move(provider);
}

Cycles
PurifyTool::appNow() const
{
    return machine_.clock().charged(CostCenter::Application);
}

PurifyTool::Block
PurifyTool::placeBlock(std::size_t size, std::uint64_t site_tag)
{
    std::size_t rz = kPurifyRedZoneBytes;
    Block block;
    block.base = allocator_.allocate(rz + std::max<std::size_t>(size, 1)
                                     + rz);
    block.userAddr = block.base + rz;
    block.size = size;
    block.siteTag = site_tag;

    CostScope scope(machine_.clock(), CostCenter::ToolAccess);
    machine_.clock().advance((size + 2 * rz) * kPurifyShadowByteCycles);
    shadow_.setRange(block.base, rz, ByteState::Unallocated);
    shadow_.setRange(block.userAddr, size, ByteState::AllocUninit);
    shadow_.setRange(block.userAddr + size, rz, ByteState::Unallocated);
    return block;
}

void
PurifyTool::adopt(const Block &block)
{
    freed_.erase(block.userAddr);
    live_[block.userAddr] = block;
    stats_.add(PurifyStat::BlocksInstrumented);
}

void
PurifyTool::retire(VirtAddr addr)
{
    auto it = live_.find(addr);
    if (it == live_.end())
        panic("PurifyTool: free of unknown block ", addr);
    Block block = it->second;
    live_.erase(it);
    // The address may come back from the allocator, and a leak there
    // must be reported afresh.
    reportedLeaked_.erase(addr);

    {
        CostScope scope(machine_.clock(), CostCenter::ToolAccess);
        machine_.clock().advance(block.size * kPurifyShadowByteCycles);
        shadow_.setRange(block.userAddr, block.size, ByteState::Freed);
    }

    freed_[block.userAddr] = block;
    allocator_.deallocate(block.base);
    stats_.add(PurifyStat::BlocksFreed);
}

void
PurifyTool::maybeSweep()
{
    if (appNow() - lastSweep_ > kPurifySweepPeriod)
        markAndSweep();
}

VirtAddr
PurifyTool::toolAlloc(std::size_t size, const ShadowStack &stack,
                      std::uint64_t site_tag)
{
    (void)stack;
    ToolCodeGuard guard(inToolCode_);
    Block block = placeBlock(size, site_tag);
    // Sweep before the block goes live: the caller has not stored the
    // pointer yet, so a sweep after the insert would report it leaked.
    maybeSweep();
    adopt(block);
    return block.userAddr;
}

VirtAddr
PurifyTool::toolCalloc(std::size_t count, std::size_t size,
                       const ShadowStack &stack, std::uint64_t site_tag)
{
    std::size_t bytes = count * size;
    VirtAddr user = toolAlloc(bytes, stack, site_tag);

    ToolCodeGuard guard(inToolCode_);
    std::vector<std::uint8_t> zeros(bytes, 0);
    machine_.write(user, zeros.data(), zeros.size());
    // calloc's zeroing initialises the block.
    shadow_.setRange(user, bytes, ByteState::AllocInit);
    return user;
}

VirtAddr
PurifyTool::toolRealloc(VirtAddr addr, std::size_t new_size,
                        const ShadowStack &stack, std::uint64_t site_tag)
{
    if (addr == 0)
        return toolAlloc(new_size, stack, site_tag);
    auto it = live_.find(addr);
    if (it == live_.end())
        panic("PurifyTool: realloc of unknown block ", addr);
    std::size_t old_size = it->second.size;

    ToolCodeGuard guard(inToolCode_);
    Block fresh = placeBlock(new_size, site_tag);
    std::vector<std::uint8_t> copy(std::min(old_size, new_size));
    if (!copy.empty()) {
        machine_.read(addr, copy.data(), copy.size());
        machine_.write(fresh.userAddr, copy.data(), copy.size());
        shadow_.setRange(fresh.userAddr, copy.size(), ByteState::AllocInit);
    }
    retire(addr);
    // One sweep check, with the old block gone and the new one not yet
    // live: the caller roots the new pointer only when this returns.
    maybeSweep();
    adopt(fresh);
    return fresh.userAddr;
}

void
PurifyTool::toolFree(VirtAddr addr)
{
    ToolCodeGuard guard(inToolCode_);
    retire(addr);
    maybeSweep();
}

void
PurifyTool::onCompute(Cycles cycles)
{
    // Instrumented code runs kPurifyComputeFactor x slower overall; the
    // original cycles were already charged to the application.
    Cycles extra = static_cast<Cycles>(
        static_cast<double>(cycles) * (kPurifyComputeFactor - 1.0));
    machine_.clock().advance(extra, CostCenter::ToolAccess);
}

void
PurifyTool::reportCorruption(CorruptionKind kind, const Block *block,
                             VirtAddr fault_addr)
{
    // One report per (kind, block) keeps repeated accesses from
    // flooding the log, like Purify's message suppression.
    for (const CorruptionReport &existing : corruptionReports_) {
        if (existing.kind == kind &&
            existing.userAddr == (block ? block->userAddr : 0))
            return;
    }
    CorruptionReport report;
    report.kind = kind;
    report.userAddr = block ? block->userAddr : 0;
    report.faultAddr = fault_addr;
    report.objectSize = block ? block->size : 0;
    report.siteTag = block ? block->siteTag : 0;
    report.reportTime = appNow();
    corruptionReports_.push_back(report);
    stats_.add(PurifyStat::CorruptionReports);
}

void
PurifyTool::onAccess(VirtAddr addr, std::size_t size, bool is_write)
{
    if (inToolCode_)
        return;

    CostScope scope(machine_.clock(), CostCenter::ToolAccess);
    // Base check plus a word-granularity charge for wide accesses.
    std::size_t words = (size + 7) / 8;
    machine_.clock().advance(kPurifyCheckCycles + (words - 1) * 6);
    stats_.add(PurifyStat::AccessesChecked);

    SpanStates states = shadow_.classify(addr, size);

    if (states.anyUnallocated) {
        // Diagnose from the first byte that actually violates, not the
        // access base (a write may start inside a block and run past
        // its end).
        VirtAddr addr = states.firstUnallocated;
        // Array-bounds error: identify the neighbouring block.
        const Block *owner = nullptr;
        CorruptionKind kind = CorruptionKind::OverflowPadding;
        auto it = live_.upper_bound(addr);
        if (it != live_.begin()) {
            auto prev = std::prev(it);
            // Past the end of the previous block (within its red zone)?
            if (addr >= prev->second.userAddr + prev->second.size &&
                addr < prev->second.userAddr + prev->second.size +
                           kPurifyRedZoneBytes) {
                owner = &prev->second;
                kind = CorruptionKind::OverflowPadding;
            }
        }
        if (!owner && it != live_.end() &&
            addr + kPurifyRedZoneBytes >= it->second.userAddr) {
            owner = &it->second;
            kind = CorruptionKind::UnderflowPadding;
        }
        reportCorruption(kind, owner, addr);
    }

    if (states.anyFreed) {
        VirtAddr addr = states.firstFreed;
        const Block *owner = nullptr;
        auto it = freed_.upper_bound(addr);
        if (it != freed_.begin()) {
            auto prev = std::prev(it);
            if (addr < prev->second.userAddr + prev->second.size)
                owner = &prev->second;
        }
        reportCorruption(CorruptionKind::UseAfterFree, owner, addr);
    }

    if (states.anyUninit && !is_write)
        stats_.add(PurifyStat::UninitReads);

    if (is_write) {
        machine_.clock().advance(size * kPurifyShadowByteCycles);
        // Mark written bytes initialised (only where allocated).
        shadow_.markWritten(addr, size);
    }
}

void
PurifyTool::markAndSweep()
{
    CostScope scope(machine_.clock(), CostCenter::ToolLeak);
    lastSweep_ = appNow();
    stats_.add(PurifyStat::Sweeps);

    // live_ cannot change during a sweep, so the mark phase searches a
    // flat copy of it and marks blocks by index: same order, same
    // verdicts, no tree walks or hashing per scanned word. Blocks
    // neither overlap nor nest, so the spans' ends ascend with their
    // starts.
    struct Span
    {
        VirtAddr user;
        VirtAddr end;
        const Block *block;
    };
    std::vector<Span> spans;
    spans.reserve(live_.size());
    for (const auto &[user, block] : live_)
        spans.push_back(Span{user, user + block.size, &block});
    const VirtAddr lo = spans.empty() ? 0 : spans.front().user;
    const VirtAddr range = spans.empty() ? 0 : spans.back().end - lo;

    // Bucket index over [lo, lo + range): bucket b names the first span
    // ending above lo + (b << shift), so the span holding a value, if
    // any, is the first at or after its bucket's entry that ends above
    // the value. Buckets are at least a cache line wide and at most
    // four per span, so a dense slab of small blocks shares a bucket
    // with only a few others while a sparse heap builds no more than
    // 4n buckets.
    unsigned shift = 6;
    while ((range >> shift) > 4 * spans.size())
        ++shift;
    std::vector<std::uint32_t> buckets(
        range == 0 ? 0 : ((range - 1) >> shift) + 1);
    for (std::size_t b = 0, first = 0; b < buckets.size(); ++b) {
        const VirtAddr start = lo + (static_cast<VirtAddr>(b) << shift);
        while (spans[first].end <= start)
            ++first;
        buckets[b] = static_cast<std::uint32_t>(first);
    }

    // Mark phase: conservative BFS from the root set through heap words.
    std::vector<std::uint8_t> marked(spans.size(), 0);
    std::vector<std::size_t> worklist;
    worklist.reserve(spans.size());

    auto mark = [&](VirtAddr value) {
        // One unsigned compare rejects values below lo as well as at or
        // above the last span's end.
        const VirtAddr offset = value - lo;
        if (offset >= range)
            return;
        std::size_t index = buckets[offset >> shift];
        while (spans[index].end <= value)
            ++index;
        if (value >= spans[index].user && !marked[index]) {
            marked[index] = 1;
            worklist.push_back(index);
        }
    };

    if (rootProvider_) {
        // Sorted, so the scan order, and with it the sweep's cache and
        // TLB traffic, does not depend on the provider's container.
        std::vector<VirtAddr> roots = rootProvider_();
        std::sort(roots.begin(), roots.end());
        for (VirtAddr root : roots)
            mark(root);
    }

    std::vector<std::uint64_t> words;
    for (std::size_t next = 0; next < worklist.size(); ++next) {
        const Span &span = spans[worklist[next]];

        // Scan the block's words for values that look like pointers.
        // readWords() runs no access hook, so the scan needs no
        // ToolCodeGuard.
        words.resize((span.end - span.user) / 8);
        machine_.clock().advance(words.size() * kPurifySweepWordCycles);
        machine_.readWords(span.user, words.data(), words.size());
        for (std::uint64_t word : words)
            mark(word);
    }

    // Sweep phase: unmarked live blocks are leaks.
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (marked[i] || !reportedLeaked_.insert(spans[i].user).second)
            continue;
        const Block &block = *spans[i].block;
        LeakReport report;
        report.kind = LeakKind::Always;
        report.objectSize = block.size;
        report.signature = 0;
        report.siteTag = block.siteTag;
        report.liveCount = 1;
        report.reportTime = appNow();
        leakReports_.push_back(report);
        stats_.add(PurifyStat::LeakedBlocks);
    }
}

void
PurifyTool::finish()
{
    markAndSweep();
}

} // namespace safemem
