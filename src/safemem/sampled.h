/**
 * @file
 * SampledSafeMem: GWP-ASan-style sampled monitoring over the SafeMem
 * detectors.
 *
 * The full tool intercepts every allocation; at fleet scale that is the
 * overhead the paper's Table 3 pays on every machine. GWP-ASan's
 * observation is that across a large fleet a *tiny* sample rate still
 * catches production bugs, because the same bug fires on many machines —
 * so this tool admits each allocation into the leak/corruption detectors
 * with probability SafeMemConfig::sampleRate and routes everything else
 * straight to the allocator at zero monitoring cost.
 *
 * Sampling decisions are a pure function of (sampleSeed, pid, allocation
 * ordinal): no shared RNG stream, no dependence on scheduling or worker
 * count, so sampled runs keep the repo's bit-identical-results contract.
 *
 * Because most objects are unsampled, every interposition path must cope
 * with objects the detectors never saw: frees fall through to the
 * allocator, reallocs move objects across the sampled/unsampled boundary
 * (watch drop/establish, site-tag propagation), and recycled blocks must
 * clear any stale freed-body watch (CorruptionDetector::onBlockRecycled).
 */

#pragma once

#include "os/process.h"
#include "safemem/safemem.h"

namespace safemem {

/** Slot indices into the sampling StatSet; order matches kSampledStatNames. */
enum class SampledStat : std::size_t
{
    SampledAllocs,
    UnsampledAllocs,
    SampledFrees,
    UnsampledFrees,
    ReallocStaySampled,
    ReallocDropSample,
    ReallocGainSample,
    ReallocStayUnsampled,
};

/** Report/snapshot names for SampledStat, in enumerator order. */
inline constexpr const char *kSampledStatNames[] = {
    "sampled_allocs",
    "unsampled_allocs",
    "sampled_frees",
    "unsampled_frees",
    "realloc_stay_sampled",
    "realloc_drop_sample",
    "realloc_gain_sample",
    "realloc_stay_unsampled",
};

class SampledSafeMemTool : public SafeMemTool
{
  public:
    /**
     * @param pid the owning process, mixed into every sampling decision
     *            so consolidated tenants sample independent streams.
     * Other parameters as SafeMemTool; config.sampleRate/sampleSeed
     * control the sampling.
     */
    SampledSafeMemTool(Machine &machine, HeapAllocator &allocator,
                       WatchBackend &backend, SafeMemConfig config,
                       Pid pid);

    VirtAddr toolAlloc(std::size_t size, const ShadowStack &stack,
                       std::uint64_t site_tag) override;
    VirtAddr toolRealloc(VirtAddr addr, std::size_t new_size,
                         const ShadowStack &stack,
                         std::uint64_t site_tag) override;
    void toolFree(VirtAddr addr) override;

    /**
     * The sampling function itself, exposed for tests: admit allocation
     * number @p ordinal of process @p pid with probability @p rate.
     * Deterministic — same arguments, same verdict, on any thread.
     */
    static bool sampleDecision(std::uint64_t seed, Pid pid,
                               std::uint64_t ordinal, double rate);

    /** @return sampling statistics (sampled/unsampled traffic split). */
    const StatSet &samplingStats() const { return stats_; }

  private:
    /** Decide the next allocation ordinal's fate. */
    bool nextSampled();

    /** Copy min(old,new) bytes through the machine (charged, observable). */
    void copyContents(VirtAddr from, VirtAddr to, std::size_t old_size,
                      std::size_t new_size);

    Pid pid_;
    std::uint64_t ordinal_ = 0;
    StatSet stats_{kSampledStatNames};
};

} // namespace safemem
