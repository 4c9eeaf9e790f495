/**
 * @file
 * SimCheck: the simulator's internal invariant auditor.
 *
 * The simulator reproduces a paper about catching silent memory corruption,
 * so a silent bug in our own ECC datapath or cache writeback path would be
 * an especially embarrassing way to skew every table. SimCheck is a
 * process-wide registry of audit hooks wired into the simulator's trust
 * boundaries (memory controller, cache, kernel, allocator). Hooks are
 * compiled in unconditionally but cost one branch when disabled; tests and
 * the `--simcheck` CLI flag enable them.
 *
 * A failed audit produces a structured report through common/logging and,
 * by default, unwinds via PanicError so any test exercising the broken
 * path fails. Self-tests flip reporting to collect mode and inspect the
 * recorded violations instead.
 *
 * The auditor is shared by every Machine in the process, so its own state
 * is thread-safe: flags and the hook counter are atomics, the violation
 * record is mutex-guarded. Parallel run matrices therefore audit freely;
 * only the collect-mode *inspection* API (violations()/clearViolations())
 * assumes the caller has quiesced the machines it cares about.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/mutex.h"

namespace safemem {

/** Which trust boundary an audit guards. */
enum class AuditDomain : std::uint8_t
{
    MemoryController, ///< ECC encode/decode datapath, bus lock
    Cache,            ///< residency, writeback coherence
    Kernel,           ///< page table / TLB / watch bookkeeping
    Allocator         ///< free lists, block map, canaries
};

/** @return the report tag for @p domain ("mc", "cache", ...). */
const char *auditDomainName(AuditDomain domain);

/** One recorded invariant violation. */
struct AuditViolation
{
    AuditDomain domain = AuditDomain::MemoryController;
    std::string invariant; ///< stable identifier, e.g. "fill_reencode_clean"
    std::string detail;    ///< free-form context (addresses, values)
};

/**
 * Process-wide auditor. Off by default; enabling it is cheap enough to
 * leave on for every test run (audits are O(checked state), and the deep
 * sweeps are rate-limited by their callers).
 */
class SimCheck
{
  public:
    /** @return the process-wide auditor. Defined here so that, while
     *  auditing is off, simCheckActive() and every SIMCHECK_AUDIT are
     *  inline loads and a branch, with no call. */
    static SimCheck &
    instance()
    {
        static SimCheck auditor;
        return auditor;
    }

    /** Master switch; all SIMCHECK_AUDIT hooks no-op while disabled. */
    void
    setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    /** @return true when audits are active. */
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /**
     * Choose the failure mode: throwing (default — a violation panics so
     * tests fail loudly) or collecting (self-tests seed deliberate
     * violations and inspect the record).
     */
    void
    setThrowOnViolation(bool on)
    {
        throwOnViolation_.store(on, std::memory_order_relaxed);
    }

    /** @return true when violations unwind via PanicError. */
    bool
    throwOnViolation() const
    {
        return throwOnViolation_.load(std::memory_order_relaxed);
    }

    /**
     * Report a failed audit: records it, emits a structured log line, and
     * (in throwing mode) panics.
     */
    void report(AuditDomain domain, const char *invariant,
                const std::string &detail);

    /** Bump the audits-run counter (one per executed hook). */
    void countAudit() { auditsRun_.fetch_add(1, std::memory_order_relaxed); }

    /** @return how many audit hooks have executed while enabled. */
    std::uint64_t
    auditsRun() const
    {
        return auditsRun_.load(std::memory_order_relaxed);
    }

    /** @return a snapshot of violations recorded since the last clear. */
    std::vector<AuditViolation> violations() const EXCLUDES(violationsMutex_);

    /** Forget recorded violations (between self-test cases). */
    void clearViolations() EXCLUDES(violationsMutex_);

  private:
    std::atomic<bool> enabled_{false};
    std::atomic<bool> throwOnViolation_{true};
    std::atomic<std::uint64_t> auditsRun_{0};
    mutable Mutex violationsMutex_;
    std::vector<AuditViolation> violations_ GUARDED_BY(violationsMutex_);
};

/**
 * Audit hook: when SimCheck is enabled and @p cond is false, report a
 * violation of @p invariant in @p domain. Extra arguments are formatted
 * into the detail string (lazily — nothing is formatted on the fast path).
 */
#define SIMCHECK_AUDIT(domain, invariant, cond, ...)                          \
    do {                                                                      \
        ::safemem::SimCheck &simcheck_ = ::safemem::SimCheck::instance();     \
        if (simcheck_.enabled()) {                                            \
            simcheck_.countAudit();                                           \
            if (!(cond))                                                      \
                simcheck_.report((domain), (invariant),                       \
                                 ::safemem::detail::format(__VA_ARGS__));     \
        }                                                                     \
    } while (0)

/** @return true when SimCheck audits should run (guards audit loops). */
inline bool
simCheckActive()
{
    return SimCheck::instance().enabled();
}

} // namespace safemem
