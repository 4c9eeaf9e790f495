#include "check/simcheck.h"

#include "trace/trace.h"

namespace safemem {

const char *
auditDomainName(AuditDomain domain)
{
    switch (domain) {
      case AuditDomain::MemoryController: return "mc";
      case AuditDomain::Cache: return "cache";
      case AuditDomain::Kernel: return "kernel";
      case AuditDomain::Allocator: return "alloc";
    }
    return "?";
}

void
SimCheck::report(AuditDomain domain, const char *invariant,
                 const std::string &detail)
{
    {
        MutexLock lock(violationsMutex_);
        violations_.push_back(AuditViolation{domain, invariant, detail});
    }

    // The thread's flight recorder (when one is installed) turns a bare
    // invariant failure into a story: the violation plus the last few
    // events that led up to it.
    std::string msg = detail::format(
        "SimCheck violation: domain=", auditDomainName(domain),
        " invariant=", invariant, detail.empty() ? "" : " ", detail,
        traceContextSummary(8));
    if (throwOnViolation())
        panic(msg);
    logMessage(LogLevel::Warn, msg);
}

std::vector<AuditViolation>
SimCheck::violations() const
{
    MutexLock lock(violationsMutex_);
    return violations_;
}

void
SimCheck::clearViolations()
{
    MutexLock lock(violationsMutex_);
    violations_.clear();
}

} // namespace safemem
