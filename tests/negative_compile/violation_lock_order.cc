// Negative-compile case: acquiring two mutexes against their declared
// ACQUIRED_AFTER ordering must be rejected by -Wthread-safety-beta
// (-Werror). This is the compile-time face of the watch-park -> bus-lock
// hierarchy (docs/MECHANISM.md §11).
#include "common/mutex.h"

namespace {

class TwoLevel
{
  public:
    void
    wrongOrder()
    {
        inner_.lock();
        outer_.lock(); // BAD: outer must be acquired before inner
        outer_.unlock();
        inner_.unlock();
    }

  private:
    safemem::Mutex outer_;
    safemem::Mutex inner_ ACQUIRED_AFTER(outer_);
};

} // namespace

int
main()
{
    TwoLevel locks;
    locks.wrongOrder();
    return 0;
}
