/**
 * @file
 * parallelFor: fan independent simulator runs out across host cores.
 *
 * Each Machine is a self-contained world, so whole runs parallelise
 * with no shared state beyond one claim cursor: workers take the next
 * unclaimed index until none is left. A run is a pure function of its
 * index, so neither the claim order nor the worker count can change a
 * result — only the wall clock.
 */

#pragma once

#include <atomic>
#include <cstddef>
#include <optional>
#include <thread>
#include <vector>

#include "common/logging.h"

namespace safemem {

/**
 * @return a worker count for @p jobs jobs: @p requested, or the host's
 * hardware concurrency when @p requested is 0, never more than @p jobs
 * and never less than one.
 */
inline unsigned
clampWorkers(unsigned requested, std::size_t jobs)
{
    unsigned workers =
        requested != 0 ? requested : std::thread::hardware_concurrency();
    if (workers == 0)
        workers = 1;
    if (jobs > 0 && workers > jobs)
        workers = static_cast<unsigned>(jobs);
    return workers;
}

/**
 * Call @p body(i) exactly once for every i in [0, @p n).
 *
 * With clampWorkers(@p workers, @p n) <= 1 every call runs inline on the
 * calling thread, in index order. Otherwise that many threads claim
 * indices from one atomic cursor and are joined before this returns;
 * each installs the caller's currentLog() sink, so one LogScope covers
 * the whole fan-out. @p body must not throw: a run harness catches
 * per-run failures itself (see runMatrix) so one bad cell cannot take
 * down the batch.
 */
template <typename Body>
void
parallelFor(std::size_t n, unsigned workers, Body &&body)
{
    workers = clampWorkers(workers, n);
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    const Log *log = currentLog();
    std::atomic<std::size_t> next{0};
    // jthreads join when the vector dies, also when starting one throws.
    std::vector<std::jthread> threads;
    threads.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        threads.emplace_back([&] {
            std::optional<LogScope> scope;
            if (log)
                scope.emplace(*log);
            while (true) {
                std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    return;
                body(i);
            }
        });
    }
}

} // namespace safemem
