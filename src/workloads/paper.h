/**
 * @file
 * `safemem_run paper`: the paper's whole evaluation in one command.
 *
 * Runs the 49 distinct matrix cells behind Tables 3-5 and Figure 3 once
 * through runMatrix (Table 4's SafeMem column, Table 5's rows and
 * Figure 3's ML runs are cells Table 3 already needs), reads Table 2
 * off the simulated clock, runs the guard-padding and tuning ablations,
 * and prints every table as markdown with the paper's value beside the
 * measured one. EXPERIMENTS.md holds this output verbatim; CI checks
 * that every table block still appears there.
 */

#pragma once

#include <vector>

#include "common/types.h"
#include "workloads/cli.h"

namespace safemem {

/** One row of a Figure 3 curve. */
struct StabilityRow
{
    double seconds = 0.0; ///< app CPU time of the row
    double percent = 0.0; ///< groups whose warm-up ended by then
};

/**
 * @return the Figure 3 rows of one run: the fixed sample times that fall
 * before the run's end, then the end itself, so the time column
 * increases and no row lies past the end. Empty when @p warmups is.
 *
 * @param warmups  per-group warm-up times (app CPU cycles), any order.
 * @param end      the run's app CPU cycles.
 */
std::vector<StabilityRow> stabilityRows(std::vector<Cycles> warmups,
                                        Cycles end);

/**
 * Run the whole evaluation on every core. @return the markdown tables,
 * not ok when a matrix cell failed (the report names it).
 */
CliRun runPaper();

} // namespace safemem
