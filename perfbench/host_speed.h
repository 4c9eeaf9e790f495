/**
 * @file
 * Host-speed probe for the benchmark's time metrics.
 *
 * On a shared host the simulator's host time drifts by tens of percent
 * over minutes, with other tenants' load. A fixed probe interleaved with
 * the measured work drifts with it: page faults on fresh memory (the
 * path a machine boot takes), hash-map and tree-map churn (the
 * simulator's bookkeeping structures) and syndrome-style parity
 * arithmetic (codec code). Timed work is reported divided by scale(),
 * the square root of the probe's slowdown against its reference times.
 * On the 4-vCPU host the benchmark was written on, the simulator's host
 * time moved about half as much as the probe's (in log terms) over the
 * same minutes; dividing by the full slowdown over-corrected on a calm
 * host, dividing by none left drifts of 25% in the seed-to-seed spread.
 *
 * The probe is the benchmark's own code, so a change to the simulator
 * cannot move it; it uses the standard library only.
 */

#pragma once

#include <cmath>
#include <vector>

#include "traced.h"

namespace perfbench {

class HostSpeed
{
  public:
    /** Run the probe if @p interval seconds have passed since the last
     *  one (or none ran yet). */
    void probeEvery(double interval);

    /** Run the probe now. */
    void probe();

    /** @return the median slowdown over the probes so far: 1 is the
     *  reference speed, 1.2 a host 20% slower. 1 before any probe. */
    double slowdown() const;

    /** @return the divisor for host times: sqrt(slowdown()). */
    double scale() const { return std::sqrt(slowdown()); }

    /** @return how many probes ran. */
    std::size_t probes() const { return samples_.size(); }

  private:
    std::vector<double> samples_;
    Clock::time_point last_{};
};

} // namespace perfbench
