/**
 * @file
 * V_MIN search implementation.
 */

#include "vmin/vmin_search.h"

#include "util/error.h"

namespace emstress {
namespace vmin {

VminSearch::VminSearch(const VminSearchConfig &config,
                       const FailureModel &failure, Rng rng)
    : config_(config), failure_(failure), rng_(rng)
{
    requireConfig(config.v_step > 0.0, "step must be positive");
    requireConfig(config.v_start > config.v_floor,
                  "start voltage must exceed the floor");
    requireConfig(config.repeats >= 1, "need at least one repeat");
}

VminResult
VminSearch::characterize(const WorkloadRunner &runner, double f_clk_hz)
{
    VminResult result;
    // Every run of the row shares one clock, hence one critical
    // voltage.
    const double v_crit = failure_.timing().vCrit(f_clk_hz);

    // Record the nominal-voltage droop for reporting (Fig. 10's red
    // curve) from the first repeat at the start voltage.
    result.max_droop_nominal =
        config_.v_start - runner(config_.v_start, 0);

    // Integer-indexed sweep (lint R3): each test voltage is
    // recomputed as start - i*step, so the visited grid is a pure
    // function of the config — a loop-carried `v -= step` would
    // accumulate one rounding error per level and make the grid
    // depend on how many levels preceded it.
    for (std::size_t i = 0;; ++i) {
        const double v = config_.v_start
            - static_cast<double>(i) * config_.v_step;
        if (!(v > config_.v_floor))
            break;
        for (std::size_t rep = 0; rep < config_.repeats; ++rep) {
            const double v_min = runner(v, rep);
            ++result.runs_executed;
            const RunOutcome outcome =
                failure_.classify(v_min, v_crit, rng_);
            if (isFailure(outcome)) {
                // Paper reports the highest voltage at which any
                // deviation from nominal execution is observed.
                result.vmin = v;
                result.first_failure = outcome;
                return result;
            }
        }
    }
    return result; // nothing failed: vmin 0 / Pass
}

} // namespace vmin
} // namespace emstress
