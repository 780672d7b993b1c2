/**
 * @file
 * V_MIN search: the paper's test methodology (Section 5.2). Each
 * experiment starts at a high voltage and lowers the supply in 10 mV
 * steps until any deviation from nominal execution (SDC, application
 * crash or system crash) is observed; the reported V_MIN is the
 * highest voltage at which a deviation occurred, over a number of
 * repeats (30 for viruses, 2 per SPEC benchmark in the paper).
 */

#ifndef EMSTRESS_VMIN_VMIN_SEARCH_H
#define EMSTRESS_VMIN_VMIN_SEARCH_H

#include <functional>
#include <vector>

#include "util/rng.h"
#include "vmin/timing_model.h"

namespace emstress {
namespace vmin {

/** Configuration of a V_MIN search. */
struct VminSearchConfig
{
    double v_start = 1.0;    ///< First (highest) test voltage.
    double v_floor = 0.5;    ///< Abort voltage (search failure).
    double v_step = 0.010;   ///< Step size (paper: 10 mV).
    std::size_t repeats = 2; ///< Runs per voltage point.
};

/**
 * A workload execution oracle: given a supply voltage and a repeat
 * index, return the lowest die voltage of one run — all the failure
 * model reads of it. The repeat index lets implementations vary
 * phase alignment / noise per run.
 */
using WorkloadRunner =
    std::function<double(double v_supply, std::size_t repeat)>;

/** Result of one workload's V_MIN characterization. */
struct VminResult
{
    double vmin = 0.0;          ///< Highest failing voltage.
    RunOutcome first_failure = RunOutcome::Pass; ///< Failure type there.
    double max_droop_nominal = 0.0; ///< Max droop measured at v_start.
    std::size_t runs_executed = 0;  ///< Total runs spent.
};

/**
 * Stepping V_MIN search engine.
 */
class VminSearch
{
  public:
    /**
     * @param config  Search parameters.
     * @param failure Failure classifier (with its timing model).
     * @param rng     Randomness stream for outcome classification.
     */
    VminSearch(const VminSearchConfig &config,
               const FailureModel &failure, Rng rng);

    /**
     * Characterize one workload.
     * @param runner   Execution oracle.
     * @param f_clk_hz Clock frequency of the runs.
     * @return V_MIN result; vmin == 0 with first_failure == Pass when
     *         nothing failed down to the floor voltage.
     */
    VminResult characterize(const WorkloadRunner &runner,
                            double f_clk_hz);

  private:
    VminSearchConfig config_;
    const FailureModel &failure_;
    Rng rng_;
};

} // namespace vmin
} // namespace emstress

#endif // EMSTRESS_VMIN_VMIN_SEARCH_H
