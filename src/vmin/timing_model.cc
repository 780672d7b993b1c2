/**
 * @file
 * Timing model implementation.
 */

#include "vmin/timing_model.h"

#include <cmath>

#include "util/error.h"

namespace emstress {
namespace vmin {

TimingModel::TimingModel(const TimingModelParams &params)
    : params_(params)
{
    requireConfig(params.vth > 0.0, "threshold voltage must be > 0");
    requireConfig(params.alpha > 0.0, "alpha must be > 0");
    requireConfig(params.v_crit_anchor > params.vth,
                  "anchor voltage must exceed the threshold voltage");
    requireConfig(params.f_anchor_hz > 0.0,
                  "anchor frequency must be positive");
    const double v = params.v_crit_anchor;
    k_ = params.f_anchor_hz * v
        / std::pow(v - params.vth, params.alpha);
}

double
TimingModel::fMax(double v_die) const
{
    if (v_die <= params_.vth)
        return 0.0;
    return k_ * std::pow(v_die - params_.vth, params_.alpha) / v_die;
}

double
TimingModel::vCrit(double f_clk_hz) const
{
    requireConfig(f_clk_hz > 0.0, "clock frequency must be positive");
    // fMax is monotone increasing above vth; bisect.
    double lo = params_.vth + 1e-6;
    double hi = 3.0;
    requireSim(fMax(hi) >= f_clk_hz,
               "requested frequency beyond the timing model's range");
    for (int i = 0; i < 80; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (fMax(mid) >= f_clk_hz)
            hi = mid;
        else
            lo = mid;
    }
    return hi;
}

const char *
outcomeName(RunOutcome outcome)
{
    switch (outcome) {
      case RunOutcome::Pass:        return "pass";
      case RunOutcome::Sdc:         return "SDC";
      case RunOutcome::AppCrash:    return "app-crash";
      case RunOutcome::SystemCrash: return "system-crash";
    }
    return "unknown";
}

FailureModel::FailureModel(const FailureModelParams &params,
                           const TimingModel &timing)
    : params_(params), timing_(timing)
{
    requireConfig(params.sdc_band_v >= 0.0,
                  "SDC band must be non-negative");
    requireConfig(params.sdc_probability >= 0.0
                      && params.sdc_probability <= 1.0,
                  "SDC probability outside [0,1]");
}

RunOutcome
FailureModel::classify(double v_min, double v_crit, Rng &rng) const
{
    const double slack = v_min - v_crit;
    if (slack < 0.0)
        return RunOutcome::SystemCrash;
    if (slack < params_.sdc_band_v
        && rng.chance(params_.sdc_probability)) {
        // Near-critical excursions corrupt state; whether that shows
        // as bad output or a dead process depends on where it lands.
        return rng.chance(0.5) ? RunOutcome::Sdc
                               : RunOutcome::AppCrash;
    }
    return RunOutcome::Pass;
}

} // namespace vmin
} // namespace emstress
