/**
 * @file
 * Timing-failure model for V_MIN determination. A CPU fails when its
 * critical-path delay at the instantaneous die voltage exceeds the
 * clock period. The alpha-power law gives the delay-voltage relation;
 * V_CRIT(f) is the die voltage at which timing exactly closes for a
 * clock frequency f. Outcomes within a small slack band above the
 * crash point are silent data corruptions / application crashes, per
 * the paper's observation that SDCs appear ~10 mV above the system
 * crash voltage (Section 5.2).
 */

#ifndef EMSTRESS_VMIN_TIMING_MODEL_H
#define EMSTRESS_VMIN_TIMING_MODEL_H

#include "util/rng.h"
#include "util/units.h"

namespace emstress {
namespace vmin {

/** Alpha-power-law timing model parameters. */
struct TimingModelParams
{
    double vth = 0.35;   ///< Effective threshold voltage [V].
    double alpha = 1.3;  ///< Velocity-saturation exponent.
    /// Calibration anchor: at f_anchor_hz the critical path closes
    /// exactly at v_crit_anchor.
    double f_anchor_hz = giga(1.2);
    double v_crit_anchor = 0.78;
};

/**
 * Critical-voltage solver: max frequency supported at voltage v is
 * f_max(v) = k (v - vth)^alpha / v; the anchor point fixes k.
 */
class TimingModel
{
  public:
    /** Construct from parameters. */
    explicit TimingModel(const TimingModelParams &params);

    /** Parameters. */
    const TimingModelParams &params() const { return params_; }

    /** Maximum clock frequency sustainable at a die voltage [Hz]. */
    double fMax(double v_die) const;

    /**
     * Minimum die voltage at which a clock frequency closes timing
     * [V] (inverse of fMax; solved by bisection).
     */
    double vCrit(double f_clk_hz) const;

  private:
    TimingModelParams params_;
    double k_; ///< Speed constant fixed by the anchor.
};

/** Outcome of one workload execution at a voltage. */
enum class RunOutcome
{
    Pass,        ///< Output matches the golden reference.
    Sdc,         ///< Silent data corruption.
    AppCrash,    ///< Application crash.
    SystemCrash, ///< System crash / hang.
};

/** Human-readable outcome name. */
const char *outcomeName(RunOutcome outcome);

/** True for any deviation from nominal execution. */
inline bool
isFailure(RunOutcome outcome)
{
    return outcome != RunOutcome::Pass;
}

/** Failure classification parameters. */
struct FailureModelParams
{
    /// Slack band above the crash voltage where SDC/app-crash occur
    /// probabilistically (paper: ~10 mV).
    double sdc_band_v = 0.010;
    /// Probability per run that a within-band excursion manifests.
    double sdc_probability = 0.7;
};

/**
 * Classify one execution from the lowest die voltage it reached: a
 * timing failure depends only on the deepest excursion below the
 * critical voltage, never on the rest of the waveform.
 */
class FailureModel
{
  public:
    /** Construct with band parameters and a timing model. */
    FailureModel(const FailureModelParams &params,
                 const TimingModel &timing);

    /** The timing model the classifier closes against. */
    const TimingModel &timing() const { return timing_; }

    /**
     * Classify an execution.
     * @param v_min  Lowest die voltage during the run.
     * @param v_crit Critical voltage at the run's clock
     *               (TimingModel::vCrit); a search computes it once.
     * @param rng    Randomness for within-band SDC manifestation.
     */
    RunOutcome classify(double v_min, double v_crit, Rng &rng) const;

  private:
    FailureModelParams params_;
    const TimingModel &timing_;
};

} // namespace vmin
} // namespace emstress

#endif // EMSTRESS_VMIN_TIMING_MODEL_H
