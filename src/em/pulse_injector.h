/**
 * @file
 * Active EM fault-injection pulse model — the inverse of the antenna
 * receive path. A probe tip positioned over the die grid couples a
 * short, high-amplitude current transient into the die supply node;
 * the PDN transient solver then propagates the disturbance exactly
 * like any other current source ("EM-Fault It Yourself", Proy et al.
 * in PAPERS.md model the injected fault at this electrical level
 * before it becomes ISA-visible).
 *
 * The model is deliberately simple and exactly reproducible: a pulse
 * is a pure function of its spec and of simulation time. The same
 * spec evaluated at the same timestamps yields bit-identical currents
 * on every path (whole-trace or streamed, any thread count) —
 * the property the EMFI campaign replay contract builds on.
 */

#ifndef EMSTRESS_EM_PULSE_INJECTOR_H
#define EMSTRESS_EM_PULSE_INJECTOR_H

#include <cstdint>

#include "circuit/transient.h"

namespace emstress {
namespace em {

/** Temporal envelope of an injected pulse. */
enum class PulseShape : std::uint8_t
{
    kRect = 0,     ///< Flat top over [t0, t0 + width).
    kGaussian = 1, ///< Gaussian centered in the support window.
};

/** Display name of a pulse shape. */
const char *pulseShapeName(PulseShape shape);

/**
 * One injection pulse: where the probe sits over the die, when the
 * pulse fires relative to the observed window, and its electrical
 * envelope. Amplitude 0 is the well-defined "no pulse" spec — see
 * PulseInjector::isNull.
 */
struct PulseSpec
{
    double t0_s = 0.0;        ///< Pulse start in the observed window [s].
    double width_s = 10e-9;   ///< Support width [s] (> 0).
    double amplitude_a = 0.0; ///< Peak injected current magnitude [A].
    double polarity = 1.0;    ///< +1 draws current (droop), -1 injects.
    double x = 0.5;           ///< Probe position on the unit die grid.
    double y = 0.5;           ///< Probe position on the unit die grid.
    PulseShape shape = PulseShape::kRect;
};

/**
 * Evaluates a PulseSpec as a current waveform and derived quantities.
 *
 * Exactness contract: currentAt returns exactly 0.0 for a
 * zero-amplitude spec and for any time outside the pulse support, so
 * an injector only perturbs the samples its support covers — the
 * superposition property tests pin this.
 */
class PulseInjector
{
  public:
    /**
     * Validate and bind a spec.
     * @throws ConfigError on non-positive width, negative amplitude,
     *         polarity outside {+1, -1} or a probe position off the
     *         unit grid.
     */
    explicit PulseInjector(const PulseSpec &spec);

    /** The bound spec. */
    const PulseSpec &spec() const { return spec_; }

    /** True for the amplitude-0 spec: injects nothing anywhere. */
    bool isNull() const { return spec_.amplitude_a == 0.0; }

    /**
     * Spatial coupling efficiency of the probe position into the die
     * supply grid, in (0, 1]: strongest over the die center (where
     * the package feed concentrates the return path), falling off as
     * a Gaussian with distance. Never exactly zero — a misplaced
     * probe couples weakly, not "not at all".
     */
    double couplingGain() const;

    /**
     * Injected current at a time measured in the pulse's own frame
     * [A]. Exactly 0.0 outside [t0, t0 + width) and for a null spec.
     */
    double currentAt(double t_s) const;

    /**
     * The pulse as a transient-solver source waveform. The offset
     * shifts the pulse frame into simulation time: a platform run
     * discards a settle lead-in, so a pulse at t0 in the *observed*
     * window fires at t0 + offset in *simulation* time.
     */
    circuit::SourceWaveform waveform(double offset_s = 0.0) const;

    /**
     * Energy the pulse deposits into a 1-ohm reference load [J]:
     * integral of the squared injected current over the support
     * (closed form per shape). The minimal-energy search minimizes
     * this.
     */
    double energyJoules() const;

  private:
    PulseSpec spec_;
    double peak_; ///< amplitude * polarity * couplingGain.
};

} // namespace em
} // namespace emstress

#endif // EMSTRESS_EM_PULSE_INJECTOR_H
