/**
 * @file
 * Synthetic Current Load (SCL) model: the block integrated in the
 * Juno OC-DSO that loads the Cortex-A72 PDN with a square-wave
 * current excitation at programmable frequencies (paper Section 4 and
 * Fig. 8). Used to find the PDN resonance independently of software.
 */

#ifndef EMSTRESS_INSTRUMENTS_SCL_H
#define EMSTRESS_INSTRUMENTS_SCL_H

#include "circuit/transient.h"

namespace emstress {
namespace instruments {

/**
 * Programmable square-wave current injector.
 */
class SyntheticCurrentLoad
{
  public:
    /**
     * @param amplitude_a Square-wave high level [A] (low level 0).
     * @param duty        High-time fraction in (0, 1).
     */
    explicit SyntheticCurrentLoad(double amplitude_a,
                                  double duty = 0.5);

    /** Square-wave amplitude [A]. */
    double amplitude() const { return amplitude_; }

    /** Duty cycle. */
    double duty() const { return duty_; }

    /**
     * Waveform at a programmed frequency: the SCL source of
     * PdnModel::streamSim (Platform::runScl) and PdnModel::simulate.
     */
    circuit::SourceWaveform waveform(double freq_hz) const;

  private:
    double amplitude_;
    double duty_;
};

} // namespace instruments
} // namespace emstress

#endif // EMSTRESS_INSTRUMENTS_SCL_H
