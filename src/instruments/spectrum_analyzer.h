/**
 * @file
 * Spectrum-analyzer instrument model (Agilent E4402B / N9332C in the
 * paper). Converts a received antenna voltage into a calibrated dBm
 * power spectrum with a thermal noise floor and per-sweep measurement
 * noise, and provides the paper's GA fitness statistic: the RMS of N
 * repeated max-amplitude measurements over a band (Section 3.1 step
 * (b): "the metric used for maximum EM amplitude is the mean root
 * square of 30 samples").
 */

#ifndef EMSTRESS_INSTRUMENTS_SPECTRUM_ANALYZER_H
#define EMSTRESS_INSTRUMENTS_SPECTRUM_ANALYZER_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dsp/spectrum.h"
#include "util/rng.h"
#include "util/sample_sink.h"
#include "util/trace.h"
#include "util/units.h"

namespace emstress {
namespace instruments {

/** Configuration of the spectrum analyzer. */
struct SpectrumAnalyzerParams
{
    double f_start_hz = mega(10.0);       ///< Display start frequency.
    double f_stop_hz = mega(500.0);       ///< Display stop frequency.
    double ref_impedance = 50.0;    ///< Input impedance [ohm].
    double noise_floor_dbm = -97.0; ///< Displayed average noise level.
    double gain_error_db = 0.25;    ///< 1-sigma per-sweep gain ripple.
    dsp::WindowKind window = dsp::WindowKind::Hann; ///< RBW filter.
};

/** One displayed sweep: frequency bins and power levels. */
struct SaSweep
{
    std::vector<double> freqs_hz;
    std::vector<double> power_dbm;

    /** Number of display bins. */
    std::size_t size() const { return freqs_hz.size(); }
};

/** A marker measurement: peak frequency and level. */
struct SaMarker
{
    double freq_hz = 0.0;
    double power_dbm = -200.0;
};

/**
 * The in-band bins of one capture as the analyzer displays them: a
 * contiguous run of FFT-grid indices [first_bin, first_bin + size())
 * with their noiseless powers. Every band marker reduces to this.
 */
struct SaBand
{
    std::size_t first_bin = 0;
    std::vector<double> freq_hz;
    std::vector<double> signal_w; ///< Noiseless power [W].

    /** Number of bins. */
    std::size_t size() const { return signal_w.size(); }
};

/**
 * The analyzer's reading model: displayed power [W] of FFT-grid bin k
 * in sweep `sweep` under `noise_key`, for noiseless power signal_w
 * (see SpectrumAnalyzer for the noise).
 */
double saReadingWatts(const SpectrumAnalyzerParams &params,
                      std::uint64_t noise_key, std::size_t sweep,
                      std::size_t k, double signal_w);

/**
 * The paper's RMS-of-N-sweeps statistic over a band's bins: per
 * sweep, the highest reading (the lowest bin on equal readings; NaN
 * never wins), then the RMS of those maxima in dBm with the median
 * marker frequency. Only bins whose reading could still win are
 * drawn, so most sweeps read one or two bins.
 */
SaMarker averagedBandMax(const SpectrumAnalyzerParams &params,
                         const SaBand &band, std::size_t n_samples,
                         std::uint64_t noise_key);

/**
 * Streaming band-max detector: the SampleSink counterpart of feeding
 * a received-voltage trace through
 * SpectrumAnalyzer::averagedMaxAmplitude(), which is in fact this
 * detector fed from the trace. It buffers the capture (one
 * zero-padded transform length of doubles), and finish() runs the
 * analyzer's mean-removed, windowed transform on it with the shared
 * plan for the capture geometry.
 *
 * Measurement noise is counter-keyed (see SpectrumAnalyzer): each
 * (sweep, grid bin) cell's noise is a pure function of the noise key,
 * so only in-band bins are drawn, and only those that can still win.
 */
class SaBandDetector final : public SampleSink
{
  public:
    /**
     * @param params         Analyzer settings (display span, noise).
     * @param n_in           Samples the stream will push (the batch
     *                       capture length).
     * @param sample_rate_hz Input sample rate.
     * @param f_lo, f_hi     Measurement band for the marker search.
     */
    SaBandDetector(const SpectrumAnalyzerParams &params,
                   std::size_t n_in, double sample_rate_hz,
                   double f_lo, double f_hi);

    /**
     * Measure on a caller's band plan. The plan's window must be the
     * analyzer's; its bins outside [f_lo, f_hi] are not searched.
     */
    SaBandDetector(const SpectrumAnalyzerParams &params,
                   const dsp::BandPlan &plan, double f_lo, double f_hi);

    void push(double v) override { buf_.push_back(v); }

    /**
     * Transform the capture.
     * @pre exactly n_in samples have been pushed.
     */
    void finish() override;

    /**
     * The paper's RMS-of-N-sweeps statistic (see averagedBandMax).
     * @pre finish() has run.
     */
    SaMarker averagedMaxAmplitude(std::size_t n_samples,
                                  std::uint64_t noise_key) const;

    /** As above, drawing the noise key from `noise` (one word). */
    SaMarker averagedMaxAmplitude(std::size_t n_samples,
                                  Rng &noise) const;

  private:
    /** The displayed bins inside the band. */
    SaBand band() const;

    SpectrumAnalyzerParams params_;
    double f_lo_;
    double f_hi_;
    dsp::BandPlan plan_;
    std::vector<double> buf_;
    bool finished_ = false;
};

/**
 * Spectrum analyzer.
 *
 * Measurement noise is counter-keyed: sweep i's reading of FFT-grid
 * bin k is the bin's signal power times a log-normal gain ripple,
 * plus an exponentially distributed noise-floor power (the power of
 * a Rayleigh-envelope floor), both drawn from cell (i, k / 2) of a
 * CounterRng with the measurement's noise key (one cell serves the
 * bin pair 2j, 2j + 1). A reading therefore
 * depends only on (key, sweep, bin): band-limited measurements draw
 * only the bins they observe, and a full sweep() agrees with any
 * band marker of the same key on every in-band bin.
 *
 * Overloads taking an Rng draw the noise key from it (one word per
 * measurement); the non-const ones use the instrument's own stream,
 * so repeated measurements see fresh noise.
 */
class SpectrumAnalyzer
{
  public:
    /** Construct with settings and a seeded noise stream. */
    SpectrumAnalyzer(const SpectrumAnalyzerParams &params, Rng rng);

    /** Settings. */
    const SpectrumAnalyzerParams &params() const { return params_; }

    /**
     * The instrument's internal noise-key stream. Streaming
     * detectors draw from it to replicate the non-const batch
     * methods, advancing the state identically.
     */
    Rng &noiseStream() { return rng_; }

    /**
     * Acquire one sweep from a received voltage trace. Bins outside
     * [f_start, f_stop] are discarded; every bin is perturbed by gain
     * error and floor noise.
     */
    SaSweep sweep(const Trace &v_received);

    /**
     * Like sweep(), but drawing the noise key from a caller-provided
     * stream instead of the instrument's internal one. Const and
     * reentrant: concurrent measurements stay reproducible when each
     * caller seeds its own stream (e.g. from the measured kernel's
     * hash).
     */
    SaSweep sweep(const Trace &v_received, Rng &noise) const;

    /** Sweep number `sweep_index` of the given noise key. */
    SaSweep sweep(const Trace &v_received, std::uint64_t noise_key,
                  std::size_t sweep_index) const;

    /** Highest-level marker within a band of a sweep. */
    static SaMarker maxAmplitude(const SaSweep &sweep, double f_lo,
                                 double f_hi);

    /**
     * The paper's fitness statistic: perform n_samples sweeps of the
     * same signal (fresh measurement noise each), take the max
     * amplitude in [f_lo, f_hi] per sweep, and return the RMS of the
     * linear amplitudes converted back to dBm, along with the modal
     * peak frequency. Only the bins inside the band are drawn.
     */
    SaMarker averagedMaxAmplitude(const Trace &v_received, double f_lo,
                                  double f_hi, std::size_t n_samples);

    /**
     * Like averagedMaxAmplitude(), with the noise key drawn from a
     * caller-provided stream. Const and reentrant (see sweep()
     * overload).
     */
    SaMarker averagedMaxAmplitude(const Trace &v_received, double f_lo,
                                  double f_hi, std::size_t n_samples,
                                  Rng &noise) const;

    /** Like averagedMaxAmplitude(), for an explicit noise key. */
    SaMarker averagedMaxAmplitude(const Trace &v_received, double f_lo,
                                  double f_hi, std::size_t n_samples,
                                  std::uint64_t noise_key) const;

  private:
    SpectrumAnalyzerParams params_;
    Rng rng_;
};

} // namespace instruments
} // namespace emstress

#endif // EMSTRESS_INSTRUMENTS_SPECTRUM_ANALYZER_H
