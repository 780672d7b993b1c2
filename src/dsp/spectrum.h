/**
 * @file
 * Power-spectrum computation and peak analysis over Traces. This is
 * the math layer underneath the SpectrumAnalyzer instrument model and
 * the FFT view of the on-chip DSO.
 */

#ifndef EMSTRESS_DSP_SPECTRUM_H
#define EMSTRESS_DSP_SPECTRUM_H

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "dsp/fft.h"
#include "dsp/window.h"
#include "util/trace.h"

namespace emstress {
namespace dsp {

/**
 * A one-sided amplitude spectrum: bin frequencies plus the RMS
 * amplitude (volts) of the signal content at each bin.
 */
struct Spectrum
{
    std::vector<double> freqs_hz;  ///< Bin center frequencies.
    std::vector<double> amps_vrms; ///< Calibrated RMS amplitude per bin.

    /** Number of bins. */
    std::size_t size() const { return freqs_hz.size(); }

    /** Frequency spacing between adjacent bins. @pre size() >= 2. */
    double binWidth() const { return freqs_hz[1] - freqs_hz[0]; }
};

/** A located spectral peak. */
struct Peak
{
    double freq_hz = 0.0;   ///< Interpolated peak frequency.
    double amp_vrms = 0.0;  ///< Peak RMS amplitude.
    std::size_t bin = 0;    ///< Index of the hosting bin.
};

/**
 * The fixed part of computeSpectrum() for one capture geometry: the
 * window and its calibration for n samples, and the real FFT of the
 * zero-padded length. Everything here depends on (n, window) only,
 * so one plan serves every capture of that length, whatever its
 * sample rate or band.
 */
class SpectrumPlan
{
  public:
    /** @throws ConfigError when n < 4. */
    SpectrumPlan(std::size_t n, WindowKind window);

    /**
     * The process-wide plan for (n, window), built on first use and
     * shared by every caller after that. Thread-safe.
     */
    static std::shared_ptr<const SpectrumPlan> shared(std::size_t n,
                                                      WindowKind window);

    /** Samples per capture. */
    std::size_t inputSize() const { return n_; }

    /** Zero-padded transform length (the bin grid is rate / nfft). */
    std::size_t nfft() const { return fft_.size(); }

    /**
     * Transform a capture in place: `buf` holds nfft() values, the
     * inputSize() samples followed by padding of any content. The
     * samples are mean-removed, windowed and zero-padded first.
     */
    void transform(std::span<double> buf) const;

    /**
     * Calibrated RMS amplitude of one-sided bin k < nfft() / 2 of a
     * transformed buffer. Bin 0 reads 0: the mean was removed.
     */
    double amplitudeVrms(std::span<const double> buf,
                         std::size_t k) const;

  private:
    std::size_t n_;
    std::vector<double> window_;
    double scale_; ///< sqrt(2) / (n * coherent gain).
    RealFft fft_;
};

/**
 * A band detector's view of a capture geometry: the shared transform
 * plan for n samples, the bin spacing at the sample rate, and the
 * FFT-grid bins inside [f_lo, f_hi] (the comparisons maxPeakInBand
 * makes). Cheap to build once the geometry's plan exists.
 */
class BandPlan
{
  public:
    BandPlan(std::size_t n, double sample_rate_hz, double f_lo,
             double f_hi, WindowKind window);

    /** The shared transform plan. */
    const SpectrumPlan &spectrum() const { return *plan_; }

    /** Samples per capture. */
    std::size_t inputSize() const { return plan_->inputSize(); }

    /** Grid frequency of bin k [Hz]. */
    double
    freqHz(std::size_t k) const
    {
        return df_ * static_cast<double>(k);
    }

    /** First grid bin inside the band. */
    std::size_t firstBin() const { return first_; }

    /** One past the last grid bin inside the band. */
    std::size_t endBin() const { return end_; }

  private:
    std::shared_ptr<const SpectrumPlan> plan_;
    double df_;
    std::size_t first_ = 0;
    std::size_t end_ = 0;
};

/**
 * Compute the one-sided amplitude spectrum of a trace.
 *
 * The trace is mean-removed (spectrum analyzers are AC coupled for
 * this purpose), windowed, zero-padded to a power of two, transformed,
 * and calibrated: a pure sinusoid of RMS amplitude A yields a bin with
 * amps_vrms == A regardless of the window.
 *
 * @param trace  Input signal.
 * @param window Window shape for leakage control.
 */
Spectrum computeSpectrum(const Trace &trace,
                         WindowKind window = WindowKind::Hann);

/**
 * Find the single strongest peak within [f_lo, f_hi]. Peak frequency
 * is refined with quadratic (parabolic) interpolation over the
 * neighbouring bins.
 * @return Peak with amp_vrms == 0 when the band holds no bins.
 */
Peak maxPeakInBand(const Spectrum &spectrum, double f_lo, double f_hi);

/**
 * Find up to max_peaks local maxima in [f_lo, f_hi] sorted by
 * descending amplitude. A bin qualifies when it exceeds both
 * neighbours and min_amp_vrms.
 */
std::vector<Peak> findPeaks(const Spectrum &spectrum, double f_lo,
                            double f_hi, std::size_t max_peaks,
                            double min_amp_vrms = 0.0);

} // namespace dsp
} // namespace emstress

#endif // EMSTRESS_DSP_SPECTRUM_H
