/**
 * @file
 * Exhaustive oracle for the spectrum analyzer's band marker. The
 * production search draws a band's bins strongest first and stops as
 * soon as no remaining bin can beat the best reading; this oracle
 * draws every bin of every sweep in ascending frequency and keeps the
 * strictly greater reading, as the analyzer did before it pruned.
 * The two must agree bit for bit, in dBm and in frequency.
 */

#ifndef EMSTRESS_TESTS_SA_BAND_ORACLE_H
#define EMSTRESS_TESTS_SA_BAND_ORACLE_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "dsp/spectrum.h"
#include "instruments/spectrum_analyzer.h"
#include "util/trace.h"
#include "util/units.h"

namespace emstress {
namespace instruments {

/** RMS of n_samples exhaustive sweeps' band maxima. */
inline SaMarker
exhaustiveBandMax(const SpectrumAnalyzerParams &params,
                  const SaBand &band, std::size_t n_samples,
                  std::uint64_t noise_key)
{
    double sum_sq_w = 0.0;
    std::vector<double> freqs;
    for (std::size_t s = 0; s < n_samples; ++s) {
        double best_w = dbmToWatts(SaMarker{}.power_dbm);
        double best_f = 0.0;
        for (std::size_t i = 0; i < band.size(); ++i) {
            const double w =
                saReadingWatts(params, noise_key, s,
                               band.first_bin + i, band.signal_w[i]);
            if (w > best_w) {
                best_w = w;
                best_f = band.freq_hz[i];
            }
        }
        const double p_w = std::max(best_w, 1e-30);
        sum_sq_w += p_w * p_w;
        freqs.push_back(best_f);
    }
    std::sort(freqs.begin(), freqs.end());
    SaMarker out;
    out.power_dbm = wattsToDbm(std::max(
        std::sqrt(sum_sq_w / static_cast<double>(n_samples)), 1e-30));
    out.freq_hz = freqs[n_samples / 2];
    return out;
}

/**
 * The displayed bins of a capture inside [f_lo, f_hi], built from the
 * batch spectrum the way SpectrumAnalyzer::averagedMaxAmplitude
 * selects them.
 */
inline SaBand
bandOf(const SpectrumAnalyzerParams &params, const Trace &capture,
       double f_lo, double f_hi)
{
    const auto spec = dsp::computeSpectrum(capture, params.window);
    SaBand band;
    for (std::size_t k = 0; k < spec.size(); ++k) {
        const double f = spec.freqs_hz[k];
        if (f < params.f_start_hz || f > params.f_stop_hz || f < f_lo
            || f > f_hi)
            continue;
        if (band.signal_w.empty())
            band.first_bin = k;
        band.freq_hz.push_back(f);
        band.signal_w.push_back(
            voltsRmsToWatts(spec.amps_vrms[k], params.ref_impedance));
    }
    return band;
}

} // namespace instruments
} // namespace emstress

#endif // EMSTRESS_TESTS_SA_BAND_ORACLE_H
