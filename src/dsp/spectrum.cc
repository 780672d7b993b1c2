/**
 * @file
 * Spectrum computation implementation.
 */

#include "dsp/spectrum.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <map>
#include <mutex>
#include <utility>

#include "util/error.h"
#include "util/stats.h"

namespace emstress {
namespace dsp {

SpectrumPlan::SpectrumPlan(std::size_t n, WindowKind window)
    : n_(n), window_(makeWindow(window, n)),
      fft_(nextPowerOfTwo(std::max<std::size_t>(n, 2)))
{
    requireConfig(n >= 4, "computeSpectrum needs at least 4 samples");
    // Calibration: a sinusoid of peak amplitude A contributes
    // |X[k]| = A * n * gain / 2 in its bin, so RMS amplitude
    // A/sqrt(2) = |X[k]| * sqrt(2) / (n * gain). The gain sums the
    // window front to back, as coherentGain() does.
    double gain = 0.0;
    for (double w : window_)
        gain += w;
    gain /= static_cast<double>(n);
    scale_ = std::sqrt(2.0) / (static_cast<double>(n) * gain);
}

std::shared_ptr<const SpectrumPlan>
SpectrumPlan::shared(std::size_t n, WindowKind window)
{
    // Captures come in a handful of geometries. The cap only bounds
    // a caller that sweeps many lengths; plans in use stay alive
    // through their holders when the cache is emptied.
    constexpr std::size_t kMaxPlans = 32;
    static std::mutex mu;
    static std::map<std::pair<std::size_t, WindowKind>,
                    std::shared_ptr<const SpectrumPlan>>
        plans;
    const std::lock_guard<std::mutex> lock(mu);
    const auto key = std::make_pair(n, window);
    const auto it = plans.find(key);
    if (it != plans.end())
        return it->second;
    if (plans.size() >= kMaxPlans)
        plans.clear();
    auto plan = std::make_shared<const SpectrumPlan>(n, window);
    plans.emplace(key, plan);
    return plan;
}

void
SpectrumPlan::transform(std::span<double> buf) const
{
    requireSim(buf.size() == nfft(),
               "spectrum buffer must hold the zero-padded capture");
    const double mean = stats::mean(buf.first(n_));
    for (std::size_t i = 0; i < n_; ++i)
        buf[i] = (buf[i] - mean) * window_[i];
    std::fill(buf.begin() + static_cast<std::ptrdiff_t>(n_), buf.end(),
              0.0);
    fft_.transform(buf);
}

double
SpectrumPlan::amplitudeVrms(std::span<const double> buf,
                            std::size_t k) const
{
    // DC bin has no sqrt(2) RMS factor; it was removed anyway.
    if (k == 0)
        return 0.0;
    const std::complex<double> x = fft_.bin(buf, k);
    return std::sqrt(x.real() * x.real() + x.imag() * x.imag())
        * scale_;
}

BandPlan::BandPlan(std::size_t n, double sample_rate_hz, double f_lo,
                   double f_hi, WindowKind window)
    : plan_(SpectrumPlan::shared(n, window))
{
    requireConfig(sample_rate_hz > 0.0,
                  "band plan sample rate must be positive");
    df_ = sample_rate_hz / static_cast<double>(plan_->nfft());
    // Grid frequencies rise with k, so the band is one run of bins.
    const std::size_t half = plan_->nfft() / 2;
    while (first_ < half && freqHz(first_) < f_lo)
        ++first_;
    end_ = first_;
    while (end_ < half && !(freqHz(end_) > f_hi))
        ++end_;
}

Spectrum
computeSpectrum(const Trace &trace, WindowKind window)
{
    const auto plan = SpectrumPlan::shared(trace.size(), window);
    std::vector<double> buf(plan->nfft());
    std::copy(trace.samples().begin(), trace.samples().end(),
              buf.begin());
    plan->transform(buf);

    const std::size_t half = plan->nfft() / 2;
    const double df =
        trace.sampleRate() / static_cast<double>(plan->nfft());
    Spectrum out;
    out.freqs_hz.resize(half);
    out.amps_vrms.resize(half);
    for (std::size_t k = 0; k < half; ++k) {
        out.freqs_hz[k] = df * static_cast<double>(k);
        out.amps_vrms[k] = plan->amplitudeVrms(buf, k);
    }
    return out;
}

namespace {

/**
 * Parabolic refinement of a peak at bin k using its neighbours.
 * Returns the fractional bin offset in [-0.5, 0.5].
 */
double
parabolicOffset(const Spectrum &s, std::size_t k)
{
    if (k == 0 || k + 1 >= s.size())
        return 0.0;
    const double a = s.amps_vrms[k - 1];
    const double b = s.amps_vrms[k];
    const double c = s.amps_vrms[k + 1];
    const double denom = a - 2.0 * b + c;
    if (std::abs(denom) < 1e-30)
        return 0.0;
    double off = 0.5 * (a - c) / denom;
    return std::clamp(off, -0.5, 0.5);
}

} // namespace

Peak
maxPeakInBand(const Spectrum &spectrum, double f_lo, double f_hi)
{
    Peak best;
    bool found = false;
    for (std::size_t k = 0; k < spectrum.size(); ++k) {
        const double f = spectrum.freqs_hz[k];
        if (f < f_lo || f > f_hi)
            continue;
        if (!found || spectrum.amps_vrms[k] > best.amp_vrms) {
            best.bin = k;
            best.amp_vrms = spectrum.amps_vrms[k];
            found = true;
        }
    }
    if (!found)
        return Peak{};
    const double off = parabolicOffset(spectrum, best.bin);
    best.freq_hz = spectrum.freqs_hz[best.bin]
        + off * spectrum.binWidth();
    return best;
}

std::vector<Peak>
findPeaks(const Spectrum &spectrum, double f_lo, double f_hi,
          std::size_t max_peaks, double min_amp_vrms)
{
    std::vector<Peak> peaks;
    for (std::size_t k = 1; k + 1 < spectrum.size(); ++k) {
        const double f = spectrum.freqs_hz[k];
        if (f < f_lo || f > f_hi)
            continue;
        const double a = spectrum.amps_vrms[k];
        if (a <= min_amp_vrms)
            continue;
        if (a < spectrum.amps_vrms[k - 1]
            || a < spectrum.amps_vrms[k + 1]) {
            continue;
        }
        Peak p;
        p.bin = k;
        p.amp_vrms = a;
        p.freq_hz = f + parabolicOffset(spectrum, k) * spectrum.binWidth();
        peaks.push_back(p);
    }
    std::sort(peaks.begin(), peaks.end(),
              [](const Peak &x, const Peak &y) {
                  return x.amp_vrms > y.amp_vrms;
              });
    if (peaks.size() > max_peaks)
        peaks.resize(max_peaks);
    return peaks;
}

} // namespace dsp
} // namespace emstress
