/**
 * @file
 * Spectrum analyzer implementation.
 */

#include "instruments/spectrum_analyzer.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/error.h"
#include "util/metrics.h"
#include "util/units.h"

namespace emstress {
namespace instruments {

namespace {

/** Marker level of a band with no bins (SaMarker's default). */
const double kEmptyBandW = dbmToWatts(SaMarker{}.power_dbm);

/** The analyzer's measurement noise: every reading draws from it. */
class SweepNoise
{
  public:
    /** Noise of grid bins 2j and 2j+1 (index b = k & 1). */
    struct Pair
    {
        std::array<double, 2> gain;    ///< Power ratio.
        std::array<double, 2> floor_w; ///< Additive floor power.

        /** Displayed power [W] of bin b of the pair. */
        double
        watts(double signal_w, std::size_t b) const
        {
            return signal_w * gain[b] + floor_w[b];
        }
    };

    SweepNoise(const SpectrumAnalyzerParams &params,
               std::uint64_t key)
        : rng_(key),
          gain_ln_(params.gain_error_db * std::log(10.0) / 10.0),
          floor_w_(dbmToWatts(params.noise_floor_dbm)),
          // openUnitDouble never returns less than 2^-53, which caps
          // a Box–Muller radius at sqrt(106 ln 2) and an Exp(1) draw
          // at 53 ln 2. The relative pad covers libm rounding.
          gain_max_(std::exp(std::abs(gain_ln_)
                             * std::sqrt(106.0 * std::log(2.0)))),
          floor_max_w_(floor_w_ * 53.0 * std::log(2.0))
    {
    }

    /**
     * Noise of bin pair j in sweep `sweep`, from counter cell
     * (sweep, j): Box–Muller's two normals give the two bins' gain
     * ripples (log-normal in power, gain_error_db 1-sigma), and two
     * further words their floor powers. A Rayleigh-envelope floor's
     * power, 0.5·floor·(n1² + n2²), is exponential with mean floor,
     * so one log draws it.
     */
    Pair
    pair(std::size_t sweep, std::size_t j) const
    {
        CounterRng::Cell cell = rng_.cell(sweep, j);
        const std::array<double, 2> z = cell.normalPair();
        Pair out;
        for (std::size_t b = 0; b < 2; ++b) {
            out.gain[b] = std::exp(gain_ln_ * z[b]);
            out.floor_w[b] = floor_w_ * cell.exponential();
        }
        return out;
    }

    /** Displayed power [W] of grid bin k in sweep `sweep`. */
    double
    watts(double signal_w, std::size_t sweep, std::size_t k) const
    {
        return pair(sweep, k / 2).watts(signal_w, k & 1);
    }

    /**
     * An upper bound on every reading of a bin whose noiseless power
     * is signal_w, in any sweep. Monotone in signal_w.
     */
    double
    maxWatts(double signal_w) const
    {
        return (signal_w * gain_max_ + floor_max_w_) * (1.0 + 1e-9);
    }

  private:
    CounterRng rng_;
    double gain_ln_; ///< gain_error_db in natural-log power units.
    double floor_w_;
    double gain_max_;    ///< Largest gain any draw can produce.
    double floor_max_w_; ///< Largest floor power any draw can produce.
};

/** Append grid bin k to a band; bins must arrive contiguously. */
void
addBin(SaBand &band, std::size_t k, double f, double w)
{
    if (band.signal_w.empty())
        band.first_bin = k;
    requireSim(k == band.first_bin + band.size(),
               "band bins must be contiguous on the FFT grid");
    band.freq_hz.push_back(f);
    band.signal_w.push_back(w);
}

/** True when [lo, hi] holds f (the marker search's comparisons). */
bool
inSpan(double f, double lo, double hi)
{
    return !(f < lo || f > hi);
}

/** A sweep's band maximum in linear power. */
struct BandMax
{
    double watts = kEmptyBandW;
    double freq_hz = 0.0;
};

/**
 * A band's bins in the order the marker search draws them: strongest
 * noiseless power first, lower bin first on equal power. NaN bins are
 * left out; their readings are NaN and never win.
 */
std::vector<std::size_t>
strongestFirst(const SaBand &band)
{
    std::vector<std::size_t> order;
    order.reserve(band.size());
    for (std::size_t i = 0; i < band.size(); ++i)
        if (!std::isnan(band.signal_w[i]))
            order.push_back(i);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  const double wa = band.signal_w[a];
                  const double wb = band.signal_w[b];
                  return wa > wb || (wa == wb && a < b);
              });
    return order;
}

/**
 * One noisy sweep's band maximum: the highest reading, the lowest bin
 * on equal readings, and nothing unless a reading beats the empty
 * band's level. Readings are compared in watts (dBm is monotone in
 * them). Bins are drawn strongest first, and the search stops at the
 * first bin whose reading bound falls below the best reading so far:
 * every later bin's bound is lower still, so none of them can win.
 */
BandMax
sweepMax(const SaBand &band, const std::vector<std::size_t> &order,
         const SweepNoise &noise, std::size_t sweep)
{
    BandMax best;
    std::size_t best_i = 0;
    bool found = false;
    std::uint64_t drawn = 0;
    for (const std::size_t i : order) {
        const double s = band.signal_w[i];
        if (noise.maxWatts(s) < best.watts)
            break;
        const std::size_t k = band.first_bin + i;
        const double w = noise.pair(sweep, k / 2).watts(s, k & 1);
        ++drawn;
        if (w > best.watts || (found && w == best.watts && i < best_i)) {
            best.watts = w;
            best.freq_hz = band.freq_hz[i];
            best_i = i;
            found = true;
        }
    }
    auto &reg = metrics::Registry::instance();
    reg.add("instruments.sa.band_evals");
    reg.add("instruments.sa.noise_pairs_drawn", drawn);
    return best;
}

void
requireDisplayBins(bool any)
{
    requireSim(any, "sweep produced no bins inside the display span; "
                    "check sample rate versus f_start/f_stop");
}

} // namespace

double
saReadingWatts(const SpectrumAnalyzerParams &params,
               std::uint64_t noise_key, std::size_t sweep,
               std::size_t k, double signal_w)
{
    return SweepNoise(params, noise_key).watts(signal_w, sweep, k);
}

SaMarker
averagedBandMax(const SpectrumAnalyzerParams &params, const SaBand &band,
                std::size_t n_samples, std::uint64_t noise_key)
{
    requireConfig(n_samples >= 1, "need at least one sample");
    const SweepNoise noise(params, noise_key);
    const std::vector<std::size_t> order = strongestFirst(band);
    double sum_sq_w = 0.0;
    std::vector<double> freqs;
    freqs.reserve(n_samples);
    for (std::size_t i = 0; i < n_samples; ++i) {
        const BandMax m = sweepMax(band, order, noise, i);
        const double p_w = std::max(m.watts, 1e-30);
        sum_sq_w += p_w * p_w;
        freqs.push_back(m.freq_hz);
    }
    const double rms_w =
        std::sqrt(sum_sq_w / static_cast<double>(n_samples));
    // The median frequency is robust to occasional noise-floor wins
    // on weak signals.
    std::sort(freqs.begin(), freqs.end());
    SaMarker out;
    out.power_dbm = wattsToDbm(std::max(rms_w, 1e-30));
    out.freq_hz = freqs[freqs.size() / 2];
    return out;
}

SpectrumAnalyzer::SpectrumAnalyzer(const SpectrumAnalyzerParams &params,
                                   Rng rng)
    : params_(params), rng_(rng)
{
    requireConfig(params.f_stop_hz > params.f_start_hz,
                  "analyzer stop frequency must exceed start");
    requireConfig(params.ref_impedance > 0.0,
                  "reference impedance must be positive");
}

SaSweep
SpectrumAnalyzer::sweep(const Trace &v_received)
{
    return sweep(v_received, rng_);
}

SaSweep
SpectrumAnalyzer::sweep(const Trace &v_received, Rng &noise) const
{
    return sweep(v_received, noise.bits(), 0);
}

SaSweep
SpectrumAnalyzer::sweep(const Trace &v_received,
                        std::uint64_t noise_key,
                        std::size_t sweep_index) const
{
    metrics::Registry::instance().add("instruments.sa.sweeps");
    const auto spec = dsp::computeSpectrum(v_received, params_.window);
    const SweepNoise noise(params_, noise_key);
    SaSweep out;
    for (std::size_t k = 0; k < spec.size(); ++k) {
        const double f = spec.freqs_hz[k];
        if (!inSpan(f, params_.f_start_hz, params_.f_stop_hz))
            continue;
        const double signal_w =
            voltsRmsToWatts(spec.amps_vrms[k], params_.ref_impedance);
        const double p_w = noise.watts(signal_w, sweep_index, k);
        out.freqs_hz.push_back(f);
        out.power_dbm.push_back(wattsToDbm(std::max(p_w, 1e-30)));
    }
    requireDisplayBins(!out.freqs_hz.empty());
    return out;
}

SaMarker
SpectrumAnalyzer::maxAmplitude(const SaSweep &sweep, double f_lo,
                               double f_hi)
{
    SaMarker best;
    for (std::size_t k = 0; k < sweep.size(); ++k) {
        const double f = sweep.freqs_hz[k];
        if (!inSpan(f, f_lo, f_hi))
            continue;
        if (sweep.power_dbm[k] > best.power_dbm) {
            best.power_dbm = sweep.power_dbm[k];
            best.freq_hz = f;
        }
    }
    return best;
}

SaMarker
SpectrumAnalyzer::averagedMaxAmplitude(const Trace &v_received,
                                       double f_lo, double f_hi,
                                       std::size_t n_samples)
{
    return averagedMaxAmplitude(v_received, f_lo, f_hi, n_samples,
                                rng_);
}

SaMarker
SpectrumAnalyzer::averagedMaxAmplitude(const Trace &v_received,
                                       double f_lo, double f_hi,
                                       std::size_t n_samples,
                                       Rng &noise) const
{
    return averagedMaxAmplitude(v_received, f_lo, f_hi, n_samples,
                                noise.bits());
}

SaMarker
SpectrumAnalyzer::averagedMaxAmplitude(const Trace &v_received,
                                       double f_lo, double f_hi,
                                       std::size_t n_samples,
                                       std::uint64_t noise_key) const
{
    requireConfig(n_samples >= 1, "need at least one sample");
    // The underlying signal is unchanged between the N sweeps; only
    // measurement noise varies, so transform the capture once.
    SaBandDetector det(params_, v_received.size(),
                       v_received.sampleRate(), f_lo, f_hi);
    for (double v : v_received.samples())
        det.push(v);
    det.finish();
    return det.averagedMaxAmplitude(n_samples, noise_key);
}

SaBandDetector::SaBandDetector(const SpectrumAnalyzerParams &params,
                               std::size_t n_in, double sample_rate_hz,
                               double f_lo, double f_hi)
    : SaBandDetector(params,
                     dsp::BandPlan(n_in, sample_rate_hz, f_lo, f_hi,
                                   params.window),
                     f_lo, f_hi)
{
}

SaBandDetector::SaBandDetector(const SpectrumAnalyzerParams &params,
                               const dsp::BandPlan &plan, double f_lo,
                               double f_hi)
    : params_(params), f_lo_(f_lo), f_hi_(f_hi), plan_(plan)
{
    requireConfig(params.f_stop_hz > params.f_start_hz,
                  "analyzer stop frequency must exceed start");
    requireConfig(params.ref_impedance > 0.0,
                  "reference impedance must be positive");
    buf_.reserve(plan_.spectrum().nfft());
}

void
SaBandDetector::finish()
{
    requireSim(buf_.size() == plan_.inputSize(),
               "band detector was fed a capture of the wrong length");
    buf_.resize(plan_.spectrum().nfft());
    plan_.spectrum().transform(buf_);
    finished_ = true;
}

SaBand
SaBandDetector::band() const
{
    requireSim(finished_, "band detector read before finish()");
    const dsp::SpectrumPlan &spec = plan_.spectrum();
    // Like a full sweep, require the display span to hold a grid bin.
    bool displayed = false;
    for (std::size_t k = 0; k < spec.nfft() / 2; ++k) {
        const double f = plan_.freqHz(k);
        if (f > params_.f_stop_hz)
            break;
        if (f >= params_.f_start_hz) {
            displayed = true;
            break;
        }
    }
    requireDisplayBins(displayed);
    SaBand band;
    for (std::size_t k = plan_.firstBin(); k < plan_.endBin(); ++k) {
        const double f = plan_.freqHz(k);
        if (inSpan(f, params_.f_start_hz, params_.f_stop_hz)
            && inSpan(f, f_lo_, f_hi_))
            addBin(band, k, f,
                   voltsRmsToWatts(spec.amplitudeVrms(buf_, k),
                                   params_.ref_impedance));
    }
    return band;
}

SaMarker
SaBandDetector::averagedMaxAmplitude(std::size_t n_samples,
                                     std::uint64_t noise_key) const
{
    return averagedBandMax(params_, band(), n_samples, noise_key);
}

SaMarker
SaBandDetector::averagedMaxAmplitude(std::size_t n_samples,
                                     Rng &noise) const
{
    return averagedMaxAmplitude(n_samples, noise.bits());
}

} // namespace instruments
} // namespace emstress
