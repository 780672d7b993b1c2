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

/**
 * The analyzer's measurement noise: the one source both the FFT and
 * the Goertzel paths draw readings from.
 */
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
          floor_w_(dbmToWatts(params.noise_floor_dbm))
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

  private:
    CounterRng rng_;
    double gain_ln_; ///< gain_error_db in natural-log power units.
    double floor_w_;
};

/**
 * The displayed in-band bins of one capture: a contiguous run of
 * FFT-grid indices [first, first + size()).
 */
struct BandBins
{
    std::size_t first = 0;
    std::vector<double> freq_hz;
    std::vector<double> signal_w; ///< Noiseless power [W].

    std::size_t size() const { return signal_w.size(); }

    void
    add(std::size_t k, double f, double w)
    {
        if (signal_w.empty())
            first = k;
        requireSim(k == first + size(),
                   "band bins must be contiguous on the FFT grid");
        freq_hz.push_back(f);
        signal_w.push_back(w);
    }
};

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
 * One noisy sweep's strict-greater band maximum, in ascending
 * frequency. Readings are compared in watts (dBm is monotone in
 * them), and each bin pair's noise is drawn once.
 */
BandMax
sweepMax(const BandBins &bins, const SweepNoise &noise,
         std::size_t sweep)
{
    metrics::Registry::instance().add("instruments.sa.band_evals");
    BandMax best;
    const std::size_t end = bins.first + bins.size();
    for (std::size_t k = bins.first & ~std::size_t{1}; k < end;
         k += 2) {
        const SweepNoise::Pair p = noise.pair(sweep, k / 2);
        for (std::size_t b = 0; b < 2; ++b) {
            if (k + b < bins.first || k + b >= end)
                continue;
            const std::size_t i = k + b - bins.first;
            const double w = p.watts(bins.signal_w[i], b);
            if (w > best.watts) {
                best.watts = w;
                best.freq_hz = bins.freq_hz[i];
            }
        }
    }
    return best;
}

SaMarker
toMarker(const BandMax &m)
{
    SaMarker out;
    out.freq_hz = m.freq_hz;
    out.power_dbm = wattsToDbm(std::max(m.watts, 1e-30));
    return out;
}

/**
 * RMS of n_samples sweeps' band maxima, in dBm, with the median
 * marker frequency: the median is robust to occasional noise-floor
 * wins on weak signals.
 */
SaMarker
averagedBandMax(const BandBins &bins, const SweepNoise &noise,
                std::size_t n_samples)
{
    requireConfig(n_samples >= 1, "need at least one sample");
    double sum_sq_w = 0.0;
    std::vector<double> freqs;
    freqs.reserve(n_samples);
    for (std::size_t i = 0; i < n_samples; ++i) {
        const BandMax m = sweepMax(bins, noise, i);
        const double p_w = std::max(m.watts, 1e-30);
        sum_sq_w += p_w * p_w;
        freqs.push_back(m.freq_hz);
    }
    const double rms_w =
        std::sqrt(sum_sq_w / static_cast<double>(n_samples));
    std::sort(freqs.begin(), freqs.end());
    SaMarker out;
    out.power_dbm = wattsToDbm(std::max(rms_w, 1e-30));
    out.freq_hz = freqs[freqs.size() / 2];
    return out;
}

void
requireDisplayBins(bool any)
{
    requireSim(any, "sweep produced no bins inside the display span; "
                    "check sample rate versus f_start/f_stop");
}

/**
 * The displayed in-band bins of a Goertzel capture: the bank's bins
 * (on the FFT grid f_k = df·k, as computeSpectrum()'s) that also lie
 * inside the display span. Checks, like a full sweep, that the
 * display span holds at least one grid bin.
 */
BandBins
goertzelBandBins(const SpectrumAnalyzerParams &params,
                 const dsp::GoertzelBank &bank,
                 const dsp::GoertzelAccumulator &acc, double f_lo,
                 double f_hi)
{
    const double df = bank.binWidthHz();
    bool displayed = false;
    for (std::size_t k = 0; k < bank.nfft() / 2; ++k) {
        const double f = df * static_cast<double>(k);
        if (f > params.f_stop_hz)
            break;
        if (f >= params.f_start_hz) {
            displayed = true;
            break;
        }
    }
    requireDisplayBins(displayed);

    const std::vector<double> amps = acc.amplitudesVrms();
    BandBins bins;
    for (std::size_t i = 0; i < bank.size(); ++i) {
        const std::size_t k = bank.binIndex(i);
        const double f = df * static_cast<double>(k);
        if (inSpan(f, params.f_start_hz, params.f_stop_hz)
            && inSpan(f, f_lo, f_hi))
            bins.add(k, f,
                     voltsRmsToWatts(amps[i], params.ref_impedance));
    }
    return bins;
}

} // namespace

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
    // measurement noise varies, so compute the spectrum once.
    const auto spec = dsp::computeSpectrum(v_received, params_.window);
    bool displayed = false;
    BandBins bins;
    for (std::size_t k = 0; k < spec.size(); ++k) {
        const double f = spec.freqs_hz[k];
        if (!inSpan(f, params_.f_start_hz, params_.f_stop_hz))
            continue;
        displayed = true;
        if (inSpan(f, f_lo, f_hi))
            bins.add(k, f,
                     voltsRmsToWatts(spec.amps_vrms[k],
                                     params_.ref_impedance));
    }
    requireDisplayBins(displayed);
    return averagedBandMax(bins, SweepNoise(params_, noise_key),
                           n_samples);
}

SaBandDetector::SaBandDetector(const SpectrumAnalyzerParams &params,
                               std::size_t n_in, double sample_rate_hz,
                               double f_lo, double f_hi)
    : params_(params), f_lo_(f_lo), f_hi_(f_hi),
      owned_bank_(std::in_place, n_in, sample_rate_hz, f_lo, f_hi,
                  params.window),
      bank_(*owned_bank_), goertzel_(bank_)
{
    requireConfig(params.f_stop_hz > params.f_start_hz,
                  "analyzer stop frequency must exceed start");
    requireConfig(params.ref_impedance > 0.0,
                  "reference impedance must be positive");
}

SaBandDetector::SaBandDetector(const SpectrumAnalyzerParams &params,
                               const dsp::GoertzelBank &bank,
                               double f_lo, double f_hi)
    : params_(params), f_lo_(f_lo), f_hi_(f_hi), bank_(bank),
      goertzel_(bank_)
{
    requireConfig(params.f_stop_hz > params.f_start_hz,
                  "analyzer stop frequency must exceed start");
    requireConfig(params.ref_impedance > 0.0,
                  "reference impedance must be positive");
}

SaMarker
SaBandDetector::maxAmplitude(Rng &noise) const
{
    const BandBins bins =
        goertzelBandBins(params_, bank_, goertzel_, f_lo_, f_hi_);
    return toMarker(
        sweepMax(bins, SweepNoise(params_, noise.bits()), 0));
}

SaMarker
SaBandDetector::averagedMaxAmplitude(std::size_t n_samples,
                                     std::uint64_t noise_key) const
{
    return averagedBandMax(
        goertzelBandBins(params_, bank_, goertzel_, f_lo_, f_hi_),
        SweepNoise(params_, noise_key), n_samples);
}

SaMarker
SaBandDetector::averagedMaxAmplitude(std::size_t n_samples,
                                     Rng &noise) const
{
    return averagedMaxAmplitude(n_samples, noise.bits());
}

} // namespace instruments
} // namespace emstress
