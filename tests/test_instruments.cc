/**
 * @file
 * Tests for the instrument models: spectrum analyzer, oscilloscope
 * and SCL.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "instruments/oscilloscope.h"
#include "instruments/scl.h"
#include "instruments/spectrum_analyzer.h"
#include "sa_band_oracle.h"
#include "util/error.h"
#include "util/stats.h"
#include "util/units.h"

namespace emstress {
namespace instruments {
namespace {

Trace
sineTrace(double freq, double amp, double fs, std::size_t n,
          double dc = 0.0)
{
    Trace t(1.0 / fs);
    t.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        t.push(dc
               + amp
                   * std::sin(kTwoPi * freq * static_cast<double>(i)
                              / fs));
    }
    return t;
}

TEST(SpectrumAnalyzer, SweepLevelsMatchInputPower)
{
    // -30 dBm into 50 ohm is 10 mW? No: -30 dBm = 1 uW -> Vrms =
    // sqrt(1e-6 * 50) = 7.07 mV -> peak 10 mV.
    SpectrumAnalyzerParams params;
    SpectrumAnalyzer sa(params, Rng(1));
    const double vrms_target = std::sqrt(1e-6 * params.ref_impedance);
    const auto t =
        sineTrace(67e6, vrms_target * std::sqrt(2.0), 4e9, 16384);
    const auto sweep = sa.sweep(t);
    const auto m = SpectrumAnalyzer::maxAmplitude(sweep, 50e6, 90e6);
    // The tone sits d = 0.43 bins off the FFT grid, where the Hann
    // window reads it low by its scalloping loss (-1.06 dB):
    // amplitude sin(pi d) / (pi d) / (1 - d^2).
    const double bins = 67e6 / (4e9 / 16384);
    const double d = bins - std::round(bins);
    const double scallop_db = 20.0
        * std::log10(std::sin(kPi * d) / (kPi * d) / (1.0 - d * d));
    EXPECT_NEAR(m.power_dbm, -30.0 + scallop_db, 1.5);
    EXPECT_NEAR(m.freq_hz, 67e6, 4e9 / 16384 * 2);
}

TEST(SpectrumAnalyzer, NoiseFloorBoundsQuietSweep)
{
    SpectrumAnalyzerParams params;
    SpectrumAnalyzer sa(params, Rng(2));
    // A tiny signal far below the floor.
    const auto t = sineTrace(67e6, 1e-9, 4e9, 8192);
    const auto sweep = sa.sweep(t);
    const double mean_dbm = stats::mean(sweep.power_dbm);
    EXPECT_NEAR(mean_dbm, params.noise_floor_dbm, 4.0);
}

Trace
zeroTrace(double fs, std::size_t n)
{
    Trace t(1.0 / fs);
    for (std::size_t i = 0; i < n; ++i)
        t.push(0.0);
    return t;
}

TEST(SpectrumAnalyzer, ZeroSignalSweepSitsAtTheNoiseFloor)
{
    // Calibration: with no signal a reading is floor power alone,
    // exponential with mean DANL. So the mean linear power is the
    // -97 dBm DANL and the median reading sits at DANL + 10
    // log10(ln 2) = -98.59 dBm. Over 30 sweeps x 1004 bins the
    // standard errors are 0.025 dB and 0.036 dB.
    const SpectrumAnalyzerParams params;
    const SpectrumAnalyzer sa(params, Rng(6));
    const Trace t = zeroTrace(4e9, 8192);
    std::vector<double> dbm;
    double sum_w = 0.0;
    for (std::size_t s = 0; s < 30; ++s) {
        for (const double p : sa.sweep(t, 0x51ull, s).power_dbm) {
            dbm.push_back(p);
            sum_w += dbmToWatts(p);
        }
    }
    const double mean_dbm =
        wattsToDbm(sum_w / static_cast<double>(dbm.size()));
    EXPECT_NEAR(mean_dbm, params.noise_floor_dbm, 0.15);
    EXPECT_NEAR(stats::percentile(dbm, 50.0),
                params.noise_floor_dbm
                    + 10.0 * std::log10(std::log(2.0)),
                0.2);
}

TEST(SpectrumAnalyzerCanary, KeyedReadingsArePinned)
{
    // Cross-host canary for the counter-keyed measurement noise
    // (see RngCanary in test_util.cc for the draws underneath).
    const SpectrumAnalyzer sa(SpectrumAnalyzerParams{}, Rng(1));
    const auto floor = sa.sweep(zeroTrace(4e9, 4096), 0x51ull, 1);
    EXPECT_DOUBLE_EQ(floor.freqs_hz[0], 10742187.5);
    EXPECT_EQ(floor.power_dbm[0], -0x1.92cc2a6be6fcep+6);
    EXPECT_EQ(floor.power_dbm[1], -0x1.a6ae703a656adp+6);
    EXPECT_EQ(floor.power_dbm[2], -0x1.ac3129143724fp+6);

    // A 125 MHz pulse train built without libm, on the grid.
    Trace pulses(1.0 / 4e9);
    for (std::size_t i = 0; i < 4096; ++i)
        pulses.push(i % 32 == 0 ? 1e-3 : 0.0);
    const auto m = sa.averagedMaxAmplitude(pulses, 50e6, 200e6, 3,
                                           0x51ull);
    EXPECT_DOUBLE_EQ(m.freq_hz, 125e6);
    EXPECT_EQ(m.power_dbm, -0x1.283dbd1deecbdp+6);
}

/** Expect the pruned marker to equal the exhaustive one, bit for bit. */
void
expectPrunedMatchesExhaustive(const SpectrumAnalyzerParams &params,
                              const SaBand &band, std::uint64_t key,
                              const char *what)
{
    for (const std::size_t n : {1u, 30u}) {
        const SaMarker want = exhaustiveBandMax(params, band, n, key);
        const SaMarker got = averagedBandMax(params, band, n, key);
        EXPECT_EQ(got.power_dbm, want.power_dbm) << what << " n=" << n;
        EXPECT_EQ(got.freq_hz, want.freq_hz) << what << " n=" << n;
    }
}

/** A band of `size` bins from grid index `first`, 1 MHz apart. */
SaBand
syntheticBand(std::size_t first, std::size_t size, double signal_w)
{
    SaBand band;
    band.first_bin = first;
    for (std::size_t i = 0; i < size; ++i) {
        band.freq_hz.push_back(1e6 * static_cast<double>(first + i));
        band.signal_w.push_back(signal_w);
    }
    return band;
}

/** Log-uniform powers from far below to far above the floor. */
void
randomizePowers(SaBand &band, Rng &rng)
{
    for (double &w : band.signal_w)
        w = std::pow(10.0, rng.uniform(-17.0, -6.0));
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(SaBandPruning, AllFloorBandMatchesExhaustiveSearch)
{
    const SpectrumAnalyzerParams params;
    expectPrunedMatchesExhaustive(params, syntheticBand(40, 600, 0.0),
                                  0x51ull, "zero signal");
}

TEST(SaBandPruning, EqualReadingsGoToTheLowestBin)
{
    // No gain ripple and no floor: every reading is its bin's signal
    // power exactly, so equal powers tie in every sweep.
    SpectrumAnalyzerParams params;
    params.gain_error_db = 0.0;
    params.noise_floor_dbm = -kInf;
    SaBand flat = syntheticBand(41, 50, 1e-9);
    expectPrunedMatchesExhaustive(params, flat, 3, "flat");
    EXPECT_EQ(averagedBandMax(params, flat, 5, 3).freq_hz, 41e6);

    SaBand twin = flat;
    twin.signal_w[17] = 1e-6;
    twin.signal_w[5] = 1e-6;
    expectPrunedMatchesExhaustive(params, twin, 3, "twin peaks");
    EXPECT_EQ(averagedBandMax(params, twin, 5, 3).freq_hz, 46e6);

    // With the default noise, equal signals still read differently.
    expectPrunedMatchesExhaustive(SpectrumAnalyzerParams{}, twin, 3,
                                  "twin peaks, noisy");

    // A power just below DBL_MAX reads +inf whenever its gain ripple
    // tops ~1.03, tying with a truly infinite bin above it that the
    // search draws first: the lower bin must still win those sweeps.
    SaBand overflow = syntheticBand(60, 12, 1e-9);
    overflow.signal_w[2] = 1.75e308;
    overflow.signal_w[9] = kInf;
    std::size_t lower_won = 0;
    for (std::uint64_t key = 1; key <= 16; ++key) {
        expectPrunedMatchesExhaustive(SpectrumAnalyzerParams{}, overflow,
                                      key, "overflow tie");
        const SaMarker m =
            averagedBandMax(SpectrumAnalyzerParams{}, overflow, 1, key);
        EXPECT_EQ(m.power_dbm, kInf);
        lower_won += m.freq_hz == 62e6;
    }
    EXPECT_GT(lower_won, 0u);
}

TEST(SaBandPruning, OneBinAndSplitPairBandsMatchExhaustiveSearch)
{
    // Odd and even first and last bins: a noise pair (2j, 2j+1) may
    // straddle either band edge.
    const SpectrumAnalyzerParams params;
    Rng rng(9);
    for (const std::size_t first : {100u, 101u}) {
        for (const std::size_t size : {1u, 2u, 3u, 64u, 65u}) {
            SaBand band = syntheticBand(first, size, 0.0);
            for (int trial = 0; trial < 8; ++trial) {
                randomizePowers(band, rng);
                expectPrunedMatchesExhaustive(params, band, rng.bits(),
                                              "split pair");
            }
        }
    }
}

TEST(SaBandPruning, NanAndInfiniteBinsMatchExhaustiveSearch)
{
    // A diverging transient feeds NaN and infinite powers through:
    // NaN never wins, and the first of several infinities does.
    const SpectrumAnalyzerParams params;
    Rng rng(10);
    SaBand band = syntheticBand(300, 200, 0.0);
    const double specials[] = {kNaN, kInf, -kInf};
    for (int trial = 0; trial < 24; ++trial) {
        randomizePowers(band, rng);
        for (int j = 0; j < 1 + trial % 4; ++j)
            band.signal_w[static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<int>(band.size()) - 1))] =
                specials[rng.uniformInt(0, 2)];
        expectPrunedMatchesExhaustive(params, band, rng.bits(),
                                      "specials");
    }
    std::fill(band.signal_w.begin(), band.signal_w.end(), kNaN);
    expectPrunedMatchesExhaustive(params, band, 1, "all NaN");
    EXPECT_EQ(averagedBandMax(params, band, 3, 1).power_dbm,
              SaMarker{}.power_dbm);
}

TEST(SaBandPruning, TraceMarkersMatchExhaustiveSearch)
{
    const SpectrumAnalyzer sa(SpectrumAnalyzerParams{}, Rng(1));
    const Trace traces[] = {sineTrace(67e6, 0.01, 4e9, 16000),
                            sineTrace(76e6, 1e-7, 4e9, 16000),
                            zeroTrace(4e9, 16000)};
    for (const Trace &t : traces) {
        const SaBand band = bandOf(sa.params(), t, 50e6, 200e6);
        const SaMarker want =
            exhaustiveBandMax(sa.params(), band, 30, 0x77ull);
        const SaMarker got =
            sa.averagedMaxAmplitude(t, 50e6, 200e6, 30, 0x77ull);
        EXPECT_EQ(got.power_dbm, want.power_dbm);
        EXPECT_EQ(got.freq_hz, want.freq_hz);
    }
}

TEST(SpectrumAnalyzer, SpanFiltersBins)
{
    SpectrumAnalyzerParams params;
    params.f_start_hz = 40e6;
    params.f_stop_hz = 100e6;
    SpectrumAnalyzer sa(params, Rng(3));
    const auto sweep = sa.sweep(sineTrace(67e6, 0.01, 4e9, 8192));
    for (double f : sweep.freqs_hz) {
        EXPECT_GE(f, 40e6);
        EXPECT_LE(f, 100e6);
    }
}

TEST(SpectrumAnalyzer, AveragedMeasurementTighterThanSingle)
{
    // The 30-sample RMS statistic has far lower spread than a single
    // sweep (that's its purpose in the GA, Section 3.1).
    SpectrumAnalyzerParams params;
    params.gain_error_db = 1.0;
    SpectrumAnalyzer sa(params, Rng(4));
    const auto t = sineTrace(67e6, 0.01, 4e9, 8192);

    std::vector<double> singles, averaged;
    for (int i = 0; i < 24; ++i) {
        singles.push_back(
            SpectrumAnalyzer::maxAmplitude(sa.sweep(t), 50e6, 90e6)
                .power_dbm);
        averaged.push_back(
            sa.averagedMaxAmplitude(t, 50e6, 90e6, 30).power_dbm);
    }
    EXPECT_LT(stats::stddev(averaged), stats::stddev(singles));
}

TEST(SpectrumAnalyzer, AveragedMarkerFindsDominantFrequency)
{
    SpectrumAnalyzer sa(SpectrumAnalyzerParams{}, Rng(5));
    const auto t = sineTrace(76e6, 0.02, 4e9, 16384);
    const auto m = sa.averagedMaxAmplitude(t, 50e6, 200e6, 10);
    EXPECT_NEAR(m.freq_hz, 76e6, 4e9 / 16384.0 * 2);
}

TEST(SpectrumAnalyzer, ValidatesConfig)
{
    SpectrumAnalyzerParams bad;
    bad.f_stop_hz = bad.f_start_hz;
    EXPECT_THROW(SpectrumAnalyzer sa(bad, Rng(1)), ConfigError);

    SpectrumAnalyzer sa(SpectrumAnalyzerParams{}, Rng(1));
    const auto t = sineTrace(67e6, 0.01, 4e9, 4096);
    EXPECT_THROW((void)sa.averagedMaxAmplitude(t, 50e6, 90e6, 0),
                 ConfigError);
}

TEST(Oscilloscope, CapturePreservesWaveformShape)
{
    Oscilloscope scope(ocDsoParams(), Rng(7));
    const auto t = sineTrace(10e6, 0.05, 4e9, 40000, 1.0);
    const auto cap = scope.capture(t);
    EXPECT_DOUBLE_EQ(cap.dt(), 1.0 / ocDsoParams().sample_rate_hz);
    // 10 MHz passes the 700 MHz front end unattenuated.
    EXPECT_NEAR(Oscilloscope::peakToPeak(cap), 0.10, 0.012);
    EXPECT_NEAR(stats::mean(cap.samples()), 1.0, 0.01);
}

TEST(Oscilloscope, BandwidthAttenuatesFastSignals)
{
    auto params = ocDsoParams();
    params.bandwidth_hz = 100e6;
    Oscilloscope scope(params, Rng(8));
    const auto slow = scope.capture(sineTrace(10e6, 0.05, 4e9, 40000));
    const auto fast =
        scope.capture(sineTrace(400e6, 0.05, 4e9, 40000));
    EXPECT_LT(Oscilloscope::peakToPeak(fast),
              0.5 * Oscilloscope::peakToPeak(slow));
}

TEST(Oscilloscope, QuantizationStepMatchesBits)
{
    auto params = ocDsoParams();
    params.noise_v_rms = 0.0;
    params.bits = 8;
    params.full_scale_v = 2.56; // LSB = 10 mV
    Oscilloscope scope(params, Rng(9));
    const auto cap = scope.capture(sineTrace(5e6, 0.03, 4e9, 40000));
    for (std::size_t i = 0; i < cap.size(); ++i) {
        const double quotient = cap[i] / 0.01;
        EXPECT_NEAR(quotient, std::round(quotient), 1e-6);
    }
}

TEST(Oscilloscope, MaxDroopAndP2p)
{
    Trace t({1.0, 0.95, 0.98, 1.02, 0.97}, 1e-9);
    EXPECT_NEAR(Oscilloscope::maxDroop(t, 1.0), 0.05, 1e-12);
    EXPECT_NEAR(Oscilloscope::peakToPeak(t), 0.07, 1e-12);
}

TEST(Oscilloscope, FftViewFindsNoiseFrequency)
{
    Oscilloscope scope(ocDsoParams(), Rng(10));
    const auto cap =
        scope.capture(sineTrace(67e6, 0.02, 4e9, 40000, 0.9));
    const auto spec = Oscilloscope::fftView(cap);
    const auto pk = dsp::maxPeakInBand(spec, 40e6, 100e6);
    EXPECT_NEAR(pk.freq_hz, 67e6, 2 * spec.binWidth());
}

TEST(Oscilloscope, KelvinScopeIsNoisier)
{
    EXPECT_GT(kelvinScopeParams().noise_v_rms,
              ocDsoParams().noise_v_rms);
    EXPECT_LT(kelvinScopeParams().bandwidth_hz,
              ocDsoParams().bandwidth_hz);
}

TEST(Oscilloscope, ValidatesConfig)
{
    auto bad = ocDsoParams();
    bad.bits = 2;
    EXPECT_THROW(Oscilloscope s(bad, Rng(1)), ConfigError);
    bad = ocDsoParams();
    bad.sample_rate_hz = 0.0;
    EXPECT_THROW(Oscilloscope s(bad, Rng(1)), ConfigError);
}

TEST(Scl, SquareWaveShape)
{
    SyntheticCurrentLoad scl(0.5, 0.5);
    const auto wave = scl.waveform(10e6);
    const double period = 1e-7;
    EXPECT_DOUBLE_EQ(wave(0.0), 0.5);
    EXPECT_DOUBLE_EQ(wave(0.24 * period), 0.5);
    EXPECT_DOUBLE_EQ(wave(0.51 * period), 0.0);
    EXPECT_DOUBLE_EQ(wave(0.99 * period), 0.0);
    EXPECT_DOUBLE_EQ(wave(1.26 * period), 0.5);
}

TEST(Scl, DutyCycleRespected)
{
    SyntheticCurrentLoad scl(1.0, 0.25);
    const auto wave = scl.waveform(1e6);
    int high = 0;
    const int n = 1000;
    for (int i = 0; i < n; ++i)
        if (wave(static_cast<double>(i) * 1e-9) > 0.5)
            ++high;
    EXPECT_NEAR(static_cast<double>(high) / n, 0.25, 0.02);
}

TEST(Scl, ValidatesInput)
{
    EXPECT_THROW(SyntheticCurrentLoad s(0.0), ConfigError);
    EXPECT_THROW(SyntheticCurrentLoad s(1.0, 0.0), ConfigError);
    EXPECT_THROW(SyntheticCurrentLoad s(1.0, 1.0), ConfigError);
    SyntheticCurrentLoad scl(1.0);
    EXPECT_THROW((void)scl.waveform(0.0), ConfigError);
}

} // namespace
} // namespace instruments
} // namespace emstress
