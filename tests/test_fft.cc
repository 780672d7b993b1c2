/**
 * @file
 * Unit and property tests for the FFT and window functions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <vector>

#include "dsp/fft.h"
#include "dsp/window.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/units.h"

namespace emstress {
namespace dsp {
namespace {

TEST(Fft, PowerOfTwoHelpers)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(1024));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(12));
    EXPECT_EQ(nextPowerOfTwo(1), 1u);
    EXPECT_EQ(nextPowerOfTwo(5), 8u);
    EXPECT_EQ(nextPowerOfTwo(1024), 1024u);
    EXPECT_EQ(nextPowerOfTwo(1025), 2048u);
}

TEST(Fft, RejectsNonPowerOfTwo)
{
    std::vector<std::complex<double>> data(12);
    EXPECT_THROW(fftInPlace(data), ConfigError);
}

TEST(Fft, DcSignal)
{
    std::vector<std::complex<double>> data(8, {1.0, 0.0});
    fftInPlace(data);
    EXPECT_NEAR(data[0].real(), 8.0, 1e-12);
    for (std::size_t k = 1; k < 8; ++k)
        EXPECT_NEAR(std::abs(data[k]), 0.0, 1e-12);
}

TEST(Fft, SingleBinSinusoid)
{
    // cos(2*pi*k0*n/N) has energy split between bins k0 and N-k0.
    const std::size_t n = 64;
    const std::size_t k0 = 5;
    std::vector<std::complex<double>> data(n);
    for (std::size_t i = 0; i < n; ++i) {
        data[i] = std::cos(kTwoPi * static_cast<double>(k0 * i)
                           / static_cast<double>(n));
    }
    fftInPlace(data);
    EXPECT_NEAR(std::abs(data[k0]), static_cast<double>(n) / 2.0, 1e-9);
    EXPECT_NEAR(std::abs(data[n - k0]), static_cast<double>(n) / 2.0,
                1e-9);
    for (std::size_t k = 0; k < n; ++k) {
        if (k == k0 || k == n - k0)
            continue;
        EXPECT_NEAR(std::abs(data[k]), 0.0, 1e-9) << "bin " << k;
    }
}

TEST(Fft, RoundTripRestoresSignal)
{
    Rng rng(3);
    std::vector<std::complex<double>> data(256);
    std::vector<std::complex<double>> orig(256);
    for (auto &x : data)
        x = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    orig = data;
    fftInPlace(data, false);
    fftInPlace(data, true);
    for (std::size_t i = 0; i < data.size(); ++i) {
        EXPECT_NEAR(data[i].real(), orig[i].real(), 1e-10);
        EXPECT_NEAR(data[i].imag(), orig[i].imag(), 1e-10);
    }
}

TEST(Fft, ParsevalTheorem)
{
    Rng rng(11);
    const std::size_t n = 512;
    std::vector<double> sig(n);
    for (auto &v : sig)
        v = rng.gaussian(0.0, 1.0);
    double time_energy = 0.0;
    for (double v : sig)
        time_energy += v * v;

    const auto spec = fftReal(sig);
    double freq_energy = 0.0;
    for (const auto &x : spec)
        freq_energy += std::norm(x);
    freq_energy /= static_cast<double>(spec.size());

    EXPECT_NEAR(freq_energy, time_energy, 1e-8 * time_energy);
}

TEST(Fft, Linearity)
{
    Rng rng(5);
    const std::size_t n = 128;
    std::vector<double> a(n), b(n), sum(n);
    for (std::size_t i = 0; i < n; ++i) {
        a[i] = rng.uniform(-1.0, 1.0);
        b[i] = rng.uniform(-1.0, 1.0);
        sum[i] = 2.0 * a[i] + 3.0 * b[i];
    }
    const auto fa = fftReal(a);
    const auto fb = fftReal(b);
    const auto fs = fftReal(sum);
    for (std::size_t k = 0; k < fs.size(); ++k) {
        const auto expect = 2.0 * fa[k] + 3.0 * fb[k];
        EXPECT_NEAR(std::abs(fs[k] - expect), 0.0, 1e-9);
    }
}

TEST(Fft, IfftToRealInvertsFftReal)
{
    Rng rng(9);
    std::vector<double> sig(64);
    for (auto &v : sig)
        v = rng.uniform(-2.0, 2.0);
    const auto restored = ifftToReal(fftReal(sig));
    ASSERT_EQ(restored.size(), 64u);
    for (std::size_t i = 0; i < sig.size(); ++i)
        EXPECT_NEAR(restored[i], sig[i], 1e-10);
}

TEST(Fft, ZeroPadsToNextPowerOfTwo)
{
    std::vector<double> sig(100, 1.0);
    const auto spec = fftReal(sig);
    EXPECT_EQ(spec.size(), 128u);
}

/**
 * Largest |X[k] - DFT[k]| of a real signal's transform against a
 * long-double direct DFT over the bins in `bins`, and the DFT's
 * largest magnitude over those bins.
 */
struct DftGap
{
    long double max_err = 0.0L;
    long double peak = 0.0L;
};

DftGap
gapToDirectDft(const std::vector<double> &x,
               const std::vector<std::complex<double>> &spec,
               const std::vector<std::size_t> &bins)
{
    const std::size_t n = x.size();
    // e^{-2πir/N} for every residue r, each from one long-double
    // libm call: the oracle's twiddles carry no recurrence error.
    std::vector<long double> c(n), s(n);
    const long double two_pi = 6.283185307179586476925286766559L;
    for (std::size_t r = 0; r < n; ++r) {
        const long double a =
            two_pi * static_cast<long double>(r) / static_cast<long double>(n);
        c[r] = std::cos(a);
        s[r] = -std::sin(a);
    }
    DftGap gap;
    for (const std::size_t k : bins) {
        long double re = 0.0L, im = 0.0L;
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t r = (k * i) % n;
            re += static_cast<long double>(x[i]) * c[r];
            im += static_cast<long double>(x[i]) * s[r];
        }
        const long double dr = static_cast<long double>(spec[k].real()) - re;
        const long double di = static_cast<long double>(spec[k].imag()) - im;
        gap.max_err = std::max(gap.max_err, std::sqrt(dr * dr + di * di));
        gap.peak = std::max(gap.peak, std::sqrt(re * re + im * im));
    }
    return gap;
}

TEST(Fft, RealTransformMatchesLongDoubleDft)
{
    // A Hann-windowed tone in noise, as the analyzer sees it. Every
    // bin at N = 4096; at N = 16384 every 16th bin plus both ends and
    // the tone's neighbourhood (the direct DFT is quadratic).
    for (const std::size_t n : {4096u, 16384u}) {
        Rng rng(n);
        std::vector<double> x(n);
        for (std::size_t i = 0; i < n; ++i)
            x[i] = 0.3 * std::sin(kTwoPi * 0.0187 * static_cast<double>(i))
                + rng.gaussian(0.0, 0.05);
        const auto w = makeWindow(WindowKind::Hann, n);
        for (std::size_t i = 0; i < n; ++i)
            x[i] *= w[i];
        const auto spec = fftReal(x);
        ASSERT_EQ(spec.size(), n);

        std::vector<std::size_t> bins;
        const std::size_t stride = n == 4096 ? 1 : 16;
        for (std::size_t k = 0; k < n; k += stride)
            bins.push_back(k);
        const auto tone =
            static_cast<std::size_t>(0.0187 * static_cast<double>(n));
        for (std::size_t k = tone - 4; k <= tone + 4; ++k)
            bins.push_back(k);
        for (const std::size_t k :
             {n / 2 - 1, n / 2, n / 2 + 1, n - tone, n - 1})
            bins.push_back(k);

        const DftGap gap = gapToDirectDft(x, spec, bins);
        EXPECT_GT(gap.peak, 0.05L * static_cast<long double>(n));
        EXPECT_LT(gap.max_err, 1e-12L * gap.peak) << "n=" << n;
    }
}

TEST(Fft, RealFftRejectsBadLengthsAndBuffers)
{
    EXPECT_THROW(RealFft(1), ConfigError);
    EXPECT_THROW(RealFft(12), ConfigError);
    const RealFft fft(8);
    std::vector<double> short_buf(4);
    EXPECT_THROW(fft.transform(short_buf), SimulationError);
}

class WindowTest : public ::testing::TestWithParam<WindowKind>
{};

TEST_P(WindowTest, CoefficientsWithinUnitRange)
{
    const auto w = makeWindow(GetParam(), 257);
    for (double v : w) {
        // Flat-top windows legitimately dip negative (to ~-0.42).
        EXPECT_GE(v, -0.5);
        EXPECT_LE(v, 5.0); // flat-top exceeds 1.0 by design
    }
}

TEST_P(WindowTest, Symmetric)
{
    const auto w = makeWindow(GetParam(), 129);
    for (std::size_t i = 0; i < w.size(); ++i)
        EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-12);
}

TEST_P(WindowTest, CoherentGainPositive)
{
    const double g = coherentGain(GetParam(), 256);
    EXPECT_GT(g, 0.0);
    EXPECT_LE(g, 1.0 + 1e-9);
}

TEST_P(WindowTest, NameNonEmpty)
{
    EXPECT_FALSE(windowName(GetParam()).empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllWindows, WindowTest,
    ::testing::Values(WindowKind::Rectangular, WindowKind::Hann,
                      WindowKind::Hamming, WindowKind::Blackman,
                      WindowKind::FlatTop));

TEST(Window, RectangularGainIsOne)
{
    EXPECT_NEAR(coherentGain(WindowKind::Rectangular, 64), 1.0, 1e-12);
}

TEST(Window, HannGainIsHalf)
{
    // Hann coherent gain tends to 0.5 for large N.
    EXPECT_NEAR(coherentGain(WindowKind::Hann, 4096), 0.5, 1e-3);
}

TEST(Window, EmptyAndSingle)
{
    EXPECT_TRUE(makeWindow(WindowKind::Hann, 0).empty());
    const auto w1 = makeWindow(WindowKind::Hann, 1);
    ASSERT_EQ(w1.size(), 1u);
    EXPECT_DOUBLE_EQ(w1[0], 1.0);
}

} // namespace
} // namespace dsp
} // namespace emstress
