/**
 * @file
 * Radix-2 FFT implementation.
 */

#include "dsp/fft.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "util/error.h"
#include "util/units.h"

namespace emstress {
namespace dsp {

bool
isPowerOfTwo(std::size_t n)
{
    return n != 0 && (n & (n - 1)) == 0;
}

std::size_t
nextPowerOfTwo(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

namespace {

/**
 * e^{-2πik/n} for k < n/2, interleaved (re, im): built on first use
 * of a length and kept for the life of the process (lengths are
 * powers of two, so there are at most a few dozen tables).
 */
std::span<const double>
twiddleTable(std::size_t n)
{
    static std::mutex mu;
    static std::map<std::size_t, std::vector<double>> tables;
    const std::lock_guard<std::mutex> lock(mu);
    std::vector<double> &t = tables[n];
    if (t.empty()) {
        t.resize(n);
        for (std::size_t k = 0; k < n / 2; ++k) {
            const double a = kTwoPi * static_cast<double>(k)
                / static_cast<double>(n);
            t[2 * k] = std::cos(a);
            t[2 * k + 1] = -std::sin(a);
        }
    }
    return t;
}

/** Bit-reversal permutation of m interleaved complex values. */
void
bitReverse(double *z, std::size_t m)
{
    std::size_t j = 0;
    for (std::size_t i = 1; i < m; ++i) {
        std::size_t bit = m >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        if (i < j) {
            std::swap(z[2 * i], z[2 * j]);
            std::swap(z[2 * i + 1], z[2 * j + 1]);
        }
    }
}

/**
 * Radix-2 decimation-in-time passes over m bit-reversed complex
 * values. The twiddle e^{-2πij/m} is complex entry j·stride of tw.
 */
void
butterflies(double *z, std::size_t m, const double *tw,
            std::size_t stride)
{
    for (std::size_t half = 1; half < m; half <<= 1) {
        const std::size_t step = 2 * stride * (m / (2 * half));
        for (std::size_t i = 0; i < m; i += 2 * half) {
            double *__restrict a = z + 2 * i;
            double *__restrict b = a + 2 * half;
            for (std::size_t k = 0; k < half; ++k) {
                const double wr = tw[k * step];
                const double wi = tw[k * step + 1];
                const double br = b[2 * k];
                const double bi = b[2 * k + 1];
                const double vr = br * wr - bi * wi;
                const double vi = br * wi + bi * wr;
                const double ar = a[2 * k];
                const double ai = a[2 * k + 1];
                a[2 * k] = ar + vr;
                a[2 * k + 1] = ai + vi;
                b[2 * k] = ar - vr;
                b[2 * k + 1] = ai - vi;
            }
        }
    }
}

} // namespace

RealFft::RealFft(std::size_t n) : n_(n)
{
    requireConfig(isPowerOfTwo(n) && n >= 2,
                  "real FFT length must be a power of two >= 2");
    twiddle_ = twiddleTable(n).data();
}

void
RealFft::transform(std::span<double> buf) const
{
    requireSim(buf.size() == n_, "real FFT buffer has the wrong length");
    // Pairs (x[2m], x[2m+1]) already sit in memory as the complex
    // values z[m]; the half-length transform needs every other entry
    // of the length-N table.
    bitReverse(buf.data(), n_ / 2);
    butterflies(buf.data(), n_ / 2, twiddle_, 2);
}

std::complex<double>
RealFft::bin(std::span<const double> packed, std::size_t k) const
{
    const std::size_t m = n_ / 2;
    if (k == m)
        return {packed[0] - packed[1], 0.0};
    // X[k] = E[k] + e^{-2πik/N} O[k], where the even- and odd-sample
    // transforms are E = (Z[k] + conj Z[m-k]) / 2 and
    // O = (Z[k] - conj Z[m-k]) / 2j.
    const std::size_t j = (m - k) % m;
    const double ar = packed[2 * k];
    const double ai = packed[2 * k + 1];
    const double br = packed[2 * j];
    const double bi = packed[2 * j + 1];
    const double er = 0.5 * (ar + br);
    const double ei = 0.5 * (ai - bi);
    const double or_ = 0.5 * (ai + bi);
    const double oi = 0.5 * (br - ar);
    const double c = twiddle_[2 * k];
    const double s = twiddle_[2 * k + 1];
    return {er + (c * or_ - s * oi), ei + (c * oi + s * or_)};
}

void
fftInPlace(std::vector<std::complex<double>> &data, bool inverse)
{
    const std::size_t n = data.size();
    requireConfig(isPowerOfTwo(n), "FFT length must be a power of two");
    if (n <= 1)
        return;
    // std::complex<double> is layout-compatible with double[2].
    double *z = reinterpret_cast<double *>(data.data());
    // The inverse is the conjugate of the forward transform of the
    // conjugate.
    if (inverse)
        for (std::size_t i = 0; i < n; ++i)
            z[2 * i + 1] = -z[2 * i + 1];
    bitReverse(z, n);
    butterflies(z, n, twiddleTable(n).data(), 1);
    if (inverse) {
        const double inv_n = 1.0 / static_cast<double>(n);
        for (std::size_t i = 0; i < n; ++i) {
            z[2 * i] *= inv_n;
            z[2 * i + 1] *= -inv_n;
        }
    }
}

std::vector<std::complex<double>>
fftReal(std::span<const double> signal)
{
    const std::size_t n = nextPowerOfTwo(std::max<std::size_t>(
        signal.size(), 1));
    if (n == 1)
        return {signal.empty() ? 0.0 : signal[0]};
    std::vector<double> buf(n, 0.0);
    std::copy(signal.begin(), signal.end(), buf.begin());
    const RealFft fft(n);
    fft.transform(buf);
    std::vector<std::complex<double>> out(n);
    for (std::size_t k = 0; k <= n / 2; ++k) {
        out[k] = fft.bin(buf, k);
        if (k > 0 && k < n / 2)
            out[n - k] = std::conj(out[k]);
    }
    return out;
}

std::vector<double>
ifftToReal(std::vector<std::complex<double>> spectrum)
{
    fftInPlace(spectrum, true);
    std::vector<double> out(spectrum.size());
    for (std::size_t i = 0; i < spectrum.size(); ++i)
        out[i] = spectrum[i].real();
    return out;
}

} // namespace dsp
} // namespace emstress
