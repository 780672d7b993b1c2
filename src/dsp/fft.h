/**
 * @file
 * Radix-2 iterative Fast Fourier Transform. Implemented from scratch
 * (no external DSP dependency) because spectrum computation is on the
 * hot path of every simulated spectrum-analyzer measurement.
 *
 * Every transform here runs the same butterfly kernel: twiddles come
 * from a table of e^{-2πik/N} built once per length and shared by
 * every caller (one libm call per entry, so no rounding is carried
 * across entries), and the complex arithmetic is written out on
 * interleaved (re, im) doubles.
 */

#ifndef EMSTRESS_DSP_FFT_H
#define EMSTRESS_DSP_FFT_H

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace emstress {
namespace dsp {

/** True when n is a power of two (and non-zero). */
bool isPowerOfTwo(std::size_t n);

/** Smallest power of two >= n. @pre n >= 1. */
std::size_t nextPowerOfTwo(std::size_t n);

/**
 * Forward transform of a real sequence of length N (a power of two,
 * N >= 2), computed as an N/2-point complex transform of the packed
 * pairs (x[2m], x[2m+1]) and split into the real input's bins. Cheap
 * to construct (the twiddle table is shared per length); transform()
 * and bin() are const and reentrant.
 */
class RealFft
{
  public:
    /** @throws ConfigError unless n is a power of two >= 2. */
    explicit RealFft(std::size_t n);

    /** Transform length N. */
    std::size_t size() const { return n_; }

    /**
     * Transform N reals in place. On return `buf` holds the packed
     * half-length transform, which only bin() reads.
     */
    void transform(std::span<double> buf) const;

    /**
     * Bin k, 0 <= k <= N/2, of the real input's DFT, read from a
     * buffer transform() has processed. (Bins above N/2 are the
     * conjugates of bins N - k.)
     */
    std::complex<double> bin(std::span<const double> packed,
                             std::size_t k) const;

  private:
    std::size_t n_;
    const double *twiddle_; ///< e^{-2πik/N}, k < N/2, as (re, im).
};

/**
 * In-place radix-2 decimation-in-time FFT.
 * @param data Complex samples; size must be a power of two.
 * @param inverse When true computes the inverse transform including
 *                the 1/N normalization.
 */
void fftInPlace(std::vector<std::complex<double>> &data,
                bool inverse = false);

/**
 * Forward FFT of a real signal, zero-padded to the next power of two
 * and transformed with RealFft.
 * @return Complex spectrum of length nextPowerOfTwo(signal.size()).
 */
std::vector<std::complex<double>> fftReal(std::span<const double> signal);

/**
 * Inverse FFT returning the real part of the time-domain result.
 * @param spectrum Complex spectrum; size must be a power of two.
 */
std::vector<double>
ifftToReal(std::vector<std::complex<double>> spectrum);

} // namespace dsp
} // namespace emstress

#endif // EMSTRESS_DSP_FFT_H
