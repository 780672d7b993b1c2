/**
 * @file
 * Deterministic random number generation. Every stochastic component
 * in emstress (GA operators, measurement noise, workload generators,
 * SDC classification) draws from an explicitly seeded Rng or a
 * counter-keyed CounterRng so that experiments are exactly
 * reproducible from a seed.
 *
 * Every draw algorithm lives in this file. The standard library
 * supplies only std::mt19937_64, whose output sequence the standard
 * specifies; the std::*_distribution adaptors are
 * implementation-defined (libstdc++ and libc++ turn the same engine
 * words into different variates), so none of them is used — the
 * emstress-lint rule R1 rejects them anywhere under src/.
 */

#ifndef EMSTRESS_UTIL_RNG_H
#define EMSTRESS_UTIL_RNG_H

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <string_view>

#include "util/error.h"
#include "util/units.h"

namespace emstress {

/**
 * Version of the draw algorithms and the analyzer readings they
 * perturb. Every content address of a computed result (the service's
 * job fingerprint, the bench virus cache's budget fingerprint)
 * includes it, so results computed under an older model are never
 * served as current. Bump it whenever any draw below, the way an
 * instrument consumes draws, or the noiseless readings the draws
 * act on change.
 *
 * History: 1 — spectrum-analyzer noise replayed in stream order,
 * three gaussians per displayed bin; 2 — counter-keyed analyzer
 * noise, drawn for in-band bins only; 3 — streamed band powers come
 * from the analyzer's own FFT instead of a Goertzel bank, and every
 * spectrum runs the table-twiddle real FFT; 4 — the PDN transient
 * steps its dynamic state (capacitor voltages and independent
 * inductor currents) instead of the MNA unknowns, which moves every
 * noiseless reading at rounding level on the Juno presets and for
 * real on the Athlon, whose MNA-form update diverged. The Rng stream
 * draws moved from std distributions to this file in version 2
 * without changing a single realization (they reproduce the
 * algorithms libstdc++ used), so they need no bump of their own; nor
 * did the V_MIN jitter key's move from std::hash to stringHash, which
 * reproduces it.
 */
inline constexpr int kNoiseModelVersion = 4;

/**
 * splitmix64 finalizer: scrambles a 64-bit value into a well-mixed
 * seed. Used to derive independent noise streams from structural keys
 * (kernel hashes, sweep-point indices) so that a measurement's noise
 * depends only on *what* is measured, never on evaluation order —
 * the property that makes parallel evaluation bit-identical to
 * serial and makes fitness memoization lossless.
 */
inline std::uint64_t
mixSeed(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Combine two 64-bit values into one well-mixed seed. */
inline std::uint64_t
mixSeed(std::uint64_t a, std::uint64_t b)
{
    return mixSeed(a ^ mixSeed(b));
}

/**
 * Portable 64-bit hash of a string, for seeds keyed by a name. It is
 * libstdc++'s 64-bit std::hash<std::string> (std::_Hash_bytes, a
 * MurmurHash64A variant with seed 0xc70f6907), restated here with
 * explicit little-endian word loads so it gives the same value under
 * any standard library and byte order; seeds keyed with std::hash on
 * libstdc++ hosts keep their realizations. std::hash itself is
 * implementation-defined, and emstress-lint R1 rejects it in src/.
 */
inline std::uint64_t
stringHash(std::string_view bytes)
{
    constexpr std::uint64_t mul = 0xc6a4a7935bd1e995ull;
    // Bytes [at, at + count) as a little-endian word, count <= 8.
    const auto load = [bytes](std::size_t at, std::size_t count) {
        std::uint64_t word = 0;
        for (std::size_t b = count; b-- > 0;)
            word = (word << 8)
                | static_cast<unsigned char>(bytes[at + b]);
        return word;
    };
    const auto shiftMix = [](std::uint64_t v) { return v ^ (v >> 47); };
    const std::size_t len = bytes.size();
    const std::size_t aligned = len & ~std::size_t{7};
    std::uint64_t hash =
        0xc70f6907ull ^ (static_cast<std::uint64_t>(len) * mul);
    for (std::size_t at = 0; at < aligned; at += 8) {
        hash ^= shiftMix(load(at, 8) * mul) * mul;
        hash *= mul;
    }
    if (len != aligned) {
        hash ^= load(aligned, len - aligned);
        hash *= mul;
    }
    return shiftMix(shiftMix(hash) * mul);
}

/** Top 53 bits of a random word as a double in [0, 1). */
inline double
unitDouble(std::uint64_t bits)
{
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/** Top 53 bits of a random word as a double in (0, 1]: log-safe. */
inline double
openUnitDouble(std::uint64_t bits)
{
    return static_cast<double>((bits >> 11) + 1) * 0x1.0p-53;
}

/** Full 128-bit product a*b: returns the high word, sets lo. */
inline std::uint64_t
mulWide(std::uint64_t a, std::uint64_t b, std::uint64_t &lo)
{
    constexpr std::uint64_t kLow32 = 0xffffffffull;
    const std::uint64_t p0 = (a & kLow32) * (b & kLow32);
    const std::uint64_t p1 = (a & kLow32) * (b >> 32);
    const std::uint64_t p2 = (a >> 32) * (b & kLow32);
    const std::uint64_t p3 = (a >> 32) * (b >> 32);
    const std::uint64_t mid = (p0 >> 32) + (p1 & kLow32) + (p2 & kLow32);
    lo = (mid << 32) | (p0 & kLow32);
    return p3 + (p1 >> 32) + (p2 >> 32) + (mid >> 32);
}

/**
 * Unbiased integer in [0, range) from a 64-bit word source, by
 * Lemire's multiply-and-reject method (one division only on the rare
 * rejection path). @pre range > 0.
 */
template <typename NextWord>
std::uint64_t
boundedBelow(std::uint64_t range, NextWord &&next)
{
    std::uint64_t lo = 0;
    std::uint64_t hi = mulWide(next(), range, lo);
    if (lo < range) {
        const std::uint64_t threshold = (0 - range) % range;
        while (lo < threshold)
            hi = mulWide(next(), range, lo);
    }
    return hi;
}

/**
 * Counter-based noise: every draw is a pure function of a 64-bit key
 * and a (row, column) counter, with no stream state. A consumer that
 * reads cell (row, column) sees the same values whichever other cells
 * were drawn before it, and in whatever order — so a measurement can
 * draw only the cells it observes, and two code paths observing the
 * same cell agree by construction.
 */
class CounterRng
{
  public:
    /** The draws of one (row, column) cell: a short splitmix64 stream. */
    class Cell
    {
      public:
        explicit Cell(std::uint64_t state) : state_(state) {}

        /** Next raw 64-bit word of the cell. */
        std::uint64_t
        next()
        {
            state_ += 0x9e3779b97f4a7c15ull;
            return mixSeed(state_);
        }

        /**
         * Two independent standard normals by Box–Muller (consumes
         * two words).
         */
        std::array<double, 2>
        normalPair()
        {
            const double r =
                std::sqrt(-2.0 * std::log(openUnitDouble(next())));
            const double theta = kTwoPi * unitDouble(next());
            return {r * std::cos(theta), r * std::sin(theta)};
        }

        /** Unit-mean exponential, -log(U) (consumes one word). */
        double exponential() { return -std::log(openUnitDouble(next())); }

      private:
        std::uint64_t state_;
    };

    explicit CounterRng(std::uint64_t key) : key_(key) {}

    /** Draws of cell (row, column). */
    Cell
    cell(std::uint64_t row, std::uint64_t column) const
    {
        return Cell(mixSeed(mixSeed(key_, row), column));
    }

  private:
    std::uint64_t key_;
};

/**
 * A random word as a double in [0, 1): the word rounded to the
 * nearest double, scaled by 2^-64 and clamped below 1 — the
 * canonical conversion for a 64-bit engine (the one libstdc++'s
 * generate_canonical performs), so Rng streams keep the
 * realizations of builds that drew through std distributions.
 */
inline double
canonicalDouble(std::uint64_t word)
{
    const double u = static_cast<double>(word) * 0x1.0p-64;
    return u < 1.0 ? u : 0x1.fffffffffffffp-1;
}

/**
 * Seeded pseudo-random stream: std::mt19937_64 words turned into
 * variates by this file's own algorithms. Cheap to copy; copies
 * evolve independently, which forks a reproducible sub-stream.
 */
class Rng
{
  public:
    /** Construct from an explicit 64-bit seed. */
    explicit Rng(std::uint64_t seed) : engine_(seed) {}

    /** Derive an independent child stream (e.g. one per GA island). */
    Rng
    fork()
    {
        return Rng(engine_());
    }

    /** Next raw 64-bit word (e.g. to key a CounterRng). */
    std::uint64_t bits() { return engine_(); }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return canonicalDouble(engine_()) * (hi - lo) + lo;
    }

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi. */
    int
    uniformInt(int lo, int hi)
    {
        requireSim(lo <= hi, "Rng::uniformInt called with lo > hi");
        const auto range = static_cast<std::uint64_t>(
                               static_cast<std::int64_t>(hi) - lo)
            + 1;
        return static_cast<int>(
            lo + static_cast<std::int64_t>(boundedBelow(range, engine_)));
    }

    /** Uniform size_t index in [0, n). @pre n > 0. */
    std::size_t
    index(std::size_t n)
    {
        requireSim(n > 0, "Rng::index called with empty range");
        return static_cast<std::size_t>(boundedBelow(n, engine_));
    }

    /**
     * Gaussian draw with the given mean and standard deviation, by
     * Marsaglia's polar method. Each draw takes a fresh accepted pair
     * and uses its second variate only: keeping the first for the
     * next call would halve the cost but change every stream's
     * realization (see kNoiseModelVersion).
     */
    double
    gaussian(double mean, double stddev)
    {
        double x = 0.0, y = 0.0, r2 = 0.0;
        do {
            x = 2.0 * canonicalDouble(engine_()) - 1.0;
            y = 2.0 * canonicalDouble(engine_()) - 1.0;
            r2 = x * x + y * y;
        } while (r2 > 1.0 || r2 == 0.0);
        const double scale = std::sqrt(-2.0 * std::log(r2) / r2);
        return y * scale * stddev + mean;
    }

    /** Bernoulli draw: true with probability p. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return canonicalDouble(engine_()) < p;
    }

    /** Pick a uniformly random element of a non-empty span. */
    template <typename T>
    const T &
    pick(std::span<const T> items)
    {
        return items[index(items.size())];
    }

    /**
     * Underlying engine access, for standard algorithms that take a
     * uniform random bit generator (their output is
     * implementation-defined: keep them off result paths).
     */
    std::mt19937_64 &engine() { return engine_; }

  private:
    std::mt19937_64 engine_;
};

} // namespace emstress

#endif // EMSTRESS_UTIL_RNG_H
