/**
 * @file
 * Dense linear algebra for the circuit engine: a small row-major
 * matrix type and LU factorization with partial pivoting, templated
 * over long double (transient realization), double (DC operating
 * points) and std::complex<double> (AC analysis). MNA systems here
 * are tiny (tens of unknowns), so a dense solver is the right tool.
 */

#ifndef EMSTRESS_CIRCUIT_LINALG_H
#define EMSTRESS_CIRCUIT_LINALG_H

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/error.h"

namespace emstress {
namespace circuit {

/** Magnitude helper usable for both real and complex scalars. */
inline double scalarAbs(double x) { return std::abs(x); }
/** @copydoc scalarAbs(double) */
inline long double scalarAbs(long double x) { return std::abs(x); }
/** @copydoc scalarAbs(double) */
inline double scalarAbs(const std::complex<double> &x)
{
    return std::abs(x);
}

/**
 * Dense row-major square-capable matrix of scalar type T.
 */
template <typename T>
class Matrix
{
  public:
    /** Zero-initialized rows x cols matrix. */
    Matrix(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, T{})
    {}

    /** Number of rows. */
    std::size_t rows() const { return rows_; }
    /** Number of columns. */
    std::size_t cols() const { return cols_; }

    /** Element access. */
    T &operator()(std::size_t r, std::size_t c)
    {
        return data_[r * cols_ + c];
    }
    /** Const element access. */
    const T &operator()(std::size_t r, std::size_t c) const
    {
        return data_[r * cols_ + c];
    }

    /** Reset all elements to zero. */
    void
    setZero()
    {
        std::fill(data_.begin(), data_.end(), T{});
    }

  private:
    std::size_t rows_;
    std::size_t cols_;
    std::vector<T> data_;
};

/**
 * LU factorization with partial pivoting of a square matrix,
 * supporting repeated solves against the same factored system (the
 * transient loop factors once per timestep size and solves thousands
 * of right-hand sides).
 */
template <typename T>
class LuSolver
{
  public:
    /**
     * Factor a square matrix.
     * @throws SimulationError when the matrix is singular.
     */
    explicit LuSolver(Matrix<T> a)
        : lu_(std::move(a)), perm_(lu_.rows())
    {
        requireSim(lu_.rows() == lu_.cols(),
                   "LU factorization requires a square matrix");
        factor();
    }

    /** System dimension. */
    std::size_t size() const { return lu_.rows(); }

    /**
     * Solve A x = b for one right-hand side.
     * @param b Right-hand side of length size().
     * @return Solution vector x.
     */
    std::vector<T>
    solve(const std::vector<T> &b) const
    {
        std::vector<T> x;
        solveInto(b, x);
        return x;
    }

    /**
     * Solve A x = b into a caller-owned vector, so a stepping loop
     * can reuse its buffers instead of allocating per step. b and x
     * must be distinct vectors; x is resized to size().
     */
    void
    solveInto(const std::vector<T> &b, std::vector<T> &x) const
    {
        requireSim(b.size() == size(), "LU solve: rhs dimension mismatch");
        requireSim(&b != &x, "LU solveInto: aliased rhs and solution");
        const std::size_t n = size();
        x.resize(n);
        // Apply permutation, forward substitution (L has unit diagonal).
        for (std::size_t i = 0; i < n; ++i) {
            T s = b[perm_[i]];
            for (std::size_t j = 0; j < i; ++j)
                s -= lu_(i, j) * x[j];
            x[i] = s;
        }
        // Back substitution with U.
        for (std::size_t ii = n; ii-- > 0;) {
            T s = x[ii];
            for (std::size_t j = ii + 1; j < n; ++j)
                s -= lu_(ii, j) * x[j];
            x[ii] = s / lu_(ii, ii);
        }
    }

  private:
    void
    factor()
    {
        const std::size_t n = size();
        for (std::size_t i = 0; i < n; ++i)
            perm_[i] = i;
        for (std::size_t k = 0; k < n; ++k) {
            // Partial pivot: largest magnitude in column k at/below k.
            std::size_t piv = k;
            auto best = scalarAbs(lu_(k, k));
            for (std::size_t r = k + 1; r < n; ++r) {
                const auto m = scalarAbs(lu_(r, k));
                if (m > best) {
                    best = m;
                    piv = r;
                }
            }
            requireSim(best > 1e-300,
                       "singular MNA matrix (floating node or "
                       "inconsistent netlist?)");
            if (piv != k) {
                for (std::size_t c = 0; c < n; ++c)
                    std::swap(lu_(k, c), lu_(piv, c));
                std::swap(perm_[k], perm_[piv]);
            }
            for (std::size_t r = k + 1; r < n; ++r) {
                const T f = lu_(r, k) / lu_(k, k);
                lu_(r, k) = f;
                for (std::size_t c = k + 1; c < n; ++c)
                    lu_(r, c) -= f * lu_(k, c);
            }
        }
    }

    Matrix<T> lu_;
    std::vector<std::size_t> perm_;
};

} // namespace circuit
} // namespace emstress

#endif // EMSTRESS_CIRCUIT_LINALG_H
