/**
 * @file
 * Long-double reference replay of the transient engine's
 * discretization, the oracle tests/test_transient_parity.cc checks
 * the fast path against.
 *
 * It integrates the same trapezoidal rule on the storage state, but
 * over the full MNA system in the companion-model form circuit
 * simulators use, one linear solve per step:
 *
 *   G·x_{t+1} + Pᵀ·q_{t+1}               = s(u_{t+1})
 *   P·x_{t+1} - (h/2)·E⁻¹·q_{t+1}         = P·x_t + (h/2)·E⁻¹·q_t
 *
 * with z = P·x the capacitor voltages and inductor currents and
 * q = E·z' their currents and voltages. The network holds exactly at
 * every time point and each storage element takes a trapezoidal step,
 * which from a consistent start is the engine's reduced state-space
 * step; no state reduction, energy scaling, matrix power or blocking
 * is involved. The circuit starts at its DC operating point under the
 * bias currents, which are also the t = 0 history, as in the engine.
 */

#ifndef EMSTRESS_TESTS_TRANSIENT_ORACLE_H
#define EMSTRESS_TESTS_TRANSIENT_ORACLE_H

#include <algorithm>
#include <cstddef>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "circuit/linalg.h"
#include "circuit/mna.h"
#include "circuit/netlist.h"

namespace emstress {
namespace circuit {

/**
 * Relative agreement (against the run's largest |value|) between the
 * engine and the oracle over ≥1e5-step runs: the engine's tables are
 * rounded to double once and its steps accumulate in double, and
 * weakly damped tanks integrate that rounding. Measured ≤ 2.5e-13 on
 * the shipped PDNs (the Athlon's is the worst).
 */
inline constexpr double kOracleParityTol = 1e-11;

class TransientOracle
{
  public:
    TransientOracle(const Netlist &netlist, double dt,
                    std::span<const double> bias)
        : mna_(netlist), x_(mna_.size())
    {
        const std::size_t n = mna_.size();
        for (const Element &el : netlist.elements()) {
            if (el.kind == ElementKind::Capacitor) {
                std::vector<std::pair<std::size_t, long double>> inc;
                if (el.node_pos != kGround)
                    inc.emplace_back(mna_.stateIndexOfNode(el.node_pos),
                                     1.0L);
                if (el.node_neg != kGround)
                    inc.emplace_back(mna_.stateIndexOfNode(el.node_neg),
                                     -1.0L);
                incidence_.push_back(std::move(inc));
                half_h_over_e_.push_back(0.5L * dt / el.value);
            } else if (el.kind == ElementKind::Inductor) {
                incidence_.push_back(
                    {{mna_.stateIndexOfBranch(el.name), 1.0L}});
                half_h_over_e_.push_back(-0.5L * dt / el.value);
            }
        }
        const std::size_t ns = incidence_.size();
        Matrix<long double> k(n + ns, n + ns);
        Matrix<long double> g(n, n);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c)
                k(r, c) = g(r, c) = mna_.g()(r, c);
        for (std::size_t j = 0; j < ns; ++j) {
            for (const auto &[row, sign] : incidence_[j]) {
                k(row, n + j) = sign;
                k(n + j, row) = sign;
            }
            k(n + j, n + j) = -half_h_over_e_[j];
        }
        lu_.emplace(std::move(k));
        q_.assign(ns, 0.0L);
        const LuSolver<long double> dc(std::move(g));
        x_ = dc.solve(sourceVector(bias));
    }

    /** Advance one step with the given current-source values. */
    void
    step(std::span<const double> currents)
    {
        const std::size_t n = mna_.size();
        const std::size_t ns = q_.size();
        std::vector<long double> rhs = sourceVector(currents);
        rhs.resize(n + ns);
        for (std::size_t j = 0; j < ns; ++j) {
            long double z = 0.0L;
            for (const auto &[row, sign] : incidence_[j])
                z += sign * x_[row];
            rhs[n + j] = z + half_h_over_e_[j] * q_[j];
        }
        std::vector<long double> sol;
        lu_->solveInto(rhs, sol);
        std::copy(sol.begin(), sol.begin() + static_cast<long>(n),
                  x_.begin());
        std::copy(sol.begin() + static_cast<long>(n), sol.end(),
                  q_.begin());
    }

    /** MNA unknown by index at the current time. */
    long double value(std::size_t index) const { return x_[index]; }

    const MnaSystem &mna() const { return mna_; }

  private:
    std::vector<long double>
    sourceVector(std::span<const double> currents) const
    {
        const std::vector<double> s = mna_.sourceVector(currents);
        return {s.begin(), s.end()};
    }

    MnaSystem mna_;
    std::vector<std::vector<std::pair<std::size_t, long double>>>
        incidence_;
    std::vector<long double> half_h_over_e_; ///< (h/2)/e per element.
    std::optional<LuSolver<long double>> lu_; ///< The step matrix.
    std::vector<long double> x_;
    std::vector<long double> q_;
};

} // namespace circuit
} // namespace emstress

#endif // EMSTRESS_TESTS_TRANSIENT_ORACLE_H
