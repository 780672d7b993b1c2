/**
 * @file
 * Long-double reference replay of the transient engine's
 * discretization, the oracle tests/test_transient_parity.cc checks
 * the fast path against, plus the engine's whole-trace and single-step
 * execution forms the tests drive it in (runTransient, SingleStepper).
 *
 * TransientOracle integrates the same trapezoidal rule on the storage state, but
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
#include <string>
#include <utility>
#include <vector>

#include "circuit/linalg.h"
#include "circuit/mna.h"
#include "circuit/netlist.h"
#include "circuit/transient.h"
#include "util/error.h"
#include "util/trace.h"

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

/** What a probe observes. */
enum class ProbeKind
{
    NodeVoltage,   ///< Voltage of a node versus ground.
    BranchCurrent, ///< Current through an inductor or voltage source.
};

/** A named observation point recorded by runTransient. */
struct Probe
{
    ProbeKind kind;
    /// Node id (NodeVoltage) — unused for BranchCurrent.
    NodeId node = kGround;
    /// Element name (BranchCurrent) — unused for NodeVoltage.
    std::string element;
    /// Label under which the waveform is returned.
    std::string label;
};

/** Result of runTransient: one Trace per probe, in probe order. */
struct TransientResult
{
    std::vector<std::string> labels;
    std::vector<Trace> waveforms;

    /** Waveform lookup by probe label. @throws ConfigError if absent. */
    const Trace &
    trace(const std::string &label) const
    {
        for (std::size_t i = 0; i < labels.size(); ++i)
            if (labels[i] == label)
                return waveforms[i];
        throw ConfigError("no transient probe labelled " + label);
    }
};

/**
 * Whole-trace transient run over `engine`: every source a waveform
 * evaluated at the step time `dt * step`, steps 1..`steps` executed
 * as full kStreamBlock blocks from step 1 with the remainder as one
 * tail. That is the partition PdnStreamSink drives, so a stream of
 * the same inputs replays it bit for bit.
 *
 * @param bias_currents Current-source values the circuit sat at
 *        before t = 0 (its DC operating point and the first step's
 *        history); empty means the waveforms' t = 0 values.
 */
inline TransientResult
runTransient(const TransientAnalysis &engine, std::size_t steps,
             const std::vector<SourceWaveform> &waveforms,
             const std::vector<Probe> &probes,
             std::span<const double> bias_currents = {})
{
    const MnaSystem &mna = engine.mna();
    const std::size_t n_src = mna.currentSourceNames().size();
    requireConfig(waveforms.size() == n_src,
                  "transient run needs one waveform per current source");
    std::vector<std::size_t> probe_idx;
    TransientResult result;
    for (const auto &p : probes) {
        probe_idx.push_back(p.kind == ProbeKind::NodeVoltage
                                ? mna.stateIndexOfNode(p.node)
                                : mna.stateIndexOfBranch(p.element));
        result.labels.push_back(p.label);
        Trace t(engine.dt());
        t.reserve(steps);
        result.waveforms.push_back(std::move(t));
    }

    std::vector<double> src_vals(n_src);
    const auto eval_sources = [&](double t) {
        for (std::size_t k = 0; k < n_src; ++k)
            src_vals[k] = waveforms[k](t);
    };
    eval_sources(0.0);
    const std::span<const double> bias = bias_currents.empty()
        ? std::span<const double>(src_vals)
        : bias_currents;

    const std::size_t np = probe_idx.size();
    TransientBlockStepper bs = engine.makeBlockStepper(bias, probe_idx);
    std::vector<double> in(kStreamBlock * n_src);
    std::vector<double> out(kStreamBlock * np);
    for (std::size_t step = 1; step <= steps;) {
        const std::size_t count =
            std::min(kStreamBlock, steps - step + 1);
        for (std::size_t c = 0; c < count; ++c) {
            eval_sources(engine.dt() * static_cast<double>(step + c));
            std::copy(src_vals.begin(), src_vals.end(),
                      in.begin()
                          + static_cast<std::ptrdiff_t>(c * n_src));
        }
        bs.stepBlock(in.data(), count, out.data());
        for (std::size_t c = 0; c < count; ++c)
            for (std::size_t p = 0; p < np; ++p)
                result.waveforms[p].push(out[c * np + p]);
        step += count;
    }
    return result;
}

/**
 * A TransientBlockStepper advanced one step per call and probing every
 * MNA unknown: the single-step form of the engine, as a closed loop
 * drives it.
 */
class SingleStepper
{
  public:
    SingleStepper(const TransientAnalysis &engine,
                  std::span<const double> bias_currents)
        : n_src_(engine.mna().currentSourceNames().size()),
          values_(engine.mna().size()),
          block_(engine.makeBlockStepper(bias_currents,
                                         allUnknowns(values_.size())))
    {
    }

    /** Advance one step with the given current-source values. */
    void
    step(std::span<const double> currents)
    {
        requireSim(currents.size() == n_src_,
                   "stepper: wrong number of current-source values");
        block_.stepBlock(currents.data(), 1, values_.data());
    }

    /** MNA unknown by index after the last step. */
    double value(std::size_t index) const { return values_.at(index); }

    double time() const { return block_.time(); }
    std::size_t stepsTaken() const { return block_.stepsTaken(); }
    void flushMetrics() { block_.flushMetrics(); }

  private:
    static std::vector<std::size_t>
    allUnknowns(std::size_t n)
    {
        std::vector<std::size_t> all(n);
        for (std::size_t i = 0; i < n; ++i)
            all[i] = i;
        return all;
    }

    std::size_t n_src_;
    std::vector<double> values_;
    TransientBlockStepper block_;
};

} // namespace circuit
} // namespace emstress

#endif // EMSTRESS_TESTS_TRANSIENT_ORACLE_H
