/**
 * @file
 * Fixed-step transient analysis over a state-space realization of an
 * RLC netlist (DESIGN.md §12).
 *
 * The state holds only the storage elements: capacitor voltages and
 * inductor currents, less one per capacitor loop or inductor cutset,
 * whose constraints make some of them dependent. Every MNA unknown
 * (node voltages, inductor and voltage-source branch currents) is an
 * output row `x = C·z + D·u + x0` of that state and the current-source
 * inputs u. The dynamics `dz/dt = A·z + B·u + b` are integrated with
 * the implicit trapezoidal rule — A-stable and amplitude-preserving
 * for LC tanks, which is essential here: the whole point of the PDN
 * model is resonant ringing. Because the outputs are read off the
 * state at every time point, the network's algebraic constraints
 * (KCL, KVL and the sources) hold exactly at each step.
 *
 * The state is kept in energy coordinates (each capacitor voltage
 * scaled by √C, each inductor current by √L, on an orthonormal basis
 * of what the constraints admit), where stored energy is half the
 * squared norm. A network of positive R, L and C only loses energy,
 * so `A + Aᵀ` is negative semidefinite there and the trapezoidal
 * (Cayley) map `M = (I - hA/2)⁻¹(I + hA/2)` has 2-norm at most one:
 * every power of it is safe to form and to apply. The engine checks
 * this at construction (a fail-closed stability guard, see
 * TransientAnalysis) and throws ConfigError for a netlist whose
 * update grows within kStableHorizonSteps steps.
 *
 * The realization is built once per (netlist, dt) in long double and
 * stored in double. It has one execution form, TransientBlockStepper:
 * the PDN stream sink drives it in whole kStreamBlock blocks, and a
 * closed loop (the adaptive clock) advances it one step per call,
 * where it takes the engine's single step. Results are bit-identical
 * run-to-run and across thread counts: the step arithmetic is
 * sequential and the operation order is fixed.
 *
 * Known limitation (trapezoidal's ρ(∞) = 1): a mode whose time
 * constant is far below dt alternates sign from step to step while it
 * decays instead of settling in one step, and where a current source
 * drives an inductor directly (in series with it) the inductor's
 * voltage, L·du/dt, takes the trapezoidal derivative estimate, which
 * rings at the Nyquist frequency without decaying after a kink in the
 * input. The shipped PDNs have no such source; low-pass the probe
 * like the real scopes do if this matters.
 */

#ifndef EMSTRESS_CIRCUIT_TRANSIENT_H
#define EMSTRESS_CIRCUIT_TRANSIENT_H

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "circuit/mna.h"
#include "circuit/netlist.h"

namespace emstress {
namespace circuit {

/** Waveform for one current source: value in amps at time t. */
using SourceWaveform = std::function<double(double t_seconds)>;

/**
 * Agreement contract between a TransientBlockStepper advanced in full
 * blocks and one advanced a single step per call, pinned by
 * tests/test_transient_parity.cc and tests/test_mitigation.cc: both
 * advance the same realization, but a full block folds kStreamBlock
 * steps into powers of the transition matrix, so its rounding differs
 * in the low bits. Weakly damped modes integrate that difference; the
 * bound is relative to the waveform's scale.
 */
inline constexpr double kBlockedStreamParityTol = 1e-7;

/// Steps folded into one precomputed multi-step update by
/// TransientBlockStepper (also its input-buffer capacity).
inline constexpr std::size_t kStreamBlock = 8;

/// Horizon, in steps, over which the construction-time stability
/// guard requires the blocked update not to grow: longer than any
/// caller steps one engine (a paper-budget window is ~2e4 steps).
inline constexpr std::size_t kStableHorizonSteps = 1'000'000;

class TransientBlockStepper;

/**
 * Reusable transient engine. Builds the state-space realization and
 * its block tables once per (netlist, dt) pair; any number of
 * steppers can then run over it with different inputs — the usage
 * pattern of a GA that evaluates thousands of individuals against
 * one PDN.
 *
 * In its stored form the state is σ_t = ξ_t - N·u_t - ξ*: the
 * energy-coordinate storage state ξ less the part N·u the current
 * input adds over the step, measured from the zero-input equilibrium
 * ξ*. That removes both the input history and the constant supply
 * from the state vector, so a step is
 *   σ_{t+1} = M·σ_t + G·u_t,   x_t = y0 + C·σ_t + D·u_t,
 * with M the trapezoidal map and y0 the zero-input operating point.
 */
class TransientAnalysis
{
    friend class TransientBlockStepper;

  public:
    /**
     * Prepare the engine.
     * @param netlist Circuit to simulate (copied into the MNA form).
     * @param dt      Fixed timestep in seconds.
     * @throws ConfigError when the update grows within
     *         kStableHorizonSteps steps (an active or numerically
     *         unstable netlist).
     * @throws SimulationError when the resistive network left by
     *         replacing the storage elements with sources is singular
     *         (a floating node).
     */
    TransientAnalysis(const Netlist &netlist, double dt);

    /** Timestep in seconds. */
    double dt() const { return dt_; }

    /** The underlying MNA system (for output-index queries). */
    const MnaSystem &mna() const { return mna_; }

    /**
     * State length: one per capacitor and inductor, less one per
     * capacitor loop or inductor cutset, plus one derivative estimate
     * per current source when a source drives an inductor directly.
     */
    std::size_t stateCount() const { return ns_; }

    /**
     * Create a stepper. An open-loop stream, where the next source
     * value never depends on the previous output, advances it in
     * blocks: it folds kStreamBlock steps into precomputed powers of
     * the transition matrix and reads only the requested output rows,
     * so a full block costs one small dense mat-vec instead of
     * kStreamBlock single steps. A closed loop, whose next input
     * depends on the last output, advances it one step per call.
     *
     * The circuit starts at its DC operating point under
     * `bias_currents` (empty means the sources' netlist DC values),
     * which is also the trapezoidal history of the first step. Full
     * blocks agree with single steps to kBlockedStreamParityTol (not
     * bitwise: the matrix powers reassociate the same algebra). Two
     * steppers fed the same inputs in the same block partition agree
     * bit for bit, run-to-run and across thread counts.
     *
     * @param probe_indices MNA unknowns (MnaSystem::stateIndexOf...)
     *        whose values stepBlock reports per advanced step, in
     *        this order.
     */
    TransientBlockStepper makeBlockStepper(
        std::span<const double> bias_currents,
        std::span<const std::size_t> probe_indices) const;

  private:
    /**
     * One step: `next` = M·`sigma` + G·`u`, the M columns four per
     * sweep and then one axpy per source in source order, so results
     * are bit-identical run-to-run and across thread counts. The
     * block stepper's partial blocks take it. `sigma` and `next` are
     * distinct buffers of rp_ doubles.
     */
    void step(const double *sigma, const double *u,
              double *next) const;

    /**
     * MNA unknown `row` at the state `sigma` and input `u`:
     * y0 + (C·σ + D·u), summed in one fixed order (the block
     * stepper's partial blocks).
     */
    double output(std::size_t row, const double *sigma,
                  const double *u) const;

    /** `bias`, or the netlist DC values when it is empty. */
    std::span<const double> biasOrDc(std::span<const double> bias) const;

    /**
     * The stored state at the DC operating point under `bias` (the
     * equilibrium of the step under constant input): K·bias, padded
     * to rp_ doubles. Empty `bias` means the netlist DC values.
     */
    std::vector<double> initialState(std::span<const double> bias) const;

    /**
     * Square the stored block update and single step out to
     * kStableHorizonSteps steps and throw ConfigError if a Frobenius
     * norm ever grows. In energy
     * coordinates the Cayley map of a passive netlist has 2-norm at
     * most one, under which squaring never increases the Frobenius
     * norm (‖X²‖_F ≤ ‖X‖₂‖X‖_F), so growth beyond rounding marks an
     * active or numerically unstable realization.
     */
    void checkStable() const;

    double dt_;
    MnaSystem mna_;
    std::size_t ns_ = 0;    ///< Storage states.
    std::size_t rp_ = 0;    ///< ns_ rounded up to 4 (vector width).
    std::size_t n_src_ = 0; ///< Current sources.

    /// @{ Realization tables, column-major with rp_-row columns and
    /// zero padding rows, shared by every stepper.
    std::vector<double> m1_;  ///< M, rp_ x rp_.
    std::vector<double> g1_;  ///< G, rp_ x n_src_.
    std::vector<double> mk_;  ///< M^k (k = kStreamBlock), rp_ x rp_.
    /// Block input images [M^{k-1}G | ... | M G | G], rp_ x k·n_src_:
    /// column m·n_src_ + s carries input s of the block's step m + 1.
    std::vector<double> gam_;
    std::vector<double> kbias_; ///< K, rp_ x n_src_ (initialState).
    /// @}

    /// @{ Output tables over all MNA unknowns (n = mna_.size()).
    /// crow_: C·M^j for j = 0..k-1, k blocks of n rows x rp_ columns,
    /// row-major. hrow_: H_j, k blocks of n x n_src_ row-major, with
    /// H_0 = D the direct feedthrough and H_j = C·M^{j-1}·G the
    /// response j steps after an input. y0_: the zero-input operating
    /// point.
    std::vector<double> crow_;
    std::vector<double> hrow_;
    std::vector<double> y0_;
    /// @}
};

/**
 * Blocked stream stepper over the engine's realization (see
 * TransientAnalysis::makeBlockStepper). For a block of k =
 * kStreamBlock inputs U = [u_1 .. u_k] it computes
 *
 *   y_j  = y0 + C·M^{j-1}·σ + Σ_{m ≤ j} H_{j-m}·u_m   (j = 1..k)
 *   σ'   = M^k·σ + Γ·U,
 *
 * the probe outputs of every step of the block and the state after
 * it, as one mat-vec F·[U | σ] with F = [T W; Γ M^k] gathered once
 * per stepper from the engine's tables: T holds the lower
 * block-triangular probe/input couplings H, W the probe rows of
 * C·M^{j-1}. The input columns come first, so only the last sweeps
 * of a block wait on the previous block's state. Partial blocks (a
 * stream's tail, or a closed loop's single steps) take the engine's
 * single step.
 *
 * Every loop has a fixed accumulation order with vector lanes
 * carrying independent rows, so results are bit-identical
 * run-to-run and across thread counts. Counts its steps and flushes
 * them to the metrics registry (circuit.transient.steps and
 * circuit.transient.state_updates), plus
 * circuit.transient.stream_blocks per full block, on destruction or
 * flushMetrics().
 */
class TransientBlockStepper
{
  public:
    ~TransientBlockStepper();
    TransientBlockStepper(TransientBlockStepper &&other) noexcept;
    TransientBlockStepper &operator=(TransientBlockStepper &&)
        = delete;

    /** Current simulation time [s]. */
    double time() const { return time_; }

    /** Steps taken since construction. */
    std::size_t stepsTaken() const { return steps_taken_; }

    /**
     * Advance `count` timesteps at once.
     *
     * @param currents  count x n_src instantaneous source values,
     *        row-major (MnaSystem::currentSourceNames order within a
     *        row); row c applies to the c-th advanced step.
     * @param count     Steps to advance, 1..kStreamBlock.
     * @param probe_out count x n_probes values, row-major: the
     *        requested probe values after each advanced step, in
     *        makeBlockStepper's probe order.
     */
    void stepBlock(const double *currents, std::size_t count,
                   double *probe_out);

    /**
     * Flush the not-yet-reported counts to the metrics registry.
     * Idempotent; also runs on destruction, so callers only need it
     * when a consistent registry snapshot is read while the stepper
     * is still alive.
     */
    void flushMetrics();

  private:
    friend class TransientAnalysis;
    TransientBlockStepper(const TransientAnalysis &engine,
                          std::span<const double> bias_currents,
                          std::span<const std::size_t> probe_indices);

    const TransientAnalysis &engine_;
    std::size_t rp_ = 0;    ///< State length (engine's, padded).
    std::size_t n_src_ = 0; ///< Current sources.
    std::size_t np_ = 0;    ///< Probes.
    std::size_t rows_ = 0;  ///< F rows: kStreamBlock·np_ + rp_.
    std::size_t cols_ = 0;  ///< F columns: kStreamBlock·n_src_ + rp_.
    std::vector<std::size_t> probes_;
    /// F = [T W; Γ M^k], column-major rows_ x cols_.
    std::vector<double> f_;
    std::vector<double> y0_;   ///< Probe operating points, np_.
    /// z = [U | σ]: the block's inputs, then the current state.
    std::vector<double> z_;
    std::vector<double> out_;  ///< F·z, rows_.
    std::vector<double> next_; ///< Tail-step scratch, rp_.
    double time_ = 0.0;
    std::size_t steps_taken_ = 0;
    std::size_t pending_steps_ = 0;
    std::size_t pending_blocks_ = 0;
};

} // namespace circuit
} // namespace emstress

#endif // EMSTRESS_CIRCUIT_TRANSIENT_H
