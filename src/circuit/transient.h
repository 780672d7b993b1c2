/**
 * @file
 * Fixed-step transient analysis over an MNA system. Storage rows use
 * the implicit trapezoidal rule — A-stable and amplitude-preserving
 * for LC tanks, which is essential here: the whole point of the PDN
 * model is resonant ringing. Pure algebraic rows (KCL at
 * storage-free nodes, voltage-source rows) are enforced exactly at
 * each new time point, removing the trapezoidal rule's spurious
 * index-1 averaging mode.
 *
 * Two step implementations share that discretization (DESIGN.md §12):
 *
 *  - TransientMethod::FastState (default): the PDN is a small
 *    fixed-topology *LTI* system on a fixed timestep, so the whole
 *    per-step linear solve is precomputable. At construction the
 *    engine forms the dense state-update `A = lhs⁻¹ · rhs_mult` and
 *    the per-source injection images once per (netlist, dt), as the
 *    compact linear-time-invariant form S' = T S + B u over the state
 *    S = [x | u_prev | 1]. A single step is one column-major T · S
 *    mat-vec plus one injection axpy per source, accumulated in a
 *    fixed column order (axpy order), which the vectorizer keeps in
 *    full SIMD lanes without reassociating any per-element sum —
 *    allocation-free and branch-free. Open-loop executions (run() and
 *    the PDN streaming sinks) further fold kStreamBlock steps into
 *    precomputed transition powers (TransientBlockStepper), reading
 *    probes through stacked power rows — roughly a 3x flop cut on
 *    PDN-sized systems over stepping every sample; the closed-loop
 *    TransientStepper takes the block stepper's own single step.
 *  - TransientMethod::ReferenceLu: the original per-step LU
 *    forward/back substitution, selected only by an explicit
 *    constructor argument. Algebraically identical, kept as the test
 *    oracle for the fast path.
 *    Known limitation: at extreme stiffness ratios (element C/dt some
 *    seven decades above the conductances, e.g. the PDN's 1 mF bulk
 *    capacitor at dt = 1e-10) the per-step substitution's rounding
 *    feeds a slowly growing mode (~e^(1e-4 per step), measured),
 *    while the precomputed state-update stays contractive —
 *    tests/test_transient_parity.cc pins the fast path's boundedness
 *    there.
 *
 * The fast path reassociates floating-point operations, so the two
 * paths agree only to kStateUpdateParityTol (not bit-exactly); the
 * contract is pinned by tests/test_transient_parity.cc. On either
 * path, results are bit-identical run-to-run and across thread
 * counts: the step arithmetic is sequential and the operation order
 * is fixed.
 *
 * Known limitation (trapezoidal's ρ(∞) = 1, i.e. "trapezoidal
 * ringing"): source discontinuities can leave a *bounded*,
 * non-decaying Nyquist-frequency ripple on chains of storage-free
 * nodes behind inductors. It is negligible (µV-scale) on the PDN
 * topologies this project ships, whose functional nodes all carry
 * capacitance; avoid building long cap-free R-L chains if µV
 * accuracy matters there, or low-pass the probe like the real
 * scopes do.
 */

#ifndef EMSTRESS_CIRCUIT_TRANSIENT_H
#define EMSTRESS_CIRCUIT_TRANSIENT_H

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "circuit/mna.h"
#include "circuit/netlist.h"
#include "util/trace.h"

namespace emstress {
namespace circuit {

/** What a probe observes. */
enum class ProbeKind
{
    NodeVoltage,   ///< Voltage of a node versus ground.
    BranchCurrent, ///< Current through an inductor or voltage source.
};

/** A named observation point recorded during the transient run. */
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

/** Waveform for one current source: value in amps at time t. */
using SourceWaveform = std::function<double(double t_seconds)>;

/** Result of a transient run: one Trace per probe, in probe order. */
struct TransientResult
{
    std::vector<std::string> labels;
    std::vector<Trace> waveforms;

    /** Waveform lookup by probe label. @throws ConfigError if absent. */
    const Trace &trace(const std::string &label) const;
};

/** Which step implementation a TransientAnalysis uses. */
enum class TransientMethod
{
    /// Precomputed dense state-update (default; fast).
    FastState,
    /// Per-step LU substitution (the tests' reference oracle).
    ReferenceLu,
};

/**
 * Documented fast-vs-reference parity contract, pinned by
 * tests/test_transient_parity.cc. Two horizons, because the paths
 * are algebraically identical but not bit-identical, and weakly
 * damped modes integrate the per-step rounding difference:
 *
 *  - Short horizon (first kParityShortSteps steps from a common
 *    initial state): max |x_fast - x_lu| stays below
 *    kStateUpdateParityTolShort relative to the running max |x| of
 *    the reference — this is the "same algebra" check; measured
 *    agreement is orders tighter on non-stiff netlists.
 *  - Full trajectory (>= 1e5 steps): the relative divergence stays
 *    below kStateUpdateParityTol. On stiff production netlists (the
 *    PDN's 1 mF bulk capacitor) the slow tanks resonantly amplify
 *    per-step rounding noise to ~1e-3 relative before damping caps
 *    it, so a tighter whole-run bound would be dishonest for EITHER
 *    pair of valid solvers.
 *
 * On both horizons, algebraic-row constraints (G x = s on
 * storage-free rows) hold to solver precision on both paths.
 */
inline constexpr double kStateUpdateParityTol = 1e-2;
inline constexpr double kStateUpdateParityTolShort = 1e-7;
inline constexpr std::size_t kParityShortSteps = 100;

/**
 * Agreement contract between the blocked stream stepper
 * (TransientBlockStepper) on full blocks and the per-step fast path,
 * pinned by tests/test_transient_parity.cc: both advance the same
 * precomputed update, but a full block folds kStreamBlock steps into
 * powers of the transition matrix, so its rounding differs in the
 * low bits.
 * As with the LU-parity contract, weakly damped modes integrate the
 * per-step rounding difference: measured divergence on the stiff
 * production PDN reaches ~1e-8 relative within a few thousand
 * steps, leaving this bound ~7x of headroom over the horizons the
 * tests pin.
 */
inline constexpr double kBlockedStreamParityTol = 1e-7;

/// Steps folded into one precomputed multi-step update by
/// TransientBlockStepper (also its input-buffer capacity).
inline constexpr std::size_t kStreamBlock = 8;

class TransientStepper;
class TransientBlockStepper;

/**
 * Reusable transient engine. Precomputes the trapezoidal
 * state-update (or factors the system matrix, for the reference
 * path) once per (netlist, dt) pair; run() can then be called many
 * times with different source waveforms — the usage pattern of a GA
 * that evaluates thousands of individuals against one PDN.
 */
class TransientAnalysis
{
    friend class TransientStepper;
    friend class TransientBlockStepper;

  public:
    /**
     * Prepare the engine.
     * @param netlist Circuit to simulate (copied into the MNA form).
     * @param dt      Fixed timestep in seconds.
     * @param method  Step implementation; ReferenceLu is the tests'
     *                oracle.
     */
    TransientAnalysis(const Netlist &netlist, double dt,
                      TransientMethod method
                      = TransientMethod::FastState);

    ~TransientAnalysis();
    TransientAnalysis(TransientAnalysis &&) noexcept;
    TransientAnalysis &operator=(TransientAnalysis &&) noexcept;

    /** Timestep in seconds. */
    double dt() const { return dt_; }

    /** The underlying MNA system (for index queries). */
    const MnaSystem &mna() const { return mna_; }

    /** Step implementation. */
    TransientMethod method() const { return method_; }

    /**
     * Run for a number of steps starting from a DC operating point.
     *
     * @param steps     Number of timesteps to advance.
     * @param waveforms One waveform per current source, in
     *                  MnaSystem::currentSourceNames() order.
     * @param probes    Observation points to record.
     * @param bias_currents Current-source values used to compute the
     *                  initial DC operating point. Pass the mean of
     *                  each waveform so slow storage elements start
     *                  settled; empty means the waveforms' t = 0
     *                  values. The trapezoidal source history always
     *                  starts from the waveforms' t = 0 values.
     */
    TransientResult run(std::size_t steps,
                        const std::vector<SourceWaveform> &waveforms,
                        const std::vector<Probe> &probes,
                        std::span<const double> bias_currents = {})
        const;

    /**
     * Create an incremental stepper for closed-loop simulations
     * where each step's source values depend on previously observed
     * outputs (e.g. an adaptive-clocking throttle reacting to die
     * voltage). The stepper references this engine; keep the engine
     * alive while stepping.
     *
     * The initial-state convention is single and matches run(): the
     * DC operating point is solved at `bias_currents` (falling back
     * to `initial_currents`, then to the sources' netlist DC values)
     * and the trapezoidal source history starts at
     * `initial_currents` (falling back to `bias_currents`, then DC
     * values) — no separate priming call exists or is needed. On the
     * reference path `makeStepper(bias, {waveforms at t = 0})`
     * replays run(steps, waveforms, probes, bias) bit-exactly; on
     * the fast path run() executes the same algebra in kStreamBlock
     * folds (see makeBlockStepper), so a per-step stepper agrees
     * with it to kBlockedStreamParityTol while a block stepper fed
     * run()'s block boundaries replays it bit-exactly. A fast-path
     * stepper takes exactly the block stepper's single-step update,
     * so it replays a block stepper advanced one step at a time
     * bit-exactly.
     *
     * @param bias_currents    Current-source values for the initial
     *        DC operating point.
     * @param initial_currents Current-source values at t = 0 seeding
     *        the trapezoidal source history.
     */
    TransientStepper makeStepper(
        std::span<const double> bias_currents = {},
        std::span<const double> initial_currents = {}) const;

    /**
     * Create a blocked stream stepper: the high-throughput form of
     * the fast path for open-loop streams, where the next source
     * value never depends on the previous output. It folds
     * kStreamBlock steps into precomputed powers of the transition
     * matrix and reads only the requested probe rows per step, so a
     * full block costs one dense update plus a handful of short
     * dots instead of kStreamBlock full mat-vecs.
     *
     * Initial-state convention is identical to makeStepper (same
     * bias/initial fallbacks). Full blocks agree with a per-step
     * TransientStepper to kBlockedStreamParityTol (not bitwise: the
     * matrix powers reassociate the same algebra), and are
     * bit-identical run-to-run and across thread counts. run()'s
     * fast path itself executes through this stepper with blocks
     * aligned from step 1, so feeding one the same whole-block
     * partition replays run() bit-exactly — the invariant that keeps
     * streaming sinks sample-for-sample equal to batch simulation.
     *
     * @param probe_indices MNA state indices whose values stepBlock
     *        reports per advanced step, in this order. The engine
     *        must use TransientMethod::FastState.
     */
    TransientBlockStepper makeBlockStepper(
        std::span<const double> bias_currents,
        std::span<const double> initial_currents,
        std::span<const std::size_t> probe_indices) const;

  private:
    /**
     * One fast-path step over the compact state: `s_next` =
     * T · `s` + G_0 · `u`, with `u` (n_src values) moved into the
     * u_prev slots and the constant slot set to 1. `s` and `s_next`
     * are distinct buffers of q_ doubles. The accumulation order is
     * fixed — the T columns four per sweep, then one injection axpy
     * per source in source order — so results are bit-identical
     * run-to-run and across thread counts. Shared by the per-step
     * TransientStepper and the block stepper's tail.
     */
    void compactStep(const double *s, const double *u,
                     double *s_next) const;

    /**
     * A stepper's initial state under the single (bias, initial)
     * convention documented at makeStepper: the DC point x0 on the
     * reference path, the compact state [x0 | u_prev | 1 | padding]
     * on the fast path.
     */
    std::vector<double> initialState(
        std::span<const double> bias_currents,
        std::span<const double> initial_currents) const;

    /** Precompute the compact fast-path tables tpow_ and gpow_. */
    void buildStateUpdate();

    double dt_;
    MnaSystem mna_;
    TransientMethod method_;
    /// Prefactored left-hand matrix: trapezoidal (C/dt + G/2) on
    /// dynamic rows, plain G on algebraic rows.
    std::unique_ptr<LuSolver<double>> lhs_;
    /// Right-hand multiplier: (C/dt - G/2) on dynamic rows, zero on
    /// algebraic rows.
    Matrix<double> rhs_mult_;
    /// True for rows with no storage entries (pure constraints).
    std::vector<bool> algebraic_row_;

    /// @{ FastState precomputation over the compact LTI form
    ///   S = [x (xpad_ slots) | u_prev | 1 | zero padding]
    /// of width q_ (multiple of 4): the x-rows of the transition
    /// powers T^j for j = 1..kStreamBlock (column-major xpad_ x q_
    /// blocks, concatenated) and of the input images G_m = T^m B
    /// (xpad_ x n_src blocks, concatenated). T folds the state
    /// transition A = lhs⁻¹ · rhs_mult, the trapezoidal u_prev images
    /// and the constant voltage-source image; G_0 holds the u images.
    /// Zero rows/columns pad every loop to whole 4-wide sweeps. Built
    /// once per engine; shared by run() and every stepper, which is
    /// what keeps batch and stream executions of one engine
    /// bit-identical.
    std::size_t xpad_ = 0; ///< mna size rounded up to 4.
    std::size_t q_ = 0;
    std::vector<double> tpow_;
    std::vector<double> gpow_;
    /// @}
};

/**
 * Incremental interface to a transient simulation: advance one
 * timestep at a time with caller-chosen source values, observing the
 * state after each step. Counts its steps and flushes them to the
 * metrics registry (circuit.transient.steps plus the active path's
 * solve counter) on destruction or flushMetrics().
 */
class TransientStepper
{
  public:
    ~TransientStepper();
    TransientStepper(TransientStepper &&other) noexcept;
    TransientStepper &operator=(TransientStepper &&) = delete;

    /** Current simulation time [s]. */
    double time() const { return time_; }

    /**
     * Advance one timestep with the given instantaneous
     * current-source values (MnaSystem::currentSourceNames order).
     */
    void step(std::span<const double> currents);

    /** State value by MNA index (see MnaSystem::stateIndexOf...). */
    double value(std::size_t state_index) const;

    /** Steps taken since construction. */
    std::size_t stepsTaken() const { return steps_taken_; }

    /**
     * Flush this stepper's not-yet-reported step counts to the
     * metrics registry (circuit.transient.steps and, depending on
     * the engine path, circuit.transient.state_updates or
     * circuit.transient.lu_solves). Idempotent; also runs on
     * destruction, so callers only need it when a consistent
     * registry snapshot is read while the stepper is still alive.
     */
    void flushMetrics();

  private:
    friend class TransientAnalysis;
    TransientStepper(const TransientAnalysis &engine,
                     std::span<const double> bias_currents,
                     std::span<const double> initial_currents);

    const TransientAnalysis &engine_;
    /// State vector: the compact state S on the fast path (x in
    /// slots [0, n), then u_prev/1), plain length-n state on the
    /// reference path.
    std::vector<double> x_;
    /// FastState double buffer, swapped with x_ each step.
    std::vector<double> x_next_;
    /// @{ ReferenceLu buffers: assembled source vectors and rhs.
    std::vector<double> s_prev_;
    std::vector<double> s_now_;
    std::vector<double> rhs_;
    /// @}
    double time_ = 0.0;
    std::size_t steps_taken_ = 0;
    std::size_t pending_steps_ = 0;
};

/**
 * Blocked stream stepper over the precomputed state-update (see
 * TransientAnalysis::makeBlockStepper). Works on the compact
 * linear-time-invariant form of the update,
 *
 *   S_{n+1} = T S_n + B u_n,   S = [x | u_prev | 1 | zero padding],
 *
 * and uses the engine's once-per-(netlist, dt) tables of the x-rows
 * of T^j for j = 1..kStreamBlock and of the input images
 * G_m = T^m B, plus two small per-stepper tables: the probe rows of
 * every power stacked into one matrix W, and the per-step
 * probe/input coupling scalars. A full block of k inputs then costs
 * one W·S mat-vec (all probe outputs of the block), one T^k·S
 * mat-vec plus k short input axpys (the state), and a triangle of
 * scalar corrections — ~3x fewer flops than k single steps at the
 * production PDN's size. Partial blocks (the stream tail) fall back
 * to the engine's single step (the one TransientStepper takes), with
 * probes read straight from the state.
 *
 * Every loop has a fixed accumulation order with vector lanes
 * carrying independent rows, so results are bit-identical
 * run-to-run and across thread counts; full-block probe row k and
 * the new state are computed in the identical column order, so the
 * last emitted sample of a block always equals the state value a
 * tail step would expose. Counts steps like TransientStepper and
 * flushes them to
 * the same counters, plus circuit.transient.stream_blocks per full
 * block.
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
     *        requested probe states after each advanced step, in
     *        makeBlockStepper's probe order.
     */
    void stepBlock(const double *currents, std::size_t count,
                   double *probe_out);

    /** See TransientStepper::flushMetrics. */
    void flushMetrics();

  private:
    friend class TransientAnalysis;
    TransientBlockStepper(const TransientAnalysis &engine,
                          std::span<const double> bias_currents,
                          std::span<const double> initial_currents,
                          std::span<const std::size_t> probe_indices);

    const TransientAnalysis &engine_;
    std::size_t xpad_ = 0;  ///< x rows, multiple of 4 (engine's).
    std::size_t n_src_ = 0; ///< Current sources.
    std::size_t q_ = 0;     ///< S width, multiple of 4.
    std::size_t np_ = 0;    ///< Probes.
    std::size_t wrows_ = 0; ///< W rows, kStreamBlock*np_ padded to 4.
    std::vector<std::size_t> probes_;
    /// W: probe rows of T^1..T^k stacked, column-major
    /// wrows_ x q_; row (j-1)*np_+p is probe p after step j.
    std::vector<double> w_;
    /// Probe/input couplings (T^{j-1-m} B)[p][s], laid out in the
    /// exact (j, m, p, s) order stepBlock consumes them.
    std::vector<double> pg_;
    std::vector<double> s_;      ///< Current S, length q_.
    std::vector<double> s_next_; ///< Double buffer, length q_.
    std::vector<double> ybuf_;   ///< Padded probe scratch, wrows_.
    double time_ = 0.0;
    std::size_t steps_taken_ = 0;
    std::size_t pending_steps_ = 0;
    std::size_t pending_blocks_ = 0;
};

} // namespace circuit
} // namespace emstress

#endif // EMSTRESS_CIRCUIT_TRANSIENT_H
