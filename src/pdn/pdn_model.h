/**
 * @file
 * Power Delivery Network model following Fig. 1(a) of the paper: a
 * three-stage RLC ladder (PCB, package, die) driven by the VRM on one
 * side and the CPU load current on the other. Provides transient
 * simulation (voltage-noise waveforms), AC impedance sweeps and
 * power-gating-aware die capacitance.
 */

#ifndef EMSTRESS_PDN_PDN_MODEL_H
#define EMSTRESS_PDN_PDN_MODEL_H

#include <array>
#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "circuit/ac.h"
#include "circuit/netlist.h"
#include "circuit/transient.h"
#include "util/sample_sink.h"
#include "util/trace.h"

namespace emstress {
namespace pdn {

/**
 * Electrical parameters of the die–package–PCB ladder. All values SI.
 *
 * The die tank (c_die interacting with l_pkg_die) sets the 1st-order
 * resonance (50–200 MHz); the package decap against the PCB trace
 * inductance sets the 2nd (~1–10 MHz); the bulk capacitance against
 * the VRM-side inductance sets the 3rd (~10–100 kHz).
 */
struct PdnParameters
{
    /// @{ Die stage.
    double r_die = 0.25e-3;      ///< On-chip grid resistance [ohm].
    double c_die_core = 120e-9;  ///< Switchable capacitance per core [F].
    double c_die_uncore = 77e-9; ///< Always-on cluster capacitance [F].
    std::size_t n_cores = 2;     ///< Cores sharing this voltage domain.
    /// @}

    /// @{ Package stage.
    double l_pkg_die = 14e-12;  ///< Package-to-die loop inductance [H].
    double r_pkg = 0.35e-3;     ///< Package trace resistance [ohm].
    double c_pkg = 10e-6;       ///< Package decap [F].
    double esl_pkg = 4e-12;     ///< Package decap series inductance [H].
    double esr_pkg = 0.4e-3;    ///< Package decap series resistance [ohm].
    /// Optional damped bulk branch in parallel with the package
    /// decap (0 disables). Real boards stagger low-ESR ceramics with
    /// lossy bulk capacitors precisely to damp the mid-frequency
    /// anti-resonance; its higher ESL keeps it out of the 1st-order
    /// tank loop.
    double c_pkg_bulk = 0.0;       ///< Damped bulk capacitance [F].
    double esl_pkg_bulk = 100e-12; ///< Bulk branch inductance [H].
    double esr_pkg_bulk = 4e-3;    ///< Bulk branch resistance [ohm].
    /// @}

    /// @{ PCB stage.
    double l_pcb = 1e-9;     ///< PCB power-trace inductance [H].
    double r_pcb = 8e-3;     ///< PCB trace resistance [ohm].
    double c_pcb = 1e-3;     ///< Bulk capacitance [F].
    double esl_pcb = 1e-9;   ///< Bulk cap series inductance [H].
    /// Bulk cap series resistance [ohm]. Deliberately lossy: it also
    /// stands in for the VRM control loop, which actively damps the
    /// low-frequency (3rd-order) anti-resonance on real boards.
    double esr_pcb = 6e-3;
    double l_vrm = 100e-9;   ///< VRM output-filter inductance [H].
    double r_vrm = 1e-3;     ///< VRM output resistance [ohm].
    /// @}

    double v_nom = 1.0; ///< Nominal supply voltage [V].

    /**
     * Total die capacitance with a number of cores powered.
     * @param powered_cores Cores currently not power-gated; clamped
     *        to [1, n_cores] (at least the uncore plus one core's
     *        capacitance is always present while the domain is on).
     */
    double dieCapacitance(std::size_t powered_cores) const;

    /** Predicted 1st-order resonance for a powered-core count [Hz]. */
    double firstOrderResonance(std::size_t powered_cores) const;

    /**
     * Calibrate the die tank against two measured resonance anchors,
     * the procedure DESIGN.md §4 describes: given the resonance with
     * all cores powered and with one core powered, solve the uncore
     * capacitance and the package inductance (per-core capacitance is
     * the free scale parameter).
     *
     * @param f_all_cores 1st-order resonance, all cores powered [Hz].
     * @param f_one_core  1st-order resonance, one core powered [Hz].
     * @param n_cores     Number of cores in the domain (>= 2).
     * @param c_per_core  Switchable capacitance per core [F].
     * @throws ConfigError when the anchors are inconsistent (require
     *         f_one_core > f_all_cores).
     */
    void calibrateDieTank(double f_all_cores, double f_one_core,
                          std::size_t n_cores, double c_per_core);
};

/** Waveforms produced by a PDN transient simulation. */
struct PdnSimResult
{
    Trace v_die;  ///< Die supply voltage [V].
    Trace i_die;  ///< Current through the package-die inductor [A].
};

/**
 * The PDN transient as a sample sink: it advances the transient
 * engine one step per pushed load-current sample and forwards the
 * probed die voltage / package-die current to downstream sinks as they
 * are computed, holding only the stepper state (O(1) in run duration).
 * It is the only way the PDN steps an open-loop load;
 * PdnModel::simulate pushes a whole trace through it.
 *
 * Step convention: the first pushed sample is the t = 0 sample, which
 * is not stepped (the circuit's t = 0 history is the DC point under
 * the mean load), each later sample drives one step, and finish()
 * takes a final step that re-uses the last sample, as if the load
 * were held past its end. The SCL and pulse sources are waveforms,
 * evaluated at each step time `dt * step`.
 *
 * The sink batches samples into a TransientBlockStepper and drains
 * whole kStreamBlock blocks from step 1, the remainder as one tail at
 * finish(). A block's bits depend on that partition, so two streams
 * of one load agree bit for bit on every step both take inside full
 * blocks: a stream cut at a block boundary matches the uncut stream
 * on every step before the cut.
 */
class PdnStreamSink final : public SampleSink
{
  public:
    void push(double i_load) override;

    /** Take the clamped final step and finish the downstream sinks. */
    void finish() override;

    /** Samples emitted downstream so far. */
    std::size_t emitted() const { return emitted_; }

  private:
    friend class PdnModel;
    PdnStreamSink(const circuit::TransientAnalysis &engine, double dt,
                  double mean_load, std::size_t iv_die,
                  std::size_t ii_die, SampleSink *v_die_out,
                  SampleSink *i_die_out,
                  circuit::SourceWaveform i_pulse,
                  circuit::SourceWaveform i_scl);

    /**
     * The block stepper over `engine`, biased at the mean load,
     * probing the die voltage and package-die current unknowns that
     * are given (null: not consumed).
     */
    static circuit::TransientBlockStepper
    makeBlock(const circuit::TransientAnalysis &engine, double mean_load,
              const std::size_t *iv_die, const std::size_t *ii_die);

    void drainBlock();

    /**
     * Source row for the step the next pushed/clamped sample drives:
     * the load, then the SCL and pulse waveforms at `dt_ * step`
     * (0 for an absent SCL).
     */
    void fillSourceRow(double *row, double i_load, std::size_t step)
        const;

    /// Steps the engine, which outlives the sink (owned by the
    /// PdnModel's cache).
    circuit::TransientBlockStepper block_;
    double dt_;
    SampleSink *v_die_out_;
    SampleSink *i_die_out_;
    /// Injected-pulse waveform for the third source column; only
    /// set when the model's pulse source is present (n_src_ == 3).
    circuit::SourceWaveform i_pulse_;
    /// SCL waveform for the second source column (null: 0 A).
    circuit::SourceWaveform i_scl_;
    /// Current sources per step row: 2 ({i_load, i_scl}) without the
    /// pulse source, 3 ({i_load, i_scl, i_pulse}) with it.
    std::size_t n_src_ = 2;
    /// Index of the transient step the next pushed sample drives
    /// (the first push is the t = 0 sample, not a step).
    std::size_t next_step_ = 0;
    /// Probed unknowns per step: v_die and/or i_die, whichever has a
    /// downstream sink, in that order.
    std::size_t n_probe_ = 2;
    /// Block buffers: one source row (stride n_src_) and one probe
    /// row (stride n_probe_) per step of the pending block.
    std::array<double, circuit::kStreamBlock * 3> in_buf_{};
    std::array<double, circuit::kStreamBlock * 2> probe_buf_{};
    std::size_t buffered_ = 0;
    double last_ = 0.0;
    std::size_t emitted_ = 0;
    bool finished_ = false;
};

/**
 * Simulatable PDN. Holds the netlist built from PdnParameters and
 * caches the factored transient engine per timestep, because a GA
 * evaluates thousands of load traces against an unchanged PDN.
 */
class PdnModel
{
  public:
    /** Build the ladder netlist from parameters. */
    explicit PdnModel(const PdnParameters &params);

    /** Parameters the model was built from (reflecting power gating). */
    const PdnParameters &params() const { return params_; }

    /** The die supply node id (for external AC probing). */
    circuit::NodeId dieNode() const { return n_die_; }

    /** Underlying netlist (read-only). */
    const circuit::Netlist &netlist() const { return netlist_; }

    /**
     * Set the number of powered (non-gated) cores, which changes the
     * effective die capacitance and hence the 1st-order resonance.
     * Invalidates cached transient engines.
     */
    void setPoweredCores(std::size_t powered_cores);

    /** Currently powered core count. */
    std::size_t poweredCores() const { return powered_cores_; }

    /**
     * Change the VRM output voltage (V_MIN testing lowers the supply
     * in 10 mV steps). Invalidates cached transient engines.
     */
    void setSupplyVoltage(double v);

    /**
     * Add (or remove) the active-EMFI pulse current source at the
     * die node. The source is part of the netlist, so toggling it
     * rebuilds and invalidates cached engines — but an unchanged
     * setting is a no-op, and a *disabled* pulse source keeps the
     * netlist byte-identical to the passive one. That is what makes
     * "no pulse armed" runs bit-identical to pre-EMFI runs: the
     * fast-path state update groups source columns into fixed-width
     * sweeps, so even an all-zero extra column would reassociate the
     * sums; eliding the column avoids the question entirely.
     */
    void setPulseSource(bool enabled);

    /** True when the netlist carries the i_pulse source. */
    bool pulseSource() const { return pulse_source_; }

    /**
     * Transient simulation driven by a CPU load-current trace (drawn
     * from the die node) and an optional SCL square-wave injector:
     * the whole trace pushed through streamSim, biased at its mean.
     *
     * @param i_load  Load current [A] sampled at the PDN timestep.
     * @param i_scl   Optional second injector waveform (the Juno SCL
     *                block); evaluated at each simulation time.
     * @param i_pulse Optional EMFI pulse waveform; requires the pulse
     *                source (setPulseSource(true)).
     */
    PdnSimResult simulate(const Trace &i_load,
                          const circuit::SourceWaveform &i_scl = nullptr,
                          const circuit::SourceWaveform &i_pulse
                          = nullptr) const;

    /**
     * Build a streaming simulation sink (see PdnStreamSink). Pushing
     * every load sample and calling finish() is simulate(i_load)
     * without materializing any trace.
     *
     * @param dt        Load-sample timestep [s] (selects the cached
     *                  engine).
     * @param mean_load Mean of the full load trace [A]; the circuit
     *                  starts at the DC point under it. Callers sum
     *                  the load first, then push it into this sink.
     * @param v_die_out Downstream sink for the die voltage (may be
     *                  null to skip the probe).
     * @param i_die_out Downstream sink for the package-die inductor
     *                  current (may be null).
     * @param i_pulse   Optional EMFI pulse waveform; requires the
     *                  pulse source (setPulseSource(true)).
     * @param i_scl     Optional SCL injector waveform.
     */
    PdnStreamSink streamSim(double dt, double mean_load,
                            SampleSink *v_die_out,
                            SampleSink *i_die_out,
                            const circuit::SourceWaveform &i_pulse
                            = nullptr,
                            const circuit::SourceWaveform &i_scl
                            = nullptr) const;

    /** Input impedance magnitude at the die node over a grid [ohm]. */
    std::vector<double>
    impedanceMagnitude(const std::vector<double> &freqs_hz) const;

    /**
     * Response to a single current step of the given amplitude:
     * classic Fig. 1(c) ringing waveform.
     * @param amplitude_a Step height [A].
     * @param dt          Simulation timestep [s].
     * @param duration    Simulated time [s].
     */
    PdnSimResult stepResponse(double amplitude_a, double dt,
                              double duration) const;

    /**
     * Response to a square-wave load at a given frequency (50% duty),
     * as used by the SCL resonance sweep and Fig. 2.
     */
    PdnSimResult squareWaveResponse(double freq_hz, double amplitude_a,
                                    double dt, double duration) const;

  private:
    void rebuild();
    const circuit::TransientAnalysis &engineFor(double dt) const;

    PdnParameters params_;
    std::size_t powered_cores_;
    bool pulse_source_ = false;
    circuit::Netlist netlist_;
    circuit::NodeId n_die_ = circuit::kGround;
    mutable std::optional<circuit::TransientAnalysis> engine_;
    mutable double engine_dt_ = 0.0;
};

} // namespace pdn
} // namespace emstress

#endif // EMSTRESS_PDN_PDN_MODEL_H
