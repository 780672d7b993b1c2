/**
 * @file
 * PDN model implementation.
 */

#include "pdn/pdn_model.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/units.h"

namespace emstress {
namespace pdn {

double
PdnParameters::dieCapacitance(std::size_t powered_cores) const
{
    // A fully gated domain (powered_cores == 0) is a different
    // circuit — the rail collapses and the uncore is off too — not
    // the one-core ladder; silently aliasing it to k = 1 hid fig13
    // configuration mistakes. Reject instead of clamping up.
    requireConfig(powered_cores >= 1,
                  "dieCapacitance: powered_cores must be >= 1 (a fully "
                  "power-gated domain has no die ladder to model)");
    const std::size_t k = std::min(powered_cores, n_cores);
    return c_die_uncore + static_cast<double>(k) * c_die_core;
}

double
PdnParameters::firstOrderResonance(std::size_t powered_cores) const
{
    // At the 1st-order resonance the package decap is a short through
    // its ESL, so the tank loop inductance is l_pkg_die + esl_pkg.
    return lcResonanceHz(l_pkg_die + esl_pkg,
                         dieCapacitance(powered_cores));
}

void
PdnParameters::calibrateDieTank(double f_all_cores, double f_one_core,
                                std::size_t n, double c_per_core)
{
    requireConfig(n >= 2, "calibrateDieTank needs at least two cores");
    requireConfig(f_one_core > f_all_cores,
                  "one-core resonance must exceed all-core resonance "
                  "(less capacitance -> higher frequency)");
    requireConfig(c_per_core > 0.0, "per-core capacitance must be > 0");

    // f ~ 1/sqrt(C): with r = (f_one/f_all)^2,
    //   c_u + n*c_c = r * (c_u + c_c)  =>  c_u = c_c * (n - r)/(r - 1).
    const double r = (f_one_core / f_all_cores)
        * (f_one_core / f_all_cores);
    requireConfig(r < static_cast<double>(n),
                  "resonance anchors inconsistent with core count: "
                  "(f_one/f_all)^2 must be below n_cores");
    n_cores = n;
    c_die_core = c_per_core;
    c_die_uncore = c_per_core * (static_cast<double>(n) - r) / (r - 1.0);
    // The decap ESL sits in series within the tank loop; subtract it
    // so the realized ladder hits the anchor. Set esl_pkg before
    // calling this.
    const double l_eff =
        inductanceForResonance(f_all_cores, dieCapacitance(n_cores));
    requireConfig(l_eff > esl_pkg,
                  "package decap ESL exceeds the tank inductance "
                  "implied by the resonance anchors; lower esl_pkg or "
                  "c_per_core");
    l_pkg_die = l_eff - esl_pkg;
}

PdnModel::PdnModel(const PdnParameters &params)
    : params_(params), powered_cores_(params.n_cores)
{
    rebuild();
}

void
PdnModel::rebuild()
{
    netlist_ = circuit::Netlist();
    engine_.reset();
    engine_dt_ = 0.0;

    using circuit::kGround;
    auto &nl = netlist_;

    const auto n_vrm = nl.newNode();
    const auto n_pcb = nl.newNode();
    const auto n_pkg = nl.newNode();
    n_die_ = nl.newNode();

    // Supply rail behind the VRM output filter.
    nl.addVoltageSource("v_supply", n_vrm, kGround, params_.v_nom);
    const auto n_vrm_mid = nl.newNode();
    nl.addResistor("r_vrm", n_vrm, n_vrm_mid, params_.r_vrm);
    nl.addInductor("l_vrm", n_vrm_mid, n_pcb, params_.l_vrm);

    // Bulk capacitance on the PCB (3rd-order tank).
    const auto n_blk1 = nl.newNode();
    const auto n_blk2 = nl.newNode();
    nl.addCapacitor("c_pcb", n_pcb, n_blk1, params_.c_pcb);
    nl.addInductor("esl_pcb", n_blk1, n_blk2, params_.esl_pcb);
    nl.addResistor("esr_pcb", n_blk2, kGround, params_.esr_pcb);

    // PCB power trace to the package (2nd-order tank inductance).
    const auto n_pcb_mid = nl.newNode();
    nl.addResistor("r_pcb", n_pcb, n_pcb_mid, params_.r_pcb);
    nl.addInductor("l_pcb", n_pcb_mid, n_pkg, params_.l_pcb);

    // Package decap (2nd-order tank capacitance).
    const auto n_pkgc1 = nl.newNode();
    const auto n_pkgc2 = nl.newNode();
    nl.addCapacitor("c_pkg", n_pkg, n_pkgc1, params_.c_pkg);
    nl.addInductor("esl_pkg", n_pkgc1, n_pkgc2, params_.esl_pkg);
    nl.addResistor("esr_pkg", n_pkgc2, kGround, params_.esr_pkg);

    // Optional damped bulk branch (anti-resonance damping).
    if (params_.c_pkg_bulk > 0.0) {
        const auto n_blkc1 = nl.newNode();
        const auto n_blkc2 = nl.newNode();
        nl.addCapacitor("c_pkg_bulk", n_pkg, n_blkc1,
                        params_.c_pkg_bulk);
        nl.addInductor("esl_pkg_bulk", n_blkc1, n_blkc2,
                       params_.esl_pkg_bulk);
        nl.addResistor("esr_pkg_bulk", n_blkc2, kGround,
                       params_.esr_pkg_bulk);
    }

    // Package-to-die loop (1st-order tank inductance) — the branch
    // whose current is "I_DIE" in Fig. 2 and the EM radiator feed.
    const auto n_pkg_mid = nl.newNode();
    nl.addResistor("r_pkg", n_pkg, n_pkg_mid, params_.r_pkg);
    nl.addInductor("l_pkg_die", n_pkg_mid, n_die_, params_.l_pkg_die);

    // Die: grid resistance in series with the (power-gating dependent)
    // die capacitance, per Fig. 1(a).
    const auto n_dcap = nl.newNode();
    nl.addResistor("r_die", n_die_, n_dcap, params_.r_die);
    nl.addCapacitor("c_die", n_dcap, kGround,
                    params_.dieCapacitance(powered_cores_));

    // CPU load current, drawn from the die node to ground.
    nl.addCurrentSource("i_load", n_die_, kGround, 0.0);
    // SCL injector shares the die node (Juno OC-DSO block).
    nl.addCurrentSource("i_scl", n_die_, kGround, 0.0);
    // Active-EMFI probe coupling, only when armed: the source order
    // is load, SCL, pulse, and a disabled pulse keeps the passive
    // 2-source netlist byte-identical to the pre-EMFI one.
    if (pulse_source_)
        nl.addCurrentSource("i_pulse", n_die_, kGround, 0.0);
}

void
PdnModel::setPulseSource(bool enabled)
{
    if (enabled == pulse_source_)
        return;
    pulse_source_ = enabled;
    rebuild();
}

void
PdnModel::setPoweredCores(std::size_t powered_cores)
{
    requireConfig(powered_cores >= 1
                      && powered_cores <= params_.n_cores,
                  "powered core count outside [1, n_cores]");
    if (powered_cores == powered_cores_)
        return;
    powered_cores_ = powered_cores;
    rebuild();
}

void
PdnModel::setSupplyVoltage(double v)
{
    requireConfig(v > 0.0, "supply voltage must be positive");
    if (v == params_.v_nom)
        return;
    params_.v_nom = v;
    rebuild();
}

const circuit::TransientAnalysis &
PdnModel::engineFor(double dt) const
{
    if (!engine_ || engine_dt_ != dt) {
        engine_.emplace(netlist_, dt);
        engine_dt_ = dt;
    }
    return *engine_;
}

PdnSimResult
PdnModel::simulate(const Trace &i_load,
                   const circuit::SourceWaveform &i_scl,
                   const circuit::SourceWaveform &i_pulse) const
{
    requireConfig(!i_load.empty(), "PDN simulate needs a load trace");
    // Bias the initial DC point at the mean load so the slow bulk
    // tanks start settled.
    double mean_load = 0.0;
    for (double v : i_load.samples())
        mean_load += v;
    mean_load /= static_cast<double>(i_load.size());

    TraceSink v_die(i_load.dt());
    TraceSink i_die(i_load.dt());
    v_die.reserve(i_load.size());
    i_die.reserve(i_load.size());
    PdnStreamSink sink = streamSim(i_load.dt(), mean_load, &v_die,
                                   &i_die, i_pulse, i_scl);
    for (double v : i_load.samples())
        sink.push(v);
    sink.finish();
    return {v_die.take(), i_die.take()};
}

PdnStreamSink::PdnStreamSink(const circuit::TransientAnalysis &engine,
                             double dt, double mean_load,
                             std::size_t iv_die, std::size_t ii_die,
                             SampleSink *v_die_out,
                             SampleSink *i_die_out,
                             circuit::SourceWaveform i_pulse,
                             circuit::SourceWaveform i_scl)
    : block_(makeBlock(engine, mean_load,
                       v_die_out ? &iv_die : nullptr,
                       i_die_out ? &ii_die : nullptr)),
      dt_(dt), v_die_out_(v_die_out), i_die_out_(i_die_out),
      i_pulse_(std::move(i_pulse)), i_scl_(std::move(i_scl)),
      n_src_(engine.mna().currentSourceNames().size()),
      n_probe_((v_die_out ? 1 : 0) + (i_die_out ? 1 : 0))
{
    if (n_src_ == 3 && !i_pulse_)
        i_pulse_ = [](double) { return 0.0; };
}

circuit::TransientBlockStepper
PdnStreamSink::makeBlock(const circuit::TransientAnalysis &engine,
                         double mean_load, const std::size_t *iv_die,
                         const std::size_t *ii_die)
{
    const std::size_t n_src = engine.mna().currentSourceNames().size();
    requireSim(n_src == 2 || n_src == 3,
               "PDN stream sink expects the load/SCL[/pulse] sources");
    // The circuit starts at the DC point under the mean load. Only
    // the consumed unknowns are probed: each output row of the block
    // mat-vec is summed on its own, so the probe set never changes a
    // row's bits.
    std::array<double, 3> bias{};
    bias[0] = mean_load;
    std::vector<std::size_t> probes;
    for (const std::size_t *p : {iv_die, ii_die})
        if (p)
            probes.push_back(*p);
    return engine.makeBlockStepper(
        std::span<const double>(bias.data(), n_src), probes);
}

void
PdnStreamSink::fillSourceRow(double *row, double i_load,
                             std::size_t step) const
{
    const double t = dt_ * static_cast<double>(step);
    row[0] = i_load;
    row[1] = i_scl_ ? i_scl_(t) : 0.0;
    if (n_src_ == 3)
        row[2] = i_pulse_(t);
}

void
PdnStreamSink::drainBlock()
{
    if (buffered_ == 0)
        return;
    block_.stepBlock(in_buf_.data(), buffered_, probe_buf_.data());
    for (std::size_t r = 0; r < buffered_; ++r) {
        const double *row = probe_buf_.data() + n_probe_ * r;
        if (v_die_out_)
            v_die_out_->push(row[0]);
        if (i_die_out_)
            i_die_out_->push(row[n_probe_ - 1]);
        ++emitted_;
    }
    buffered_ = 0;
}

void
PdnStreamSink::push(double i_load)
{
    if (next_step_ > 0) {
        fillSourceRow(&in_buf_[n_src_ * buffered_], i_load,
                      next_step_);
        if (++buffered_ == circuit::kStreamBlock)
            drainBlock();
    }
    ++next_step_;
    last_ = i_load;
}

void
PdnStreamSink::finish()
{
    if (!finished_ && next_step_ > 0) {
        // The final step holds the last load sample; the SCL and
        // pulse columns are true waveforms, evaluated at its time.
        // drainBlock keeps buffered_ < kStreamBlock, so this step
        // always fits the pending tail.
        fillSourceRow(&in_buf_[n_src_ * buffered_], last_, next_step_);
        ++buffered_;
        drainBlock();
        block_.flushMetrics();
    }
    finished_ = true;
    if (v_die_out_)
        v_die_out_->finish();
    if (i_die_out_)
        i_die_out_->finish();
}

PdnStreamSink
PdnModel::streamSim(double dt, double mean_load, SampleSink *v_die_out,
                    SampleSink *i_die_out,
                    const circuit::SourceWaveform &i_pulse,
                    const circuit::SourceWaveform &i_scl) const
{
    requireConfig(dt > 0.0, "PDN stream needs a positive timestep");
    requireConfig(!i_pulse || pulse_source_,
                  "pulse injection needs the pulse source enabled "
                  "(PdnModel::setPulseSource)");
    const auto &eng = engineFor(dt);
    return PdnStreamSink(eng, dt, mean_load,
                         eng.mna().stateIndexOfNode(n_die_),
                         eng.mna().stateIndexOfBranch("l_pkg_die"),
                         v_die_out, i_die_out, i_pulse, i_scl);
}

std::vector<double>
PdnModel::impedanceMagnitude(const std::vector<double> &freqs_hz) const
{
    circuit::AcAnalysis ac(netlist_);
    return ac.inputImpedance(n_die_, freqs_hz).magnitudes();
}

PdnSimResult
PdnModel::stepResponse(double amplitude_a, double dt,
                       double duration) const
{
    const auto steps = static_cast<std::size_t>(duration / dt);
    Trace load(dt);
    load.reserve(steps);
    // Step fires after a short settled lead-in.
    const std::size_t lead = steps / 10;
    for (std::size_t i = 0; i < steps; ++i)
        load.push(i >= lead ? amplitude_a : 0.0);
    return simulate(load);
}

PdnSimResult
PdnModel::squareWaveResponse(double freq_hz, double amplitude_a,
                             double dt, double duration) const
{
    requireConfig(freq_hz > 0.0, "square wave frequency must be > 0");
    requireConfig(dt < 0.5 / freq_hz,
                  "timestep too coarse for the square-wave frequency");
    const auto steps = static_cast<std::size_t>(duration / dt);
    const double period = 1.0 / freq_hz;
    Trace load(dt);
    load.reserve(steps);
    for (std::size_t i = 0; i < steps; ++i) {
        const double t = dt * static_cast<double>(i);
        const double phase = std::fmod(t, period) / period;
        load.push(phase < 0.5 ? amplitude_a : 0.0);
    }
    return simulate(load);
}

} // namespace pdn
} // namespace emstress
