/**
 * @file
 * Platform implementation and the three paper configurations.
 */

#include "platform/platform.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "pdn/resonance.h"
#include "util/error.h"
#include "util/metrics.h"
#include "util/units.h"

namespace emstress {
namespace platform {

namespace {

/**
 * Refine the die-tank inductance so the *realized* 1st-order
 * resonance of the full ladder (which the upstream stages shift
 * slightly away from the ideal LC value) lands on the measured
 * anchor.
 */
void
refineDieTank(pdn::PdnParameters &params, double f_target_hz)
{
    for (int i = 0; i < 4; ++i) {
        pdn::PdnModel model(params);
        const double realized = pdn::firstOrderResonanceHz(model);
        const double ratio = realized / f_target_hz;
        params.l_pkg_die *= ratio * ratio;
    }
}

/**
 * Relative per-core start stagger in seconds. Instances launched
 * together run near-lockstep, so the stagger is ~1 ns: it must stay
 * a small fraction of the 1st-order resonance period (~13-15 ns) on
 * every platform, otherwise the summed multi-core current would
 * artificially cancel at exactly the resonant loop periods. A fixed
 * *cycle* stagger would do that on slow clocks.
 */
constexpr double kCorePhaseStagger = 1e-9;

/** Extra simulated lead time discarded to let the PDN settle [s]. */
constexpr double kSettleTime = 0.5e-6;

isa::InstructionPool
poolFor(isa::IsaFamily isa)
{
    return isa == isa::IsaFamily::ArmV8
        ? isa::InstructionPool::armV8()
        : isa::InstructionPool::x86Sse2();
}

instruments::SpectrumAnalyzerParams
analyzerParamsFor(const PlatformConfig &)
{
    instruments::SpectrumAnalyzerParams p;
    p.f_start_hz = mega(10.0);
    p.f_stop_hz = mega(500.0);
    return p;
}

instruments::OscilloscopeParams
scopeParamsFor(const PlatformConfig &cfg)
{
    return cfg.visibility == VoltageVisibility::KelvinPads
        ? instruments::kelvinScopeParams()
        : instruments::ocDsoParams();
}

/**
 * Streaming multi-core summation: replays finishRun's rotation sum
 *
 *     total[k] = sum_c one[(k + c*stagger) % N] * v_scale  (+ idle)
 *
 * sample-exactly while holding only the first (cores-1)*stagger
 * samples (the wrapped tail terms re-read the stream's head) and a
 * ring of the most recent (cores-1)*stagger + 1 samples. Output k is
 * emitted once input k + (cores-1)*stagger has arrived; the final
 * (cores-1)*stagger outputs flush in finish().
 */
class StaggerSumSink final : public SampleSink
{
  public:
    StaggerSumSink(SampleSink &downstream, std::size_t n_in,
                   std::size_t stagger_cycles, std::size_t cores,
                   double v_scale, double extra_idle)
        : downstream_(downstream), n_in_(n_in), st_(stagger_cycles),
          cores_(cores), v_scale_(v_scale), extra_idle_(extra_idle),
          max_shift_(stagger_cycles * (cores - 1)),
          ring_(max_shift_ + 1, 0.0)
    {
        requireSim(n_in > stagger_cycles * cores,
                   "core trace too short for phase-shifted summation");
        head_.reserve(max_shift_);
    }

    void
    push(double v) override
    {
        if (head_.size() < max_shift_)
            head_.push_back(v);
        ring_[seen_ % ring_.size()] = v;
        if (seen_ >= max_shift_)
            emit(seen_ - max_shift_);
        ++seen_;
    }

    void
    finish() override
    {
        requireSim(seen_ == n_in_,
                   "stagger sum expected the full core stream");
        for (std::size_t k = n_in_ - max_shift_; k < n_in_; ++k)
            emit(k);
        downstream_.finish();
    }

  private:
    void
    emit(std::size_t k)
    {
        double total = 0.0;
        for (std::size_t c = 0; c < cores_; ++c) {
            const std::size_t raw = k + c * st_;
            const double sample = raw < n_in_
                ? ring_[raw % ring_.size()]
                : head_[raw - n_in_];
            total += sample * v_scale_;
        }
        if (extra_idle_ > 0.0)
            total += extra_idle_;
        downstream_.push(total);
    }

    SampleSink &downstream_;
    std::size_t n_in_;
    std::size_t st_;
    std::size_t cores_;
    double v_scale_;
    double extra_idle_;
    std::size_t max_shift_;
    std::vector<double> ring_;
    std::vector<double> head_;
    std::size_t seen_ = 0;
};

} // namespace

PlatformConfig
junoA72Config()
{
    PlatformConfig cfg;
    cfg.name = "Cortex-A72";
    cfg.motherboard = "Juno Board R2";
    cfg.os = "Debian";
    cfg.technology_nm = 16;
    cfg.n_cores = 2;
    cfg.f_max_hz = giga(1.2);
    cfg.f_min_hz = mega(120.0);
    cfg.f_step_hz = mega(20.0);
    cfg.v_nom = 1.0;
    cfg.visibility = VoltageVisibility::OcDso;
    cfg.has_scl = true;
    cfg.antenna_distance_m = 0.07;
    cfg.core = uarch::cortexA72Params();
    cfg.isa = isa::IsaFamily::ArmV8;
    // Calibrated to Fig. 8 / Fig. 11 anchors: ~67 MHz with both
    // cores powered, ~85 MHz with one.
    cfg.pdn.calibrateDieTank(mega(67.0), mega(85.0), 2, nano(120.0));
    refineDieTank(cfg.pdn, mega(67.0));
    cfg.pdn.v_nom = cfg.v_nom;
    return cfg;
}

PlatformConfig
junoA53Config()
{
    PlatformConfig cfg;
    cfg.name = "Cortex-A53";
    cfg.motherboard = "Juno Board R2";
    cfg.os = "Debian";
    cfg.technology_nm = 16;
    cfg.n_cores = 4;
    cfg.f_max_hz = mega(950.0);
    cfg.f_min_hz = mega(95.0);
    cfg.f_step_hz = mega(19.0);
    cfg.v_nom = 1.0;
    cfg.visibility = VoltageVisibility::None;
    cfg.has_scl = false;
    cfg.antenna_distance_m = 0.07;
    cfg.core = uarch::cortexA53Params();
    cfg.isa = isa::IsaFamily::ArmV8;
    // Fig. 13 anchors: 76.5 MHz all four cores, ~97 MHz one core.
    // The little cluster's smaller cores also mean a weaker PDN:
    // lighter decap network and a high-Q die tank (tiny cluster,
    // very little grid loss) — which is why power-gating effects on
    // its resonance are so pronounced in the paper.
    cfg.pdn.c_pkg = 5e-6;
    cfg.pdn.r_die = 0.10e-3;
    cfg.pdn.r_pkg = 0.12e-3;
    cfg.pdn.esr_pkg = 0.15e-3;
    cfg.pdn.calibrateDieTank(mega(76.5), mega(97.0), 4, nano(60.0));
    refineDieTank(cfg.pdn, mega(76.5));
    cfg.pdn.v_nom = cfg.v_nom;
    return cfg;
}

PlatformConfig
athlonConfig()
{
    PlatformConfig cfg;
    cfg.name = "Athlon II X4 645";
    cfg.motherboard = "Asus M5A78L LE";
    cfg.os = "Windows 8.1";
    cfg.technology_nm = 45;
    cfg.n_cores = 4;
    cfg.f_max_hz = giga(3.1);
    // AMD Overdrive exposes multiplier steps of 0.5 on the 100 MHz
    // reference and lets the clock drop far enough that the probe
    // loop sweeps through the 50-200 MHz resonance band.
    cfg.f_min_hz = mega(400.0);
    cfg.f_step_hz = mega(50.0);
    cfg.v_nom = 1.4;
    cfg.visibility = VoltageVisibility::KelvinPads;
    cfg.has_scl = false;
    cfg.antenna_distance_m = 0.08;
    cfg.core = uarch::athlonX4Params();
    cfg.isa = isa::IsaFamily::X86_64;
    // Desktop board: heftier decap network and a much stiffer supply
    // path (multi-phase VRM, wide power planes: total series
    // resistance ~1 mohm, versus the mobile board's ~10 mohm).
    // Overrides precede calibration because calibrateDieTank folds
    // the decap ESL into the tank inductance.
    cfg.pdn.c_pkg = 20e-6;
    cfg.pdn.esl_pkg = 1.5e-12;
    // Damped bulk bank: caps the mid-frequency anti-resonance (which
    // the stiff low-resistance supply path would otherwise leave
    // under-damped) without loading the 1st-order tank.
    cfg.pdn.c_pkg_bulk = 50e-6;
    cfg.pdn.esl_pkg_bulk = 100e-12;
    cfg.pdn.esr_pkg_bulk = 4e-3;
    cfg.pdn.c_pcb = 3e-3;
    // Sharp 1st-order peak (Q ~ 8): desktop parts have very low
    // grid/package loss, which is precisely why dI/dt resonance is a
    // first-order margin concern on them.
    cfg.pdn.r_die = 0.08e-3;
    cfg.pdn.r_pkg = 0.1e-3;
    cfg.pdn.esr_pkg = 0.1e-3;
    cfg.pdn.r_pcb = 0.5e-3;
    cfg.pdn.r_vrm = 0.2e-3;
    // Fig. 16: resonance at 78 MHz with all cores. The one-core
    // anchor is not reported by the paper; 95 MHz follows the same
    // uncore/core capacitance split as the ARM clusters.
    cfg.pdn.calibrateDieTank(mega(78.0), mega(95.0), 4, nano(100.0));
    refineDieTank(cfg.pdn, mega(78.0));
    cfg.pdn.v_nom = cfg.v_nom;
    return cfg;
}

Platform::Platform(const PlatformConfig &config, std::uint64_t seed)
    : config_(config), seed_(seed), pool_(poolFor(config.isa)),
      core_(config.core),
      pdn_(std::make_unique<pdn::PdnModel>(config.pdn)),
      antenna_(em::AntennaParams{}),
      analyzer_(analyzerParamsFor(config), Rng(seed)),
      scope_(scopeParamsFor(config), Rng(seed ^ 0x9e3779b97f4a7c15ull)),
      f_clk_(config.f_max_hz), v_supply_(config.v_nom)
{
    requireConfig(config.n_cores >= 1, "platform needs cores");
    requireConfig(config.pdn.n_cores == config.n_cores,
                  "PDN core count must match platform core count");
}

std::unique_ptr<Platform>
Platform::clone() const
{
    auto copy = std::make_unique<Platform>(config_, seed_);
    // f_clk_ is already snapped to the DVFS grid, so setFrequency is
    // an exact copy here.
    copy->setFrequency(f_clk_);
    copy->setVoltage(v_supply_);
    copy->setPoweredCores(poweredCores());
    if (pulse_)
        copy->armPulse(*pulse_);
    return copy;
}

void
Platform::armPulse(const em::PulseSpec &spec)
{
    const em::PulseInjector injector(spec); // validates
    pulse_ = spec;
    // A null (zero-amplitude) pulse keeps the passive 2-source
    // netlist so "pulse armed at amplitude 0" stays bit-identical to
    // "no pulse armed" on every path.
    pdn_->setPulseSource(!injector.isNull());
}

void
Platform::disarmPulse()
{
    pulse_.reset();
    pdn_->setPulseSource(false);
}

circuit::SourceWaveform
Platform::pulseWave() const
{
    if (!pulse_)
        return nullptr;
    const em::PulseInjector injector(*pulse_);
    if (injector.isNull())
        return nullptr;
    // Pulse t0 is relative to the observed window; runs prepend a
    // settle lead-in that the output slicing strips again.
    return injector.waveform(kSettleTime);
}

instruments::Oscilloscope &
Platform::scope()
{
    requireConfig(hasVoltageVisibility(),
                  config_.name
                      + " has no voltage-noise visibility (this is "
                        "exactly the case the EM methodology solves)");
    return scope_;
}

void
Platform::setFrequency(double f_hz)
{
    requireConfig(f_hz > 0.0, "frequency must be positive");
    const double snapped =
        std::round(f_hz / config_.f_step_hz) * config_.f_step_hz;
    f_clk_ = std::clamp(snapped, config_.f_min_hz, config_.f_max_hz);
}

void
Platform::setVoltage(double v)
{
    requireConfig(v > 0.3 && v < 2.0,
                  "supply voltage outside the plausible 0.3-2.0 V");
    v_supply_ = v;
    pdn_->setSupplyVoltage(v);
}

void
Platform::setPoweredCores(std::size_t cores)
{
    pdn_->setPoweredCores(cores);
}

PlatformRunResult
Platform::runKernel(const isa::Kernel &kernel, double duration_s,
                    std::size_t active_cores) const
{
    // Stream into trace-collecting sinks: same waveforms as the batch
    // path, one pipeline.
    TraceSink v(kPdnDt);
    TraceSink i(kPdnDt);
    TraceSink e(kPdnDt);
    const auto stats = streamKernel(
        kernel, duration_s,
        [&](const StreamPlan &plan) {
            v.reserve(plan.n_samples);
            i.reserve(plan.n_samples);
            e.reserve(plan.n_samples);
            return StreamObservers{&v, &i, &e};
        },
        active_cores);
    return PlatformRunResult{v.take(), i.take(), e.take(), stats};
}

PlatformRunResult
Platform::runKernelBatch(const isa::Kernel &kernel, double duration_s,
                         std::size_t active_cores) const
{
    const auto run = core_.runLoop(pool_, kernel, f_clk_,
                                   duration_s + kSettleTime);
    // Identical resonant loops on the shared PDN effectively
    // phase-lock (voltage-delay entrainment), so kernel instances
    // sum near-coherently: a small launch stagger only.
    return finishRun(run, duration_s, active_cores,
                     kCorePhaseStagger);
}

uarch::KernelRunStats
Platform::streamKernel(const isa::Kernel &kernel, double duration_s,
                       const ObserverFactory &make_observers,
                       std::size_t active_cores) const
{
    const std::size_t powered = pdn_->poweredCores();
    if (active_cores == 0)
        active_cores = powered;
    requireConfig(active_cores <= powered,
                  "cannot run on more cores than are powered");

    // Observability only: the span/counters never feed the run.
    metrics::ScopedPhase stream_span("platform.stream");
    metrics::Registry::instance().add("platform.stream.runs");

    // The whole run's shape is known a priori: the loop emits one
    // current sample per simulated cycle.
    const double total_s = duration_s + kSettleTime;
    const double cycle_dt = 1.0 / f_clk_;
    const std::size_t n_cycles =
        uarch::CoreModel::loopEmitCount(f_clk_, total_s);
    const auto stagger_cycles = std::max<std::size_t>(
        1,
        static_cast<std::size_t>(kCorePhaseStagger / cycle_dt));
    const double v_scale = v_supply_ / config_.core.v_ref;
    const double extra_idle = config_.core.idle_current * v_scale
        * static_cast<double>(powered - active_cores);

    const std::size_t n_pdn = Trace::outputLengthFor(
        cycle_dt * static_cast<double>(n_cycles), kPdnDt);
    std::size_t settle_steps =
        static_cast<std::size_t>(kSettleTime / kPdnDt);
    if (settle_steps >= n_pdn)
        settle_steps = 0;
    const std::size_t want =
        static_cast<std::size_t>(duration_s / kPdnDt);
    const std::size_t n = std::min(want, n_pdn - settle_steps);
    requireSim(n >= 16, "run produced too few PDN samples");
    metrics::Registry::instance().add("platform.stream.samples", n);

    // Pass A: the batch path biases the PDN's initial DC point at the
    // mean of the whole load trace, which a single forward pass cannot
    // know before stepping — so run the (deterministic) core pipeline
    // once into a mean accumulator, recording a bounded prefix+period
    // replay so Pass B does not have to simulate the core again.
    MeanSink mean_sink;
    uarch::KernelRunStats stats;
    uarch::LoopRecording rec;
    {
        ZohResampleSink zoh(mean_sink, n_cycles, cycle_dt, kPdnDt);
        StaggerSumSink sum(zoh, n_cycles, stagger_cycles, active_cores,
                           v_scale, extra_idle);
        stats = core_.runLoopInto(pool_, kernel, f_clk_, total_s, sum,
                                  &rec);
    }

    const StreamPlan plan{stats, n, kPdnDt};
    const StreamObservers obs = make_observers(plan);
    if (obs.v_die == nullptr && obs.i_die == nullptr
        && obs.em == nullptr)
        return stats;

    // Pass B: replay the identical core simulation through the PDN
    // stepper. Settle-time lead-ins are stripped by slice sinks; the
    // antenna couples to the sliced die current, exactly as the batch
    // path differentiates the sliced trace.
    std::optional<SliceSink> v_slice;
    if (obs.v_die != nullptr)
        v_slice.emplace(*obs.v_die, settle_steps, n);

    std::optional<SliceSink> i_slice;
    if (obs.i_die != nullptr)
        i_slice.emplace(*obs.i_die, settle_steps, n);

    std::optional<em::AntennaReceiveSink> ant;
    std::optional<SliceSink> em_slice;
    if (obs.em != nullptr) {
        ant.emplace(antenna_.receiveInto(
            *obs.em, config_.antenna_distance_m, kPdnDt));
        em_slice.emplace(*ant, settle_steps, n);
    }

    std::optional<FanoutSink> i_fan;
    SampleSink *i_tap = nullptr;
    if (i_slice && em_slice) {
        i_fan.emplace(
            std::vector<SampleSink *>{&*i_slice, &*em_slice});
        i_tap = &*i_fan;
    } else if (i_slice) {
        i_tap = &*i_slice;
    } else if (em_slice) {
        i_tap = &*em_slice;
    }

    pdn::PdnStreamSink pdn_sink = pdn_->streamSim(
        kPdnDt, mean_sink.mean(),
        v_slice ? &*v_slice : nullptr, i_tap, pulseWave());
    ZohResampleSink zoh(pdn_sink, n_cycles, cycle_dt, kPdnDt);
    StaggerSumSink sum(zoh, n_cycles, stagger_cycles, active_cores,
                       v_scale, extra_idle);
    if (rec.complete())
        rec.emitInto(sum);
    else
        core_.runLoopInto(pool_, kernel, f_clk_, total_s, sum);
    return stats;
}

PlatformRunResult
Platform::runStream(std::span<const isa::Instruction> stream,
                    double duration_s, std::size_t active_cores) const
{
    // Observability only: the span never feeds the run.
    metrics::ScopedPhase span("platform.run_stream");
    auto run = core_.runStream(pool_, stream, f_clk_);
    requireConfig(run.current.duration() >= duration_s + kSettleTime,
                  "instruction stream too short for the requested "
                  "duration; generate a longer stream");
    // Benchmark instances are independent programs at unrelated
    // execution points: decorrelate them with a large stagger so
    // their stochastic current components do not add coherently.
    const double decorrelate = run.current.duration()
        / static_cast<double>(std::max<std::size_t>(
            2, pdn_->poweredCores() + 1));
    return finishRun(run, duration_s, active_cores, decorrelate);
}

PlatformRunResult
Platform::runScl(double freq_hz, double amplitude_a,
                 double duration_s) const
{
    requireConfig(config_.has_scl,
                  config_.name + " has no SCL injector");
    // Idle cores: flat leakage-level load.
    const double total = duration_s + kSettleTime;
    Trace idle(kPdnDt);
    const auto steps = static_cast<std::size_t>(total / kPdnDt);
    idle.reserve(steps);
    const double idle_current = config_.core.idle_current
        * static_cast<double>(pdn_->poweredCores());
    for (std::size_t i = 0; i < steps; ++i)
        idle.push(idle_current);

    instruments::SyntheticCurrentLoad scl(amplitude_a);
    auto sim = pdn_->simulate(idle, scl.waveform(freq_hz),
                              pulseWave());

    const auto settle_steps =
        static_cast<std::size_t>(kSettleTime / kPdnDt);
    PlatformRunResult out{
        sim.v_die.slice(settle_steps, sim.v_die.size() - settle_steps),
        sim.i_die.slice(settle_steps, sim.i_die.size() - settle_steps),
        Trace(kPdnDt),
        {}};
    out.em = antenna_.receive(out.i_die, config_.antenna_distance_m);
    return out;
}

PlatformRunResult
Platform::runIdle(double duration_s) const
{
    const double total = duration_s + kSettleTime;
    Trace idle(kPdnDt);
    const auto steps = static_cast<std::size_t>(total / kPdnDt);
    idle.reserve(steps);
    const double current = config_.core.idle_current
        * (v_supply_ / config_.core.v_ref)
        * static_cast<double>(pdn_->poweredCores());
    for (std::size_t i = 0; i < steps; ++i)
        idle.push(current);
    auto sim = pdn_->simulate(idle, nullptr, pulseWave());

    const auto settle_steps =
        static_cast<std::size_t>(kSettleTime / kPdnDt);
    const std::size_t n = sim.v_die.size() - settle_steps;
    PlatformRunResult out{sim.v_die.slice(settle_steps, n),
                          sim.i_die.slice(settle_steps, n),
                          Trace(kPdnDt),
                          {}};
    out.em = antenna_.receive(out.i_die, config_.antenna_distance_m);
    return out;
}

PlatformRunResult
Platform::finishRun(const uarch::CoreRunResult &core_run,
                    double duration_s, std::size_t active_cores,
                    double stagger_s) const
{
    const std::size_t powered = pdn_->poweredCores();
    if (active_cores == 0)
        active_cores = powered;
    requireConfig(active_cores <= powered,
                  "cannot run on more cores than are powered");

    // Sum per-core currents with mutual phase offsets by rotating
    // the single-instance trace.
    const Trace &one = core_run.current;
    const auto stagger_cycles = std::max<std::size_t>(
        1, static_cast<std::size_t>(stagger_s / one.dt()));
    requireSim(one.size() > stagger_cycles * active_cores,
               "core trace too short for phase-shifted summation");
    Trace total(one.dt());
    total.data().assign(one.size(), 0.0);
    const double v_scale = v_supply_ / config_.core.v_ref;
    for (std::size_t c = 0; c < active_cores; ++c) {
        const std::size_t shift = c * stagger_cycles;
        for (std::size_t k = 0; k < one.size(); ++k)
            total[k] += one[(k + shift) % one.size()] * v_scale;
    }
    // Idle (powered but inactive) cores draw leakage.
    const double extra_idle = config_.core.idle_current * v_scale
        * static_cast<double>(powered - active_cores);
    if (extra_idle > 0.0) {
        for (std::size_t k = 0; k < total.size(); ++k)
            total[k] += extra_idle;
    }

    const Trace i_load = total.resampleZeroOrderHold(kPdnDt);

    // Discard the settle lead-in.
    std::size_t settle_steps =
        static_cast<std::size_t>(kSettleTime / kPdnDt);
    if (settle_steps >= i_load.size())
        settle_steps = 0;
    const std::size_t want =
        static_cast<std::size_t>(duration_s / kPdnDt);
    const std::size_t n = std::min(want, i_load.size() - settle_steps);
    requireSim(n >= 16, "run produced too few PDN samples");

    // Step the PDN only as far as the observed window reaches. Output
    // k is transient step k + 1, so the window ends at step
    // settle + n. Rounding that up to whole kStreamBlock blocks keeps
    // every window step inside a full block fed its true load sample:
    // the clamped final step of the shortened stream lands in a tail
    // block of its own, past the window. A tail-block stepBlock call
    // rounds differently from a full block, so an unaligned cut would
    // move bits. The DC bias stays the mean of the whole load.
    constexpr std::size_t kBlock = circuit::kStreamBlock;
    const std::size_t last_step =
        (settle_steps + n + kBlock - 1) / kBlock * kBlock;
    const std::size_t keep = std::min(i_load.size(), last_step + 1);
    metrics::Registry::instance().add("platform.run_stream.pdn_steps",
                                      keep);
    double mean_load = 0.0;
    for (double v : i_load.samples())
        mean_load += v;
    mean_load /= static_cast<double>(i_load.size());

    TraceSink v_die(kPdnDt);
    TraceSink i_die(kPdnDt);
    v_die.reserve(n);
    i_die.reserve(n);
    SliceSink v_slice(v_die, settle_steps, n);
    SliceSink i_slice(i_die, settle_steps, n);
    pdn::PdnStreamSink pdn_sink = pdn_->streamSim(
        kPdnDt, mean_load, &v_slice, &i_slice, pulseWave());
    for (std::size_t k = 0; k < keep; ++k)
        pdn_sink.push(i_load[k]);
    pdn_sink.finish();

    PlatformRunResult out{v_die.take(), i_die.take(), Trace(kPdnDt),
                          core_run.stats};
    out.em = antenna_.receive(out.i_die, config_.antenna_distance_m);
    return out;
}

} // namespace platform
} // namespace emstress
