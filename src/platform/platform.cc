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
 * The cycle of a core-rate load of `cycles` samples, sampled every
 * `dt`, that Trace::resampleZeroOrderHold holds at PDN step j.
 */
std::size_t
heldCycle(std::size_t cycles, double dt, std::size_t j)
{
    const double t = kPdnDt * static_cast<double>(j);
    const auto src = static_cast<std::size_t>(t / dt);
    return std::min(src, cycles - 1);
}

/**
 * The load at held cycle `src` of a core-rate load `one`: summed over
 * `cores` instances each `stagger` cycles further along (wrapping),
 * scaled by v_scale, plus idle-core leakage. Resampled, this is the
 * whole-trace rotation sum
 *
 *     total[k] = sum_c one[(k + c*stagger) % N] * v_scale  (+ idle)
 *
 * term by term in its order.
 */
double
staggerSum(std::span<const double> one, std::size_t src,
           std::size_t stagger, std::size_t cores, double v_scale,
           double extra_idle)
{
    double total = 0.0;
    for (std::size_t c = 0; c < cores; ++c) {
        total += one[src] * v_scale;
        if ((src += stagger) >= one.size())
            src -= one.size();
    }
    if (extra_idle > 0.0)
        total += extra_idle;
    return total;
}

/** Trace-collecting observers for the runs that return waveforms. */
struct TraceObservers
{
    TraceSink v_die{kPdnDt};
    TraceSink i_die{kPdnDt};
    TraceSink em{kPdnDt};

    StreamObservers
    reserve(std::size_t n)
    {
        v_die.reserve(n);
        i_die.reserve(n);
        em.reserve(n);
        return {&v_die, &i_die, &em};
    }

    PlatformRunResult
    take(const uarch::KernelRunStats &stats)
    {
        return {v_die.take(), i_die.take(), em.take(), stats};
    }
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

/**
 * A run's load current. A core-rate load is one core's current per
 * cycle, which the pipeline sums over the active cores and resamples
 * to the PDN timestep; a PDN-rate load feeds the PDN as it is.
 */
struct Platform::LoadSource
{
    std::span<const double> samples; ///< The whole load.
    double dt = kPdnDt; ///< Sample interval [s].
    bool core_rate = false; ///< Summed over cores and resampled.
    /// Core-rate loads: start stagger between instances [samples].
    std::size_t stagger = 1;
    /// Core-rate loads: instances summed (0: all powered cores).
    std::size_t active_cores = 0;
    /// Core-rate loads: window samples wanted after the settle
    /// lead-in, clipped to what the load covers. A PDN-rate load is
    /// observed to its end.
    std::size_t window = 0;
};

std::size_t
Platform::pipeline(const LoadSource &load,
                   const circuit::SourceWaveform &i_scl,
                   const std::function<StreamObservers(std::size_t)>
                       &make_observers) const
{
    const std::size_t powered = pdn_->poweredCores();
    const std::size_t active =
        load.active_cores == 0 ? powered : load.active_cores;
    requireConfig(active <= powered,
                  "cannot run on more cores than are powered");
    const double v_scale = v_supply_ / config_.core.v_ref;
    // Powered but inactive cores draw leakage.
    const double extra_idle = config_.core.idle_current * v_scale
        * static_cast<double>(powered - active);
    const std::span<const double> one = load.samples;
    if (load.core_rate)
        requireSim(one.size() > load.stagger * active,
                   "core trace too short for phase-shifted summation");
    // The load at the PDN timestep. The hold spans several steps
    // (10/3 on the A72), and both passes walk the steps in order, so
    // a core-rate sum is reused while its held cycle repeats: the
    // same terms in the same order, so the same bits.
    std::size_t held_src = one.size();
    double held_total = 0.0;
    const auto at = [&](std::size_t j) {
        if (!load.core_rate)
            return one[j];
        const std::size_t src = heldCycle(one.size(), load.dt, j);
        if (src != held_src) {
            held_src = src;
            held_total = staggerSum(one, src, load.stagger, active,
                                    v_scale, extra_idle);
        }
        return held_total;
    };

    // The window: the settle lead-in is stripped, and output k is
    // transient step k + 1.
    const std::size_t n_pdn = load.core_rate
        ? Trace::outputLengthFor(
              load.dt * static_cast<double>(one.size()), kPdnDt)
        : one.size();
    std::size_t settle_steps =
        static_cast<std::size_t>(kSettleTime / kPdnDt);
    if (settle_steps >= n_pdn)
        settle_steps = 0;
    const std::size_t n = load.core_rate
        ? std::min(load.window, n_pdn - settle_steps)
        : n_pdn - settle_steps;
    requireSim(n >= 16, "run produced too few PDN samples");

    // Step the PDN only as far as the window reaches, step
    // settle + n, rounded up to whole kStreamBlock blocks: every
    // window step then sits in a full block fed its true load sample,
    // and the held final step of the shortened stream lands in a
    // tail block of its own, past the window. A tail block rounds
    // differently from a full one, so an unaligned cut would move
    // bits. The DC bias stays the mean of the whole load. Only a
    // core-rate load runs past its window.
    constexpr std::size_t kBlock = circuit::kStreamBlock;
    const std::size_t last_step =
        (settle_steps + n + kBlock - 1) / kBlock * kBlock;
    const std::size_t keep = std::min(n_pdn, last_step + 1);

    // Pass A: the mean load, summed front to back.
    double sum = 0.0;
    for (std::size_t j = 0; j < n_pdn; ++j)
        sum += at(j);
    const double mean = sum / static_cast<double>(n_pdn);

    const StreamObservers obs = make_observers(n);
    if (obs.v_die == nullptr && obs.i_die == nullptr
        && obs.em == nullptr)
        return 0;

    // Settle-time lead-ins are stripped by slice sinks; the antenna
    // couples to the sliced die current.
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

    // Pass B: the PDN, biased at the mean, into the observers.
    pdn::PdnStreamSink pdn_sink =
        pdn_->streamSim(kPdnDt, mean, v_slice ? &*v_slice : nullptr,
                        i_tap, pulseWave(), i_scl);
    for (std::size_t j = 0; j < keep; ++j)
        pdn_sink.push(at(j));
    pdn_sink.finish();
    metrics::Registry::instance().add("pdn.stream.samples",
                                      pdn_sink.emitted());
    return keep;
}

PlatformRunResult
Platform::runKernel(const isa::Kernel &kernel, double duration_s,
                    std::size_t active_cores) const
{
    TraceObservers traces;
    const auto stats = streamKernel(
        kernel, duration_s,
        [&](const StreamPlan &plan) {
            return traces.reserve(plan.n_samples);
        },
        active_cores);
    return traces.take(stats);
}

uarch::KernelRunStats
Platform::streamKernel(const isa::Kernel &kernel, double duration_s,
                       const ObserverFactory &make_observers,
                       std::size_t active_cores) const
{
    // Observability only: the span/counters never feed the run.
    metrics::ScopedPhase stream_span("platform.stream");
    metrics::Registry::instance().add("platform.stream.runs");

    // The loop's current, one sample per simulated cycle.
    const auto run =
        core_.runLoop(pool_, kernel, f_clk_, duration_s + kSettleTime);
    LoadSource load;
    load.samples = run.current.samples();
    load.dt = run.current.dt();
    load.core_rate = true;
    // Identical resonant loops on the shared PDN effectively
    // phase-lock (voltage-delay entrainment), so kernel instances
    // sum near-coherently: a small launch stagger only.
    load.stagger = std::max<std::size_t>(
        1, static_cast<std::size_t>(kCorePhaseStagger / load.dt));
    load.active_cores = active_cores;
    load.window = static_cast<std::size_t>(duration_s / kPdnDt);

    pipeline(load, nullptr, [&](std::size_t n) {
                 metrics::Registry::instance().add(
                     "platform.stream.samples", n);
                 return make_observers(StreamPlan{run.stats, n, kPdnDt});
             });
    return run.stats;
}

PlatformRunResult
Platform::runStream(std::span<const isa::Instruction> stream,
                    double duration_s, std::size_t active_cores) const
{
    // Observability only: the span never feeds the run.
    metrics::ScopedPhase span("platform.run_stream");
    const auto run = core_.runStream(pool_, stream, f_clk_);
    const Trace &one = run.current;
    requireConfig(one.duration() >= duration_s + kSettleTime,
                  "instruction stream too short for the requested "
                  "duration; generate a longer stream");
    // Benchmark instances are independent programs at unrelated
    // execution points: decorrelate them with a large stagger so
    // their stochastic current components do not add coherently.
    const double decorrelate = one.duration()
        / static_cast<double>(std::max<std::size_t>(
            2, pdn_->poweredCores() + 1));
    LoadSource load;
    load.samples = one.samples();
    load.dt = one.dt();
    load.core_rate = true;
    load.stagger = std::max<std::size_t>(
        1, static_cast<std::size_t>(decorrelate / one.dt()));
    load.active_cores = active_cores;
    load.window = static_cast<std::size_t>(duration_s / kPdnDt);

    TraceObservers traces;
    const std::size_t steps = pipeline(
        load, nullptr, [&](std::size_t n) { return traces.reserve(n); });
    metrics::Registry::instance().add("platform.run_stream.pdn_steps",
                                      steps);
    return traces.take(run.stats);
}

PlatformRunResult
Platform::runConstantLoad(double current, double duration_s,
                          const circuit::SourceWaveform &i_scl) const
{
    const std::vector<double> samples(
        static_cast<std::size_t>((duration_s + kSettleTime) / kPdnDt),
        current);
    LoadSource load;
    load.samples = samples;
    TraceObservers traces;
    pipeline(load, i_scl,
             [&](std::size_t n) { return traces.reserve(n); });
    return traces.take({});
}

PlatformRunResult
Platform::runScl(double freq_hz, double amplitude_a,
                 double duration_s) const
{
    requireConfig(config_.has_scl,
                  config_.name + " has no SCL injector");
    // Idle cores: flat leakage-level load.
    const instruments::SyntheticCurrentLoad scl(amplitude_a);
    return runConstantLoad(config_.core.idle_current
                               * static_cast<double>(poweredCores()),
                           duration_s, scl.waveform(freq_hz));
}

PlatformRunResult
Platform::runIdle(double duration_s) const
{
    return runConstantLoad(config_.core.idle_current
                               * (v_supply_ / config_.core.v_ref)
                               * static_cast<double>(poweredCores()),
                           duration_s, nullptr);
}

} // namespace platform
} // namespace emstress
