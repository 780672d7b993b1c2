/**
 * @file
 * Batch-trace oracle evaluator for the streaming fitness tests. It
 * measures what core::EmAmplitudeFitness, MaxDroopFitness and
 * PeakToPeakFitness measure, but from whole materialized traces:
 * runKernelBatch, then SpectrumAnalyzer::averagedMaxAmplitude (FFT
 * sweeps) or Oscilloscope::capture. Its noise is keyed with the
 * production evaluators' salts, so the two must agree bit for bit.
 * It carries no fault model: TruncatedStream faults exist only on the
 * streaming path.
 *
 * It also holds the whole-trace oracles of every Platform run method,
 * which all stream through one pipeline in production:
 * runKernelBatch, wholeTraceRunStream, wholeTraceRunScl and
 * wholeTraceRunIdle materialize the load, run PdnModel::simulate over
 * all of it and slice the window, as the platform did before its runs
 * streamed. The V_MIN layer's traceLadderRow synthesizes
 * every ladder run as a full die-voltage waveform and classifies its
 * minimum, as VminTester did before it reduced the nominal waveform
 * to its deepest droop. Production must match each bit for bit.
 */

#ifndef EMSTRESS_TESTS_BATCH_ORACLE_H
#define EMSTRESS_TESTS_BATCH_ORACLE_H

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/fitness.h"
#include "core/virus_generator.h"
#include "core/vmin_tester.h"
#include "dsp/spectrum.h"
#include "em/pulse_injector.h"
#include "instruments/oscilloscope.h"
#include "instruments/scl.h"
#include "platform/platform.h"
#include "uarch/core_model.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/trace.h"
#include "vmin/timing_model.h"
#include "workloads/workload.h"

namespace emstress {
namespace core {

/// Settle lead-in every platform run prepends and strips [s]; the
/// platform's private constant, restated for the oracles.
inline constexpr double kOracleSettleTime = 0.5e-6;

/// Launch stagger between kernel instances [s]; the platform's
/// private constant, restated for the oracles.
inline constexpr double kOracleCoreStagger = 1e-9;

/** The platform's armed pulse as a simulation-time waveform. */
inline circuit::SourceWaveform
oraclePulseWave(const platform::Platform &plat)
{
    if (!plat.armedPulse())
        return nullptr;
    const em::PulseInjector injector(*plat.armedPulse());
    if (injector.isNull())
        return nullptr;
    return injector.waveform(kOracleSettleTime);
}

/**
 * PdnModel::simulate over a whole load trace, the settle lead-in and
 * everything past `n` window samples stripped, the antenna coupled
 * to the sliced die current.
 */
inline platform::PlatformRunResult
wholeTraceWindow(const platform::Platform &plat, const Trace &i_load,
                 const circuit::SourceWaveform &i_scl,
                 std::size_t settle_steps, std::size_t n)
{
    auto sim = plat.pdnModel().simulate(i_load, i_scl,
                                        oraclePulseWave(plat));
    platform::PlatformRunResult out{
        sim.v_die.slice(settle_steps, n),
        sim.i_die.slice(settle_steps, n), Trace(platform::kPdnDt), {}};
    out.em = plat.antenna().receive(out.i_die,
                                    plat.config().antenna_distance_m);
    return out;
}

/**
 * The whole-trace tail of a core run: sum the active-core instances
 * of `run` (each rotated by `stagger_s`), add idle-core leakage,
 * resample to the PDN timestep, run PdnModel::simulate over every
 * load sample and slice the window.
 */
inline platform::PlatformRunResult
wholeTraceFinish(const platform::Platform &plat,
                 const uarch::CoreRunResult &run, double duration_s,
                 std::size_t active_cores, double stagger_s)
{
    const auto &cfg = plat.config();
    const std::size_t powered = plat.poweredCores();
    if (active_cores == 0)
        active_cores = powered;
    requireConfig(active_cores <= powered,
                  "cannot run on more cores than are powered");

    const Trace &one = run.current;
    const auto stagger_cycles = std::max<std::size_t>(
        1, static_cast<std::size_t>(stagger_s / one.dt()));
    requireSim(one.size() > stagger_cycles * active_cores,
               "core trace too short for phase-shifted summation");
    Trace total(one.dt());
    total.data().assign(one.size(), 0.0);
    const double v_scale = plat.voltage() / cfg.core.v_ref;
    for (std::size_t c = 0; c < active_cores; ++c) {
        const std::size_t shift = c * stagger_cycles;
        for (std::size_t k = 0; k < one.size(); ++k)
            total[k] += one[(k + shift) % one.size()] * v_scale;
    }
    const double extra_idle = cfg.core.idle_current * v_scale
        * static_cast<double>(powered - active_cores);
    if (extra_idle > 0.0) {
        for (std::size_t k = 0; k < total.size(); ++k)
            total[k] += extra_idle;
    }
    const Trace i_load = total.resampleZeroOrderHold(platform::kPdnDt);

    std::size_t settle_steps = static_cast<std::size_t>(
        kOracleSettleTime / platform::kPdnDt);
    if (settle_steps >= i_load.size())
        settle_steps = 0;
    const std::size_t want =
        static_cast<std::size_t>(duration_s / platform::kPdnDt);
    const std::size_t n = std::min(want, i_load.size() - settle_steps);
    requireSim(n >= 16, "run produced too few PDN samples");
    auto out = wholeTraceWindow(plat, i_load, nullptr, settle_steps, n);
    out.stats = run.stats;
    return out;
}

/**
 * Platform::runKernel with whole traces: the core loop's current
 * trace, then wholeTraceFinish with the kernels' launch stagger.
 */
inline platform::PlatformRunResult
runKernelBatch(const platform::Platform &plat, const isa::Kernel &kernel,
               double duration_s, std::size_t active_cores = 0)
{
    const uarch::CoreModel core(plat.config().core);
    const auto run = core.runLoop(plat.pool(), kernel, plat.frequency(),
                                  duration_s + kOracleSettleTime);
    return wholeTraceFinish(plat, run, duration_s, active_cores,
                            kOracleCoreStagger);
}

/**
 * Platform::runStream with whole traces: the core's stream run, then
 * wholeTraceFinish with the decorrelating benchmark stagger.
 */
inline platform::PlatformRunResult
wholeTraceRunStream(const platform::Platform &plat,
                    std::span<const isa::Instruction> stream,
                    double duration_s, std::size_t active_cores = 0)
{
    const uarch::CoreModel core(plat.config().core);
    const auto run = core.runStream(plat.pool(), stream, plat.frequency());
    const double stagger_s = run.current.duration()
        / static_cast<double>(
            std::max<std::size_t>(2, plat.poweredCores() + 1));
    return wholeTraceFinish(plat, run, duration_s, active_cores,
                            stagger_s);
}

/**
 * A constant load over the settle lead-in and `duration_s`, simulated
 * as one trace with an optional SCL waveform; the window is every
 * sample after the lead-in.
 */
inline platform::PlatformRunResult
wholeTraceConstantLoad(const platform::Platform &plat, double current,
                       const circuit::SourceWaveform &i_scl,
                       double duration_s)
{
    const double total = duration_s + kOracleSettleTime;
    Trace load(platform::kPdnDt);
    const auto steps = static_cast<std::size_t>(total / platform::kPdnDt);
    load.reserve(steps);
    for (std::size_t i = 0; i < steps; ++i)
        load.push(current);
    const auto settle_steps = static_cast<std::size_t>(
        kOracleSettleTime / platform::kPdnDt);
    return wholeTraceWindow(plat, load, i_scl, settle_steps,
                            steps - settle_steps);
}

/** Platform::runScl with the whole-trace PDN transient. */
inline platform::PlatformRunResult
wholeTraceRunScl(const platform::Platform &plat, double freq_hz,
                 double amplitude_a, double duration_s)
{
    const auto &cfg = plat.config();
    requireConfig(cfg.has_scl, cfg.name + " has no SCL injector");
    const instruments::SyntheticCurrentLoad scl(amplitude_a);
    return wholeTraceConstantLoad(
        plat,
        cfg.core.idle_current * static_cast<double>(plat.poweredCores()),
        scl.waveform(freq_hz), duration_s);
}

/** Platform::runIdle with the whole-trace PDN transient. */
inline platform::PlatformRunResult
wholeTraceRunIdle(const platform::Platform &plat, double duration_s)
{
    const auto &cfg = plat.config();
    return wholeTraceConstantLoad(
        plat,
        cfg.core.idle_current * (plat.voltage() / cfg.core.v_ref)
            * static_cast<double>(plat.poweredCores()),
        nullptr, duration_s);
}

/** Batch-trace twin of the three platform fitness evaluators. */
class BatchOracleFitness : public PlatformFitness
{
  public:
    BatchOracleFitness(platform::Platform &plat, VirusMetric metric,
                       const EvalSettings &settings)
        : PlatformFitness(plat, settings), metric_(metric)
    {}

    double
    evaluate(const isa::Kernel &kernel, ga::EvalDetail *detail) override
    {
        const auto run = runKernelBatch(plat(), kernel,
                                        settings_.duration_s,
                                        settings_.active_cores);
        const std::size_t traces =
            run.v_die.size() + run.i_die.size() + run.em.size();
        if (metric_ == VirusMetric::EmAmplitude) {
            const auto marker = plat().analyzer().averagedMaxAmplitude(
                run.em, settings_.f_lo_hz, settings_.f_hi_hz,
                settings_.sa_samples, noiseKeyFor(kernel, kEmNoiseSalt));
            if (detail) {
                detail->dominant_freq_hz = marker.freq_hz;
                detail->metric_raw = marker.power_dbm;
                detail->measurement_seconds =
                    labSeconds(settings_.sa_samples);
                detail->samples_materialized = traces;
            }
            return marker.power_dbm;
        }
        const bool droop = metric_ == VirusMetric::MaxDroop;
        Rng noise =
            noiseFor(kernel, droop ? kDroopNoiseSalt : kP2pNoiseSalt);
        const Trace cap = plat().scope().capture(run.v_die, noise);
        const double value = droop
            ? instruments::Oscilloscope::maxDroop(cap, plat().voltage())
            : instruments::Oscilloscope::peakToPeak(cap);
        if (detail) {
            const auto pk = dsp::maxPeakInBand(
                instruments::Oscilloscope::fftView(cap),
                settings_.f_lo_hz, settings_.f_hi_hz);
            detail->dominant_freq_hz = pk.freq_hz;
            detail->metric_raw = value;
            detail->measurement_seconds = labSeconds(3);
            detail->samples_materialized = traces + cap.size();
        }
        return value;
    }

    std::string
    metricName() const override
    {
        return "batch-oracle-" + virusMetricName(metric_);
    }

    std::unique_ptr<ga::FitnessEvaluator>
    clone() const override
    {
        return std::unique_ptr<ga::FitnessEvaluator>(
            new BatchOracleFitness(
                std::shared_ptr<platform::Platform>(plat().clone()),
                metric_, settings_));
    }

  private:
    BatchOracleFitness(std::shared_ptr<platform::Platform> owned,
                       VirusMetric metric, const EvalSettings &settings)
        : PlatformFitness(std::move(owned), settings), metric_(metric)
    {}

    /** Modeled lab seconds, as the production evaluators book them. */
    double
    labSeconds(std::size_t samples) const
    {
        return latency_.deploy_s + latency_.start_stop_s
            + latency_.per_sample_s * static_cast<double>(samples);
    }

    VirusMetric metric_;
};

/**
 * VminTester's ladder with every run synthesized as a waveform: the
 * nominal droop scaled per (voltage, repeat) with the same jitter
 * draws, classified from the waveform minimum against a critical
 * voltage solved per run, with the same search draws.
 */
inline VminRow
traceLadderRow(const std::string &name, const Trace &v_die_nominal,
               double v_nom, double f_clk_hz,
               const VminTestConfig &config, std::size_t repeats,
               double run_seconds)
{
    std::vector<double> droop(v_die_nominal.size());
    for (std::size_t i = 0; i < droop.size(); ++i)
        droop[i] = v_nom - v_die_nominal[i];
    Rng jitter_rng(config.seed ^ stringHash(name));
    const auto runWaveform = [&](double v_supply) {
        const double scale = v_supply / v_nom
            * std::max(0.0,
                       jitter_rng.gaussian(1.0, config.droop_jitter_rel));
        Trace out(v_die_nominal.dt());
        out.reserve(droop.size());
        for (double d : droop)
            out.push(v_supply - d * scale);
        return out;
    };

    const vmin::TimingModel timing(config.timing);
    const auto &fp = config.failure;
    Rng rng(config.seed ^ 0x51ed);
    const auto classify = [&](const Trace &v_die) {
        const double slack = stats::minimum(v_die.samples())
            - timing.vCrit(f_clk_hz);
        if (slack < 0.0)
            return vmin::RunOutcome::SystemCrash;
        if (slack < fp.sdc_band_v && rng.chance(fp.sdc_probability))
            return rng.chance(0.5) ? vmin::RunOutcome::Sdc
                                   : vmin::RunOutcome::AppCrash;
        return vmin::RunOutcome::Pass;
    };

    const auto &sc = config.search;
    vmin::RunOutcome first_failure = vmin::RunOutcome::Pass;
    double vmin_v = 0.0;
    std::size_t runs = 0;
    const double max_droop = sc.v_start
        - stats::minimum(runWaveform(sc.v_start).samples());
    for (std::size_t i = 0; !vmin::isFailure(first_failure); ++i) {
        const double v =
            sc.v_start - static_cast<double>(i) * sc.v_step;
        if (!(v > sc.v_floor))
            break;
        for (std::size_t rep = 0; rep < repeats; ++rep) {
            ++runs;
            first_failure = classify(runWaveform(v));
            if (vmin::isFailure(first_failure)) {
                vmin_v = v;
                break;
            }
        }
    }

    VminRow row;
    row.workload = name;
    row.vmin_v = vmin_v;
    row.margin_v = vmin_v > 0.0 ? v_nom - vmin_v : 0.0;
    row.max_droop_v = max_droop;
    row.failure = vmin::outcomeName(first_failure);
    row.runs = runs;
    const auto points = (runs + repeats - 1)
        / std::max<std::size_t>(repeats, 1);
    row.lab_seconds = static_cast<double>(runs) * run_seconds
        + static_cast<double>(points) * 20.0;
    return row;
}

/** VminTester::testWorkload on the two whole-trace oracles. */
inline VminRow
wholeTraceWorkloadRow(const platform::Platform &plat,
                      const VminTestConfig &config,
                      const workloads::WorkloadProfile &profile,
                      std::size_t repeats, double run_seconds = 300.0)
{
    const auto length = static_cast<std::size_t>(
        (config.duration_s + 1.0e-6) * plat.frequency()
        * static_cast<double>(plat.config().core.issue_width)) + 4096;
    Rng gen_rng(config.seed ^ 0xabcdef);
    const auto stream = workloads::generateStream(
        profile, plat.pool(), length, gen_rng);
    const auto run = wholeTraceRunStream(plat, stream, config.duration_s,
                                         config.active_cores);
    return traceLadderRow(profile.name, run.v_die, plat.voltage(),
                          plat.frequency(), config, repeats,
                          run_seconds);
}

} // namespace core
} // namespace emstress

#endif // EMSTRESS_TESTS_BATCH_ORACLE_H
