/**
 * @file
 * Batch-trace oracle evaluator for the streaming fitness tests. It
 * measures what core::EmAmplitudeFitness, MaxDroopFitness and
 * PeakToPeakFitness measure, but from whole materialized traces:
 * Platform::runKernelBatch, then SpectrumAnalyzer::averagedMaxAmplitude
 * (FFT sweeps) or Oscilloscope::capture. Its noise is keyed with the
 * production evaluators' salts, so the two must agree bit for bit.
 * It carries no fault model: TruncatedStream faults exist only on the
 * streaming path.
 *
 * It also holds the whole-trace oracles of the V_MIN layer:
 * wholeTraceRunStream steps the PDN over a benchmark's entire load
 * trace with PdnModel::simulate, as Platform::runStream did before it
 * stepped only the observed window, and traceLadderRow synthesizes
 * every ladder run as a full die-voltage waveform and classifies its
 * minimum, as VminTester did before it reduced the nominal waveform
 * to its deepest droop. Production must match both bit for bit.
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
        const auto run = plat().runKernelBatch(
            kernel, settings_.duration_s, settings_.active_cores);
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

/// Settle lead-in every platform run prepends and strips [s]; the
/// platform's private constant, restated for the oracles.
inline constexpr double kOracleSettleTime = 0.5e-6;

/**
 * Platform::runStream with the whole-trace PDN transient: the core
 * run, stagger sum and resample of the platform, then
 * PdnModel::simulate over every load sample, sliced to the window.
 */
inline platform::PlatformRunResult
wholeTraceRunStream(const platform::Platform &plat,
                    std::span<const isa::Instruction> stream,
                    double duration_s, std::size_t active_cores = 0)
{
    const auto &cfg = plat.config();
    const uarch::CoreModel core(cfg.core);
    const auto run = core.runStream(plat.pool(), stream, plat.frequency());
    const std::size_t powered = plat.poweredCores();
    if (active_cores == 0)
        active_cores = powered;
    const double stagger_s = run.current.duration()
        / static_cast<double>(std::max<std::size_t>(2, powered + 1));

    const Trace &one = run.current;
    const auto stagger_cycles = std::max<std::size_t>(
        1, static_cast<std::size_t>(stagger_s / one.dt()));
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

    circuit::SourceWaveform pulse;
    if (plat.armedPulse()) {
        const em::PulseInjector injector(*plat.armedPulse());
        if (!injector.isNull())
            pulse = injector.waveform(kOracleSettleTime);
    }
    const Trace i_load = total.resampleZeroOrderHold(platform::kPdnDt);
    auto sim = plat.pdnModel().simulate(i_load, nullptr, pulse);

    std::size_t settle_steps = static_cast<std::size_t>(
        kOracleSettleTime / platform::kPdnDt);
    if (settle_steps >= sim.v_die.size())
        settle_steps = 0;
    const std::size_t want =
        static_cast<std::size_t>(duration_s / platform::kPdnDt);
    const std::size_t n =
        std::min(want, sim.v_die.size() - settle_steps);
    platform::PlatformRunResult out{
        sim.v_die.slice(settle_steps, n),
        sim.i_die.slice(settle_steps, n), Trace(platform::kPdnDt),
        run.stats};
    out.em = plat.antenna().receive(out.i_die, cfg.antenna_distance_m);
    return out;
}

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
