/**
 * @file
 * Batch-trace oracle evaluator for the streaming fitness tests. It
 * measures what core::EmAmplitudeFitness, MaxDroopFitness and
 * PeakToPeakFitness measure, but from whole materialized traces:
 * Platform::runKernelBatch, then SpectrumAnalyzer::averagedMaxAmplitude
 * (FFT sweeps) or Oscilloscope::capture. Its noise is keyed with the
 * production evaluators' salts, so the two must agree — bit-exactly
 * for the scope metrics, to within 1e-6 dB for the EM band maximum.
 * It carries no fault model: TruncatedStream faults exist only on the
 * streaming path.
 */

#ifndef EMSTRESS_TESTS_BATCH_ORACLE_H
#define EMSTRESS_TESTS_BATCH_ORACLE_H

#include <memory>
#include <string>

#include "core/fitness.h"
#include "core/virus_generator.h"
#include "dsp/spectrum.h"
#include "instruments/oscilloscope.h"
#include "platform/platform.h"

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

} // namespace core
} // namespace emstress

#endif // EMSTRESS_TESTS_BATCH_ORACLE_H
