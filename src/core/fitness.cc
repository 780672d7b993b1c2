/**
 * @file
 * Fitness evaluator implementations.
 */

#include "core/fitness.h"

#include <optional>

#include "dsp/spectrum.h"
#include "util/error.h"

namespace emstress {
namespace core {

namespace {

/** Modeled lab seconds for one individual's measurement. */
double
labSecondsPerIndividual(const ga::ConnectionLatency &lat,
                        std::size_t samples)
{
    return lat.deploy_s + lat.start_stop_s
        + lat.per_sample_s * static_cast<double>(samples);
}

} // namespace

void
PlatformFitness::streamMeasurement(
    const isa::Kernel &kernel, std::uint32_t attempt,
    SampleSink *platform::StreamObservers::*tap, double lab_seconds,
    const SinkFactory &make_sink) const
{
    const std::uint64_t key = kernel.hash();
    std::optional<TruncatingSink> trunc;
    plat().streamKernel(
        kernel, settings_.duration_s,
        [&](const platform::StreamPlan &plan) {
            SampleSink *obs = &make_sink(plan);
            const std::size_t cut =
                truncationCutoff(key, attempt, plan.n_samples);
            if (cut < plan.n_samples) {
                injector_->recordInjected(FaultPoint::TruncatedStream);
                const double frac = static_cast<double>(cut)
                    / static_cast<double>(plan.n_samples);
                trunc.emplace(
                    *obs, cut,
                    FaultError(FaultPoint::TruncatedStream, key,
                               attempt,
                               lab_seconds * frac
                                   + latency_.timeout_s));
                obs = &*trunc;
            }
            platform::StreamObservers observers;
            observers.*tap = obs;
            return observers;
        },
        settings_.active_cores);
}

double
PlatformFitness::scopeMetric(
    const isa::Kernel &kernel, ga::EvalDetail *detail,
    std::uint32_t attempt, std::uint64_t salt,
    double (*metric)(const instruments::ScopeCaptureSink &capture,
                     double v_supply)) const
{
    const std::uint64_t key = kernel.hash();
    faultAt(FaultPoint::ConnectionTimeout, key, attempt,
            latency_.deploy_s + latency_.timeout_s);
    faultAt(FaultPoint::KernelHang, key, attempt,
            latency_.deploy_s + latency_.start_stop_s
                + latency_.timeout_s);
    // The scope can fail to trigger on the run: nothing is captured
    // and the host waits out the trigger timeout.
    faultAt(FaultPoint::TriggerMiss, key, attempt,
            latency_.deploy_s + latency_.start_stop_s
                + latency_.timeout_s);
    // Stream the die voltage into the scope front end; only the
    // bounded record is buffered. Scope-based measurement is quicker
    // than 30 SA samples.
    Rng noise = noiseFor(kernel, salt);
    std::optional<instruments::ScopeCaptureSink> sink;
    const double lab_seconds = labSecondsPerIndividual(latency_, 3);
    streamMeasurement(kernel, attempt, &platform::StreamObservers::v_die,
                      lab_seconds,
                      [&](const platform::StreamPlan &plan)
                          -> SampleSink & {
                          return sink.emplace(plat().scope().params(),
                                              plan.n_samples, plan.dt,
                                              noise);
                      });
    const double value = metric(*sink, plat().voltage());
    if (detail) {
        const auto spec =
            instruments::Oscilloscope::fftView(sink->capture());
        const auto pk = dsp::maxPeakInBand(spec, settings_.f_lo_hz,
                                           settings_.f_hi_hz);
        detail->dominant_freq_hz = pk.freq_hz;
        detail->metric_raw = value;
        detail->measurement_seconds = lab_seconds;
        detail->samples_materialized = sink->capture().size();
    }
    return value;
}

EmAmplitudeFitness::EmAmplitudeFitness(platform::Platform &plat,
                                       const EvalSettings &settings)
    : PlatformFitness(plat, settings)
{
    requireConfig(settings.f_hi_hz > settings.f_lo_hz,
                  "EM band must have positive width");
    requireConfig(settings.duration_s > 0.0,
                  "evaluation duration must be positive");
}

double
EmAmplitudeFitness::evaluate(const isa::Kernel &kernel,
                             ga::EvalDetail *detail)
{
    return evaluate(kernel, detail, 0);
}

double
EmAmplitudeFitness::evaluate(const isa::Kernel &kernel,
                             ga::EvalDetail *detail,
                             std::uint32_t attempt)
{
    const std::uint64_t key = kernel.hash();
    // Link-level faults before any simulation work happens.
    faultAt(FaultPoint::ConnectionTimeout, key, attempt,
            latency_.deploy_s + latency_.timeout_s);
    faultAt(FaultPoint::KernelHang, key, attempt,
            latency_.deploy_s + latency_.start_stop_s
                + latency_.timeout_s);
    const double lab_seconds =
        labSecondsPerIndividual(latency_, settings_.sa_samples);
    // Stream the antenna voltage into the band detector, which
    // buffers the one window it transforms; the transform tables are
    // shared by every evaluation of this capture geometry.
    std::optional<instruments::SaBandDetector> det;
    std::size_t buffered = 0;
    streamMeasurement(
        kernel, attempt, &platform::StreamObservers::em, lab_seconds,
        [&](const platform::StreamPlan &plan) -> SampleSink & {
            buffered = plan.n_samples;
            return det.emplace(plat().analyzer().params(),
                               plan.n_samples, 1.0 / plan.dt,
                               settings_.f_lo_hz, settings_.f_hi_hz);
        });
    const instruments::SaMarker marker = det->averagedMaxAmplitude(
        settings_.sa_samples, noiseKeyFor(kernel, kEmNoiseSalt));
    // The analyzer can return a corrupt marker: the measurement ran
    // to completion, so its full cost is wasted.
    faultAt(FaultPoint::GlitchedReading, key, attempt, lab_seconds);
    if (detail) {
        detail->dominant_freq_hz = marker.freq_hz;
        detail->metric_raw = marker.power_dbm;
        detail->measurement_seconds = lab_seconds;
        detail->samples_materialized = buffered;
    }
    return marker.power_dbm;
}

std::unique_ptr<ga::FitnessEvaluator>
EmAmplitudeFitness::clone() const
{
    auto copy = std::unique_ptr<EmAmplitudeFitness>(
        new EmAmplitudeFitness(
            std::shared_ptr<platform::Platform>(plat().clone()),
            settings_));
    copy->setFaultInjector(injector_);
    return copy;
}

MaxDroopFitness::MaxDroopFitness(platform::Platform &plat,
                                 const EvalSettings &settings)
    : PlatformFitness(plat, settings)
{
    requireConfig(plat.hasVoltageVisibility(),
                  "droop fitness requires direct voltage "
                  "measurement; use EmAmplitudeFitness on "
                      + plat.config().name);
}

double
MaxDroopFitness::evaluate(const isa::Kernel &kernel,
                          ga::EvalDetail *detail)
{
    return evaluate(kernel, detail, 0);
}

double
MaxDroopFitness::evaluate(const isa::Kernel &kernel,
                          ga::EvalDetail *detail,
                          std::uint32_t attempt)
{
    return scopeMetric(
        kernel, detail, attempt, kDroopNoiseSalt,
        [](const instruments::ScopeCaptureSink &capture,
           double v_supply) { return capture.maxDroop(v_supply); });
}

std::unique_ptr<ga::FitnessEvaluator>
MaxDroopFitness::clone() const
{
    auto copy = std::unique_ptr<MaxDroopFitness>(new MaxDroopFitness(
        std::shared_ptr<platform::Platform>(plat().clone()),
        settings_));
    copy->setFaultInjector(injector_);
    return copy;
}

PeakToPeakFitness::PeakToPeakFitness(platform::Platform &plat,
                                     const EvalSettings &settings)
    : PlatformFitness(plat, settings)
{
    requireConfig(plat.hasVoltageVisibility(),
                  "peak-to-peak fitness requires direct voltage "
                  "measurement; use EmAmplitudeFitness on "
                      + plat.config().name);
}

double
PeakToPeakFitness::evaluate(const isa::Kernel &kernel,
                            ga::EvalDetail *detail)
{
    return evaluate(kernel, detail, 0);
}

double
PeakToPeakFitness::evaluate(const isa::Kernel &kernel,
                            ga::EvalDetail *detail,
                            std::uint32_t attempt)
{
    return scopeMetric(
        kernel, detail, attempt, kP2pNoiseSalt,
        [](const instruments::ScopeCaptureSink &capture, double) {
            return capture.peakToPeak();
        });
}

std::unique_ptr<ga::FitnessEvaluator>
PeakToPeakFitness::clone() const
{
    auto copy =
        std::unique_ptr<PeakToPeakFitness>(new PeakToPeakFitness(
            std::shared_ptr<platform::Platform>(plat().clone()),
            settings_));
    copy->setFaultInjector(injector_);
    return copy;
}

} // namespace core
} // namespace emstress
