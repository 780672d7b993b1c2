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

/// Per-metric noise salts: the same kernel measured through
/// different instruments must not see correlated noise.
constexpr std::uint64_t kEmNoiseSalt = 0x454d5f414d504cull;
constexpr std::uint64_t kDroopNoiseSalt = 0x44524f4f50ull;
constexpr std::uint64_t kP2pNoiseSalt = 0x5032505full;

} // namespace

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
    const std::uint64_t noise_key = noiseKeyFor(kernel, kEmNoiseSalt);
    instruments::SaMarker marker;
    std::size_t materialized = 0;
    if (settings_.streaming) {
        // Stream the antenna voltage straight into a Goertzel band
        // detector: no waveform is ever buffered. A scheduled
        // TruncatedStream fault interposes a TruncatingSink, which
        // unwinds streamKernel mid-capture at a schedule-drawn
        // cutoff.
        std::optional<instruments::SaBandDetector> det;
        std::optional<TruncatingSink> trunc;
        plat().streamKernel(
            kernel, settings_.duration_s,
            [&](const platform::StreamPlan &plan) {
                const double rate = 1.0 / plan.dt;
                if (!bank_ || bank_n_ != plan.n_samples
                    || bank_rate_hz_ != rate) {
                    bank_ = std::make_unique<dsp::GoertzelBank>(
                        plan.n_samples, rate, settings_.f_lo_hz,
                        settings_.f_hi_hz,
                        plat().analyzer().params().window);
                    bank_n_ = plan.n_samples;
                    bank_rate_hz_ = rate;
                }
                det.emplace(plat().analyzer().params(), *bank_,
                            settings_.f_lo_hz, settings_.f_hi_hz);
                SampleSink *em_obs = &*det;
                const std::size_t cut =
                    truncationCutoff(key, attempt, plan.n_samples);
                if (cut < plan.n_samples) {
                    injector_->recordInjected(
                        FaultPoint::TruncatedStream);
                    const double frac = static_cast<double>(cut)
                        / static_cast<double>(plan.n_samples);
                    trunc.emplace(
                        *em_obs, cut,
                        FaultError(FaultPoint::TruncatedStream, key,
                                   attempt,
                                   labSecondsPerIndividual(
                                       latency_,
                                       settings_.sa_samples)
                                           * frac
                                       + latency_.timeout_s));
                    em_obs = &*trunc;
                }
                return platform::StreamObservers{nullptr, nullptr,
                                                 em_obs};
            },
            settings_.active_cores);
        marker = det->averagedMaxAmplitude(settings_.sa_samples,
                                           noise_key);
    } else {
        const auto run = plat().runKernelBatch(
            kernel, settings_.duration_s, settings_.active_cores);
        materialized =
            run.v_die.size() + run.i_die.size() + run.em.size();
        marker = plat().analyzer().averagedMaxAmplitude(
            run.em, settings_.f_lo_hz, settings_.f_hi_hz,
            settings_.sa_samples, noise_key);
    }
    // The analyzer can return a corrupt marker: the measurement ran
    // to completion, so its full cost is wasted.
    faultAt(FaultPoint::GlitchedReading, key, attempt,
            labSecondsPerIndividual(latency_, settings_.sa_samples));
    if (detail) {
        detail->dominant_freq_hz = marker.freq_hz;
        detail->metric_raw = marker.power_dbm;
        detail->measurement_seconds =
            labSecondsPerIndividual(latency_, settings_.sa_samples);
        detail->samples_materialized = materialized;
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
    Rng noise = noiseFor(kernel, kDroopNoiseSalt);
    double droop = 0.0;
    std::size_t materialized = 0;
    std::optional<instruments::ScopeCaptureSink> sink;
    std::optional<TruncatingSink> trunc;
    Trace batch_cap(1.0);
    if (settings_.streaming) {
        // Stream the die voltage into the scope front end; only the
        // bounded record is buffered. TruncatedStream faults unwind
        // the stream mid-capture through a TruncatingSink.
        plat().streamKernel(
            kernel, settings_.duration_s,
            [&](const platform::StreamPlan &plan) {
                sink.emplace(plat().scope().params(), plan.n_samples,
                             plan.dt, noise);
                SampleSink *v_obs = &*sink;
                const std::size_t cut =
                    truncationCutoff(key, attempt, plan.n_samples);
                if (cut < plan.n_samples) {
                    injector_->recordInjected(
                        FaultPoint::TruncatedStream);
                    const double frac = static_cast<double>(cut)
                        / static_cast<double>(plan.n_samples);
                    trunc.emplace(
                        *v_obs, cut,
                        FaultError(FaultPoint::TruncatedStream, key,
                                   attempt,
                                   labSecondsPerIndividual(latency_,
                                                           3)
                                           * frac
                                       + latency_.timeout_s));
                    v_obs = &*trunc;
                }
                return platform::StreamObservers{v_obs, nullptr,
                                                 nullptr};
            },
            settings_.active_cores);
        droop = sink->maxDroop(plat().voltage());
        materialized = sink->capture().size();
    } else {
        const auto run = plat().runKernelBatch(
            kernel, settings_.duration_s, settings_.active_cores);
        batch_cap = plat().scope().capture(run.v_die, noise);
        droop = instruments::Oscilloscope::maxDroop(batch_cap,
                                                    plat().voltage());
        materialized = run.v_die.size() + run.i_die.size()
            + run.em.size() + batch_cap.size();
    }
    if (detail) {
        const Trace &cap =
            settings_.streaming ? sink->capture() : batch_cap;
        const auto spec = instruments::Oscilloscope::fftView(cap);
        const auto pk = dsp::maxPeakInBand(spec, settings_.f_lo_hz,
                                           settings_.f_hi_hz);
        detail->dominant_freq_hz = pk.freq_hz;
        detail->metric_raw = droop;
        // Scope-based measurement is quicker than 30 SA samples.
        detail->measurement_seconds =
            labSecondsPerIndividual(latency_, 3);
        detail->samples_materialized = materialized;
    }
    return droop;
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
    const std::uint64_t key = kernel.hash();
    faultAt(FaultPoint::ConnectionTimeout, key, attempt,
            latency_.deploy_s + latency_.timeout_s);
    faultAt(FaultPoint::KernelHang, key, attempt,
            latency_.deploy_s + latency_.start_stop_s
                + latency_.timeout_s);
    faultAt(FaultPoint::TriggerMiss, key, attempt,
            latency_.deploy_s + latency_.start_stop_s
                + latency_.timeout_s);
    Rng noise = noiseFor(kernel, kP2pNoiseSalt);
    double p2p = 0.0;
    std::size_t materialized = 0;
    std::optional<instruments::ScopeCaptureSink> sink;
    std::optional<TruncatingSink> trunc;
    Trace batch_cap(1.0);
    if (settings_.streaming) {
        plat().streamKernel(
            kernel, settings_.duration_s,
            [&](const platform::StreamPlan &plan) {
                sink.emplace(plat().scope().params(), plan.n_samples,
                             plan.dt, noise);
                SampleSink *v_obs = &*sink;
                const std::size_t cut =
                    truncationCutoff(key, attempt, plan.n_samples);
                if (cut < plan.n_samples) {
                    injector_->recordInjected(
                        FaultPoint::TruncatedStream);
                    const double frac = static_cast<double>(cut)
                        / static_cast<double>(plan.n_samples);
                    trunc.emplace(
                        *v_obs, cut,
                        FaultError(FaultPoint::TruncatedStream, key,
                                   attempt,
                                   labSecondsPerIndividual(latency_,
                                                           3)
                                           * frac
                                       + latency_.timeout_s));
                    v_obs = &*trunc;
                }
                return platform::StreamObservers{v_obs, nullptr,
                                                 nullptr};
            },
            settings_.active_cores);
        p2p = sink->peakToPeak();
        materialized = sink->capture().size();
    } else {
        const auto run = plat().runKernelBatch(
            kernel, settings_.duration_s, settings_.active_cores);
        batch_cap = plat().scope().capture(run.v_die, noise);
        p2p = instruments::Oscilloscope::peakToPeak(batch_cap);
        materialized = run.v_die.size() + run.i_die.size()
            + run.em.size() + batch_cap.size();
    }
    if (detail) {
        const Trace &cap =
            settings_.streaming ? sink->capture() : batch_cap;
        const auto spec = instruments::Oscilloscope::fftView(cap);
        const auto pk = dsp::maxPeakInBand(spec, settings_.f_lo_hz,
                                           settings_.f_hi_hz);
        detail->dominant_freq_hz = pk.freq_hz;
        detail->metric_raw = p2p;
        detail->measurement_seconds =
            labSecondsPerIndividual(latency_, 3);
        detail->samples_materialized = materialized;
    }
    return p2p;
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

InProcessTarget::InProcessTarget(platform::Platform &plat,
                                 const EvalSettings &settings)
    : plat_(plat), settings_(settings)
{}

void
InProcessTarget::deploy(const isa::Kernel &kernel)
{
    if (inject_failures_ > 0) {
        --inject_failures_;
        throw SimulationError("injected deploy failure to "
                              + describe());
    }
    if (injector_) {
        injector_->atCounted(FaultPoint::ConnectionTimeout,
                             kernel.hash(), deploy_attempt_,
                             latency_.deploy_s + latency_.timeout_s);
    }
    kernel.validate(plat_.pool()); // "compile": reject bad encodings
    deployed_ = kernel;
    has_deployed_ = true;
    lab_seconds_ += latency_.deploy_s;
}

void
InProcessTarget::startRun()
{
    requireSim(has_deployed_, "startRun before deploy");
    if (injector_) {
        injector_->atCounted(FaultPoint::KernelHang, deployed_.hash(),
                             start_attempt_,
                             latency_.start_stop_s
                                 + latency_.timeout_s);
    }
    running_ = true;
    lab_seconds_ += latency_.start_stop_s * 0.5;
}

Trace
InProcessTarget::measureEm()
{
    requireSim(running_, "measureEm while no binary is running");
    if (injector_) {
        injector_->atCounted(FaultPoint::TriggerMiss,
                             deployed_.hash(), measure_attempt_,
                             latency_.per_sample_s
                                 + latency_.timeout_s);
    }
    lab_seconds_ += latency_.per_sample_s;
    return plat_
        .runKernel(deployed_, settings_.duration_s,
                   settings_.active_cores)
        .em;
}

void
InProcessTarget::stopRun()
{
    requireSim(running_, "stopRun while nothing runs");
    running_ = false;
    lab_seconds_ += latency_.start_stop_s * 0.5;
}

std::string
InProcessTarget::describe() const
{
    return "in-process://" + plat_.config().name;
}

} // namespace core
} // namespace emstress
