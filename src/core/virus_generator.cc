/**
 * @file
 * Virus generator implementation.
 */

#include "core/virus_generator.h"

#include <memory>

#include "util/error.h"

namespace emstress {
namespace core {

std::string
virusMetricName(VirusMetric metric)
{
    switch (metric) {
      case VirusMetric::EmAmplitude: return "em-amplitude";
      case VirusMetric::MaxDroop:    return "max-droop";
      case VirusMetric::PeakToPeak:  return "peak-to-peak";
    }
    return "unknown";
}

namespace {

/// Noise salts of the post-search characterization (distinct from
/// the fitness evaluators' so the two measurements stay independent).
constexpr std::uint64_t kCharacterizeSaSalt = 0x434841525f5341ull;
constexpr std::uint64_t kCharacterizeScopeSalt = 0x434841525f4453ull;

} // namespace

VirusGenerator::VirusGenerator(platform::Platform &plat) : plat_(plat)
{}

VirusReport
VirusGenerator::search(const VirusSearchConfig &config,
                       const ga::GenerationCallback &callback)
{
    std::unique_ptr<PlatformFitness> evaluator;
    switch (config.metric) {
      case VirusMetric::EmAmplitude:
        evaluator =
            std::make_unique<EmAmplitudeFitness>(plat_, config.eval);
        break;
      case VirusMetric::MaxDroop:
        evaluator =
            std::make_unique<MaxDroopFitness>(plat_, config.eval);
        break;
      case VirusMetric::PeakToPeak:
        evaluator =
            std::make_unique<PeakToPeakFitness>(plat_, config.eval);
        break;
    }
    evaluator->setFaultInjector(config.faults);

    ga::GaEngine engine(plat_.pool(), config.ga);
    ga::GaResult ga_result = engine.run(*evaluator, callback);

    VirusReport report = characterize(ga_result.best, config.eval);
    report.ga = std::move(ga_result);
    report.metric = virusMetricName(config.metric);
    return report;
}

VirusReport
VirusGenerator::characterize(const isa::Kernel &kernel,
                             const EvalSettings &eval)
{
    VirusReport report;
    report.virus = kernel;
    report.metric = "characterization";

    const auto run = plat_.runKernel(kernel, eval.duration_s,
                                     eval.active_cores);
    report.loop_freq_hz = run.stats.loop_freq_hz;
    report.ipc = run.stats.ipc;

    // Noise keyed by (kernel, platform seed), like the fitness
    // evaluators': a report depends only on what is characterized,
    // never on how many measurements the platform made before it.
    const auto noiseKey = [&](std::uint64_t salt) {
        return mixSeed(kernel.hash() ^ salt, plat_.seed());
    };
    const auto marker = plat_.analyzer().averagedMaxAmplitude(
        run.em, eval.f_lo_hz, eval.f_hi_hz, eval.sa_samples,
        noiseKey(kCharacterizeSaSalt));
    report.dominant_freq_hz = marker.freq_hz;

    if (plat_.hasVoltageVisibility()) {
        Rng scope_noise(noiseKey(kCharacterizeScopeSalt));
        const Trace cap = plat_.scope().capture(run.v_die, scope_noise);
        report.max_droop_v = instruments::Oscilloscope::maxDroop(
            cap, plat_.voltage());
        report.peak_to_peak_v =
            instruments::Oscilloscope::peakToPeak(cap);
    }
    return report;
}

} // namespace core
} // namespace emstress
