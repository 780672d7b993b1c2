/**
 * @file
 * Fitness evaluators binding the GA to a simulated platform — the
 * one model of the paper's host-target measurement loop (Section
 * 3.2), with its latency and fault points. Three metrics, matching
 * the paper: maximum EM amplitude in the 1st-order resonance band
 * (the novel contribution) and, where direct voltage visibility
 * exists, maximum droop and peak-to-peak voltage (the baselines used
 * for validation and for the a72OC-DSO / amdOsc viruses).
 *
 * All three evaluators are *order-independent*: measurement noise is
 * seeded from the evaluated kernel's structural hash (mixed with the
 * platform seed), so a kernel's fitness depends only on the kernel —
 * never on how many measurements ran before it. That property makes
 * the GA's fitness memoization lossless and its parallel batch
 * evaluation bit-identical to the serial path. They are also
 * *cloneable*: clone() replicates the bound platform so each worker
 * thread simulates on its own PDN engine and instruments.
 *
 * Every evaluator measures one way: it streams the run
 * (Platform::streamKernel) straight into its instrument sink — the
 * FFT band detector for the EM metric, the scope front end for the
 * voltage metrics — so no full-rate waveform is ever buffered. The
 * whole-trace twin of these evaluators lives only in the tests
 * (tests/batch_oracle.h), which key their noise with the same salts
 * below.
 */

#ifndef EMSTRESS_CORE_FITNESS_H
#define EMSTRESS_CORE_FITNESS_H

#include <functional>
#include <memory>
#include <string>

#include "ga/fault_injector.h"
#include "ga/ga_engine.h"
#include "platform/platform.h"
#include "util/faultpoint.h"
#include "util/units.h"

namespace emstress {
namespace core {

/** Shared evaluation settings. */
struct EvalSettings
{
    double duration_s = 4e-6;     ///< Steady-state window per run.
    double f_lo_hz = mega(50.0);        ///< EM search band start (paper:
                                  ///< 50-200 MHz, the 1st-order range).
    double f_hi_hz = mega(200.0);       ///< EM search band end.
    std::size_t sa_samples = 30;  ///< Spectrum samples per individual.
    std::size_t active_cores = 0; ///< 0 = all powered cores.
};

/// @{ Per-metric noise salts: the same kernel measured through
/// different instruments must not see correlated noise. Public so an
/// oracle evaluator can key its noise identically.
inline constexpr std::uint64_t kEmNoiseSalt = 0x454d5f414d504cull;
inline constexpr std::uint64_t kDroopNoiseSalt = 0x44524f4f50ull;
inline constexpr std::uint64_t kP2pNoiseSalt = 0x5032505full;
/// @}

/**
 * Common base of the platform-bound evaluators: holds the platform
 * (by reference, or owned when the evaluator is a clone) and derives
 * the per-kernel noise stream. Optionally binds a FaultInjector: the
 * derived evaluators then consult it at their measurement-chain
 * fault points and throw FaultError on scheduled faults, which the
 * GA's batch evaluator retries. Aborted attempts leave no platform
 * state behind (noise streams are per-evaluation locals and the PDN
 * engine cache is geometry-keyed), so the retried measurement is
 * bit-identical to an unfaulted one.
 */
class PlatformFitness : public ga::FitnessEvaluator
{
  public:
    /**
     * Install (or clear, with nullptr) a fault injector. Shared
     * across clone(): all workers of a parallel batch report into
     * the same injection counters.
     */
    void
    setFaultInjector(std::shared_ptr<ga::FaultInjector> injector)
    {
        injector_ = std::move(injector);
    }

  protected:
    PlatformFitness(platform::Platform &plat,
                    const EvalSettings &settings)
        : plat_(&plat), settings_(settings)
    {}

    /** Clone constructor: takes ownership of a platform replica. */
    PlatformFitness(std::shared_ptr<platform::Platform> owned,
                    const EvalSettings &settings)
        : plat_(owned.get()), owned_(std::move(owned)),
          settings_(settings)
    {}

    /** The bound platform. */
    platform::Platform &plat() const { return *plat_; }

    /**
     * Measurement-noise key for one kernel: a pure function of the
     * kernel genome, the platform seed and a per-metric salt.
     */
    std::uint64_t
    noiseKeyFor(const isa::Kernel &kernel, std::uint64_t salt) const
    {
        return mixSeed(kernel.hash() ^ salt, plat_->seed());
    }

    /** Measurement-noise stream seeded with noiseKeyFor(). */
    Rng
    noiseFor(const isa::Kernel &kernel, std::uint64_t salt) const
    {
        return Rng(noiseKeyFor(kernel, salt));
    }

    /** Injected-fault check: no-op without an injector. */
    void
    faultAt(FaultPoint point, std::uint64_t key,
            std::uint32_t attempt, double cost_seconds) const
    {
        if (injector_)
            injector_->at(point, key, attempt, cost_seconds);
    }

    /**
     * Where the sample stream of (key, attempt) truncates: an index
     * in [0, n) when a TruncatedStream fault is scheduled (drawn
     * uniformly from the schedule's parameter stream), n when the
     * stream completes.
     */
    std::size_t
    truncationCutoff(std::uint64_t key, std::uint32_t attempt,
                     std::size_t n) const
    {
        if (!injector_ || n == 0)
            return n;
        const FaultSchedule &sched = injector_->schedule();
        if (!sched.fires(FaultPoint::TruncatedStream, key, attempt))
            return n;
        const double u = sched.unitDraw(FaultPoint::TruncatedStream,
                                        key, attempt, /*salt=*/1);
        return static_cast<std::size_t>(
            u * static_cast<double>(n));
    }

    /** Builds the instrument sink of one run once its plan is known. */
    using SinkFactory =
        std::function<SampleSink &(const platform::StreamPlan &)>;

    /**
     * Stream one run of `kernel` into a single instrument tap
     * (`&StreamObservers::em` or `::v_die`). `make_sink` builds the
     * sink between streamKernel's passes. When a TruncatedStream
     * fault is scheduled for (kernel, attempt), a TruncatingSink
     * ahead of the instrument unwinds the stream at the cutoff with
     * a FaultError charging `lab_seconds` pro rata plus the timeout.
     */
    void streamMeasurement(const isa::Kernel &kernel,
                           std::uint32_t attempt,
                           SampleSink *platform::StreamObservers::*tap,
                           double lab_seconds,
                           const SinkFactory &make_sink) const;

    /**
     * Shared body of the scope metrics: link and trigger faults, one
     * streamed die-voltage capture with noise keyed by `salt`, then
     * `metric` of the capture (given the supply voltage). The
     * detail's dominant frequency is the capture's strongest
     * in-band FFT peak.
     */
    double scopeMetric(
        const isa::Kernel &kernel, ga::EvalDetail *detail,
        std::uint32_t attempt, std::uint64_t salt,
        double (*metric)(const instruments::ScopeCaptureSink &capture,
                         double v_supply)) const;

    platform::Platform *plat_;
    std::shared_ptr<platform::Platform> owned_;
    EvalSettings settings_;
    ga::ConnectionLatency latency_;
    std::shared_ptr<ga::FaultInjector> injector_;
};

/**
 * EM-amplitude fitness (paper Section 3.1(b)): the RMS over
 * `sa_samples` sweeps of the maximum EM amplitude anywhere within
 * [f_lo, f_hi]. Fitness unit: dBm (monotone in received power).
 */
class EmAmplitudeFitness : public PlatformFitness
{
  public:
    EmAmplitudeFitness(platform::Platform &plat,
                       const EvalSettings &settings);

    double evaluate(const isa::Kernel &kernel,
                    ga::EvalDetail *detail) override;
    double evaluate(const isa::Kernel &kernel, ga::EvalDetail *detail,
                    std::uint32_t attempt) override;

    std::string metricName() const override { return "em-amplitude"; }

    std::unique_ptr<ga::FitnessEvaluator> clone() const override;

  private:
    EmAmplitudeFitness(std::shared_ptr<platform::Platform> owned,
                       const EvalSettings &settings)
        : PlatformFitness(std::move(owned), settings)
    {}
};

/**
 * Maximum-droop fitness through the platform's scope (OC-DSO or
 * Kelvin pads). Fitness unit: volts of droop below nominal.
 * @throws ConfigError at construction when the platform has no
 *         voltage visibility.
 */
class MaxDroopFitness : public PlatformFitness
{
  public:
    MaxDroopFitness(platform::Platform &plat,
                    const EvalSettings &settings);

    double evaluate(const isa::Kernel &kernel,
                    ga::EvalDetail *detail) override;
    double evaluate(const isa::Kernel &kernel, ga::EvalDetail *detail,
                    std::uint32_t attempt) override;

    std::string metricName() const override { return "max-droop"; }

    std::unique_ptr<ga::FitnessEvaluator> clone() const override;

  private:
    MaxDroopFitness(std::shared_ptr<platform::Platform> owned,
                    const EvalSettings &settings)
        : PlatformFitness(std::move(owned), settings)
    {}
};

/** Peak-to-peak voltage fitness through the platform's scope. */
class PeakToPeakFitness : public PlatformFitness
{
  public:
    PeakToPeakFitness(platform::Platform &plat,
                      const EvalSettings &settings);

    double evaluate(const isa::Kernel &kernel,
                    ga::EvalDetail *detail) override;
    double evaluate(const isa::Kernel &kernel, ga::EvalDetail *detail,
                    std::uint32_t attempt) override;

    std::string metricName() const override { return "peak-to-peak"; }

    std::unique_ptr<ga::FitnessEvaluator> clone() const override;

  private:
    PeakToPeakFitness(std::shared_ptr<platform::Platform> owned,
                      const EvalSettings &settings)
        : PlatformFitness(std::move(owned), settings)
    {}
};

} // namespace core
} // namespace emstress

#endif // EMSTRESS_CORE_FITNESS_H
