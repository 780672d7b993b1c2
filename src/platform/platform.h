/**
 * @file
 * Platform: the integration of cores, PDN, antenna coupling and
 * instruments into one simulated device-under-test with DVFS and
 * power-gating controls — the stand-in for the paper's Juno board
 * clusters and the AMD desktop (Table 1).
 */

#ifndef EMSTRESS_PLATFORM_PLATFORM_H
#define EMSTRESS_PLATFORM_PLATFORM_H

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "em/antenna.h"
#include "em/pulse_injector.h"
#include "instruments/oscilloscope.h"
#include "instruments/scl.h"
#include "instruments/spectrum_analyzer.h"
#include "isa/kernel.h"
#include "isa/pool.h"
#include "pdn/pdn_model.h"
#include "uarch/core_model.h"
#include "util/rng.h"
#include "util/trace.h"
#include "util/units.h"

namespace emstress {
namespace platform {

/** PDN simulation timestep shared across the project: 4 GS/s. */
inline constexpr double kPdnDt = 0.25e-9;

/** Voltage-noise visibility of a platform (Table 1 last column). */
enum class VoltageVisibility
{
    OcDso,        ///< On-chip DSO (Juno Cortex-A72 domain).
    None,         ///< No direct measurement (Juno Cortex-A53 domain).
    KelvinPads,   ///< On-package pads + benchtop scope (AMD).
};

/** Static description of a platform (one row of Table 1). */
struct PlatformConfig
{
    std::string name;          ///< e.g. "Cortex-A72".
    std::string motherboard;   ///< e.g. "Juno Board R2".
    std::string os;            ///< e.g. "Debian".
    int technology_nm = 16;    ///< Process node.
    std::size_t n_cores = 2;   ///< Cores in the voltage domain.
    double f_max_hz = giga(1.2);   ///< Highest operating frequency.
    double f_min_hz = mega(120.0);   ///< Lowest DVFS frequency.
    double f_step_hz = mega(20.0);   ///< DVFS frequency granularity.
    double v_nom = 1.0;        ///< Nominal voltage at f_max.
    VoltageVisibility visibility = VoltageVisibility::None;
    bool has_scl = false;      ///< SCL injector present.
    double antenna_distance_m = 0.07; ///< Antenna placement.

    uarch::CoreParams core;    ///< Core microarchitecture.
    pdn::PdnParameters pdn;    ///< PDN electrical model.
    isa::IsaFamily isa = isa::IsaFamily::ArmV8;
};

/** Juno R2 Cortex-A72 domain (dual-core OoO, OC-DSO + SCL). */
PlatformConfig junoA72Config();

/** Juno R2 Cortex-A53 domain (quad-core in-order, no visibility). */
PlatformConfig junoA53Config();

/** AMD Athlon II X4 645 on Asus M5A78L LE (Kelvin pads). */
PlatformConfig athlonConfig();

/** Result of executing software (or the SCL) on a platform. */
struct PlatformRunResult
{
    Trace v_die;  ///< Die voltage at the PDN timestep [V].
    Trace i_die;  ///< Package-loop current [A].
    Trace em;     ///< Antenna voltage at the analyzer input [V].
    uarch::KernelRunStats stats; ///< Core stats (loop runs).
};

/**
 * Shape of a streaming kernel run, known before any sample flows:
 * what each observer sink will receive. Observer factories use it to
 * size streaming detectors (the FFT detector's plan is fixed by the
 * capture length) and to pick bands from the loop statistics.
 */
struct StreamPlan
{
    uarch::KernelRunStats stats; ///< Core loop statistics.
    std::size_t n_samples = 0;   ///< Samples each observer receives.
    double dt = kPdnDt;          ///< Observer sample interval [s].
};

/**
 * Observer sinks for one streaming run. Null entries skip that tap
 * entirely (an EM-only measurement never touches the voltage path,
 * and vice versa).
 */
struct StreamObservers
{
    SampleSink *v_die = nullptr; ///< Die voltage [V].
    SampleSink *i_die = nullptr; ///< Package-loop current [A].
    SampleSink *em = nullptr;    ///< Antenna voltage [V].
};

/** Builds the observers for a run once its plan is known. */
using ObserverFactory =
    std::function<StreamObservers(const StreamPlan &)>;

/**
 * A simulated device under test. Owns the cores, PDN, antenna and
 * instruments; provides DVFS, power gating and run methods.
 */
class Platform
{
  public:
    /**
     * Build a platform.
     * @param config Static description.
     * @param seed   Seeds the instrument/measurement noise streams.
     */
    Platform(const PlatformConfig &config, std::uint64_t seed);

    /** Static description. */
    const PlatformConfig &config() const { return config_; }

    /** The seed this platform's instrument noise streams derive from. */
    std::uint64_t seed() const { return seed_; }

    /**
     * Build an independent replica of this platform: same config and
     * seed, same DVFS / voltage / power-gating state, but its own PDN
     * engine and instruments. Concurrent evaluation pipelines give
     * each worker thread a clone because the PDN caches its factored
     * transient engine (a benign data race serially, a real one in
     * parallel).
     */
    std::unique_ptr<Platform> clone() const;

    /** The platform's instruction pool. */
    const isa::InstructionPool &pool() const { return pool_; }

    /** The PDN model (e.g. for impedance analysis). */
    const pdn::PdnModel &pdnModel() const { return *pdn_; }

    /** The receive antenna. */
    const em::Antenna &antenna() const { return antenna_; }

    /** The spectrum analyzer connected to the antenna. */
    instruments::SpectrumAnalyzer &analyzer() { return analyzer_; }

    /**
     * The voltage-measurement scope.
     * @throws ConfigError when visibility is None (the Cortex-A53
     *         case the paper's EM method exists to address).
     */
    instruments::Oscilloscope &scope();

    /** True when direct voltage measurement exists. */
    bool hasVoltageVisibility() const
    {
        return config_.visibility != VoltageVisibility::None;
    }

    /// @{ DVFS and power gating.
    /** Set core clock; snaps to the f_step grid and clamps to range. */
    void setFrequency(double f_hz);
    /** Current core clock. */
    double frequency() const { return f_clk_; }
    /** Set the supply voltage. */
    void setVoltage(double v);
    /** Current supply voltage. */
    double voltage() const { return v_supply_; }
    /** Power-gate down to a number of powered cores. */
    void setPoweredCores(std::size_t cores);
    /** Currently powered cores. */
    std::size_t poweredCores() const { return pdn_->poweredCores(); }
    /// @}

    /// @{ Active EM fault injection.
    /**
     * Arm an EMFI pulse: every subsequent run (kernel, stream, SCL,
     * idle) injects the pulse as an extra PDN current source until
     * disarmPulse(). The spec's t0 is relative to the *observed*
     * window: the settle lead-in every run discards is prepended
     * automatically.
     *
     * A zero-amplitude spec is recorded but injects nothing and —
     * deliberately — leaves the PDN netlist untouched, so zero-amp
     * runs are bit-identical to never-armed runs by construction
     * (the fast-path state update would reassociate sums if an
     * all-zero source column were added; see
     * PdnModel::setPulseSource).
     *
     * @throws ConfigError on an invalid spec (see PulseInjector).
     */
    void armPulse(const em::PulseSpec &spec);

    /** Remove any armed pulse. */
    void disarmPulse();

    /** The armed pulse spec, if any. */
    const std::optional<em::PulseSpec> &armedPulse() const
    {
        return pulse_;
    }
    /// @}

    /**
     * Run a kernel loop on a number of active cores (each core runs
     * its own instance, mutually phase-shifted) for a duration of
     * steady-state time, and return PDN + EM waveforms: streamKernel
     * into trace-collecting observers.
     *
     * @param kernel       Loop body.
     * @param duration_s   Steady-state window to record.
     * @param active_cores Cores executing; 0 means all powered cores.
     */
    PlatformRunResult runKernel(const isa::Kernel &kernel,
                                double duration_s,
                                std::size_t active_cores = 0) const;

    /**
     * Streaming kernel run: simulate one core's loop once, then drive
     * the stagger-sum → ZOH → PDN → antenna pipeline one PDN sample
     * at a time into caller observers. Only the core's per-cycle
     * current is held (one sample per cycle of the run); no PDN-rate
     * waveform is materialized. Sample values are bit-identical to
     * the whole-trace oracle in tests/batch_oracle.h.
     *
     * The pipeline makes two passes over the core current: pass A
     * sums the mean PDN load (the PDN starts at the DC point under
     * the mean of the full load), pass B steps the PDN into the
     * observers. The factory is invoked between the passes with the
     * run's plan, so observers can be sized exactly and choose bands
     * from the measured loop statistics.
     *
     * Unwind contract (fault injection relies on this): an observer
     * may throw from push() mid-stream — e.g. a TruncatingSink
     * modeling a dropped sample stream — and the exception
     * propagates out of streamKernel leaving the platform in its
     * pre-call state. All per-run simulation state (core current,
     * PDN stepper, antenna coupling) lives in locals destroyed
     * during unwinding; the only member caches touched are
     * geometry-keyed and value-deterministic, so an aborted run
     * followed by a retry produces samples bit-identical to an
     * uninterrupted run.
     *
     * @param kernel         Loop body.
     * @param duration_s     Steady-state window to observe.
     * @param make_observers Observer factory; entries left null are
     *                       skipped (and their per-sample work, e.g.
     *                       antenna coupling for a null em, is not
     *                       performed).
     * @param active_cores   Cores executing; 0 means all powered.
     * @return Core loop statistics (as PlatformRunResult::stats).
     */
    uarch::KernelRunStats
    streamKernel(const isa::Kernel &kernel, double duration_s,
                 const ObserverFactory &make_observers,
                 std::size_t active_cores = 0) const;

    /**
     * Run a finite instruction stream (synthetic benchmark) on active
     * cores. The core simulates the whole stream (the stagger spans
     * it and the PDN's DC bias is its mean load); the instances are
     * staggered by a large fraction of the stream so their stochastic
     * current components do not add coherently.
     */
    PlatformRunResult
    runStream(std::span<const isa::Instruction> stream,
              double duration_s, std::size_t active_cores = 0) const;

    /**
     * Drive only the SCL square-wave injector at a frequency with
     * idle cores (Fig. 8 methodology).
     * @throws ConfigError when the platform has no SCL.
     */
    PlatformRunResult runScl(double freq_hz, double amplitude_a,
                             double duration_s) const;

    /**
     * True idle: no program running, powered cores drawing only
     * leakage/clock-tree current. The EM-quiet baseline of Fig. 4.
     */
    PlatformRunResult runIdle(double duration_s) const;

  private:
    /** A run's load current (defined in platform.cc). */
    struct LoadSource;

    /**
     * The one execution path of every run, in two passes over the
     * load held in memory. Each pass reads the load at the PDN
     * timestep: a core-rate load's stagger sum and ZOH are computed
     * per PDN sample. Pass A sums the mean. Pass B pushes the load
     * through the PDN stepper, biased at that mean, into the
     * observers: PDN → settle-strip slice → v_die / i_die observers
     * and the antenna → em. The PDN steps only to the end of the
     * window, rounded up to whole transient blocks; every window
     * sample is the one stepping the whole load gives.
     *
     * @param i_scl          Optional SCL waveform.
     * @param make_observers Called between the passes with the
     *                       window length; entries left null are
     *                       skipped, and all null skips pass B.
     * @return PDN steps taken in pass B (0 when it was skipped).
     */
    std::size_t
    pipeline(const LoadSource &load,
             const circuit::SourceWaveform &i_scl,
             const std::function<StreamObservers(std::size_t)>
                 &make_observers) const;

    /**
     * A constant load over the settle lead-in and `duration_s`
     * through the pipeline, windowed to every sample after the
     * lead-in (the idle and SCL runs).
     */
    PlatformRunResult
    runConstantLoad(double current, double duration_s,
                    const circuit::SourceWaveform &i_scl) const;

    /**
     * The armed pulse as a simulation-time waveform (t0 shifted past
     * the settle lead-in), or nullptr when no pulse would inject.
     */
    circuit::SourceWaveform pulseWave() const;

    PlatformConfig config_;
    std::uint64_t seed_;
    isa::InstructionPool pool_;
    uarch::CoreModel core_;
    std::unique_ptr<pdn::PdnModel> pdn_;
    em::Antenna antenna_;
    instruments::SpectrumAnalyzer analyzer_;
    instruments::Oscilloscope scope_;
    double f_clk_;
    double v_supply_;
    std::optional<em::PulseSpec> pulse_;
};

} // namespace platform
} // namespace emstress

#endif // EMSTRESS_PLATFORM_PLATFORM_H
