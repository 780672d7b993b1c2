/**
 * @file
 * Platform-level V_MIN characterization (paper Sections 5.2, 6, 7):
 * run a workload (virus kernel or synthetic benchmark) while stepping
 * the supply voltage down in 10 mV increments until execution
 * deviates; repeat for statistical confidence.
 *
 * Implementation note: the PDN is linear and the CPU current demand
 * scales proportionally with supply voltage, so the noise waveform at
 * supply V is the nominal-voltage waveform scaled by V/V_nom. Each
 * voltage/repeat run is derived from one nominal simulation with a
 * small per-repeat droop jitter (phase alignment, temperature),
 * making 30-repeat searches cheap while preserving the statistics.
 * The failure model reads only a run's minimum die voltage, and the
 * scaling is monotone, so the nominal waveform is reduced to its
 * deepest droop once and each run is the scalar
 * v_supply - max_droop * scale — bit-identical to the minimum of the
 * scaled waveform. The per-row jitter stream is keyed with the
 * portable stringHash of the row name, so rows draw the same jitter
 * under any standard library.
 */

#ifndef EMSTRESS_CORE_VMIN_TESTER_H
#define EMSTRESS_CORE_VMIN_TESTER_H

#include <string>
#include <vector>

#include "isa/kernel.h"
#include "platform/platform.h"
#include "vmin/timing_model.h"
#include "vmin/vmin_search.h"
#include "workloads/workload.h"

namespace emstress {
namespace core {

/** V_MIN test configuration. */
struct VminTestConfig
{
    vmin::TimingModelParams timing;   ///< Critical-path model.
    vmin::FailureModelParams failure; ///< SDC band parameters.
    vmin::VminSearchConfig search;    ///< Stepping parameters.
    double duration_s = 4e-6;         ///< Simulated window per run.
    std::size_t active_cores = 0;     ///< 0 = all powered.
    double droop_jitter_rel = 0.015;  ///< 1-sigma per-repeat jitter.
    std::uint64_t seed = 99;          ///< Classification noise seed.
};

/**
 * Default V_MIN configuration for a platform, with the timing anchor
 * calibrated so virus-class noise produces the paper's margins
 * (A72/A53: ~150 mV below 1.0 V nominal; AMD: ~37.5 mV below 1.4 V).
 */
VminTestConfig defaultVminConfig(const platform::Platform &plat);

/** One row of a V_MIN comparison figure (Figs. 10, 14, 18). */
struct VminRow
{
    std::string workload;
    double vmin_v = 0.0;          ///< Highest failing voltage.
    double margin_v = 0.0;        ///< v_nom - vmin.
    double max_droop_v = 0.0;     ///< Droop at nominal supply.
    std::string failure;          ///< Failure type at V_MIN.
    std::size_t runs = 0;         ///< Executions spent.
    /// Modeled physical test time: runs x per-run execution time
    /// plus a supply-adjust overhead per voltage point. The paper's
    /// full Fig. 10 campaign (SPEC to completion, 30 virus repeats)
    /// "is equal to about two days".
    double lab_seconds = 0.0;
};

/**
 * V_MIN test harness bound to one platform.
 */
class VminTester
{
  public:
    /** Bind to a platform with a configuration. */
    VminTester(platform::Platform &plat, const VminTestConfig &config);

    /**
     * Characterize a kernel-based workload (virus).
     * @param run_seconds Modeled wall time of one physical execution
     *        (viruses run for a fixed short window).
     */
    VminRow testKernel(const std::string &name,
                       const isa::Kernel &kernel, std::size_t repeats,
                       double run_seconds = 15.0);

    /**
     * Characterize a synthetic benchmark profile.
     * @param run_seconds Modeled wall time of one physical execution
     *        (the paper runs SPEC to completion with reference
     *        inputs: minutes per run).
     */
    VminRow testWorkload(const workloads::WorkloadProfile &profile,
                         std::size_t repeats,
                         double run_seconds = 300.0);

    /** The configuration in use. */
    const VminTestConfig &config() const { return config_; }

  private:
    VminRow characterizeFromNominal(const std::string &name,
                                    const Trace &v_die_nominal,
                                    std::size_t repeats,
                                    double run_seconds);

    platform::Platform &plat_;
    VminTestConfig config_;
};

} // namespace core
} // namespace emstress

#endif // EMSTRESS_CORE_VMIN_TESTER_H
