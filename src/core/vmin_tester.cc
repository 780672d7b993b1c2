/**
 * @file
 * V_MIN tester implementation.
 */

#include "core/vmin_tester.h"

#include <algorithm>
#include <limits>

#include "util/error.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace emstress {
namespace core {

VminTestConfig
defaultVminConfig(const platform::Platform &plat)
{
    const auto &cfg = plat.config();
    VminTestConfig out;
    out.timing.f_anchor_hz = cfg.f_max_hz;
    if (cfg.technology_nm >= 40) {
        // 45 nm desktop at 1.4 V nominal: the virus's deep resonant
        // dips put its V_MIN at 1.3625 V (37.5 mV margin) while the
        // steady stability tests pass down to ~1.28 V.
        out.timing.vth = 0.60;
        out.timing.alpha = 1.4;
        out.timing.v_crit_anchor = 1.048;
    } else {
        // 16 nm mobile at 1.0 V nominal: viruses sit ~150 mV under
        // nominal.
        out.timing.vth = 0.35;
        out.timing.alpha = 1.3;
        out.timing.v_crit_anchor = 0.770;
    }
    out.search.v_start = cfg.v_nom;
    out.search.v_floor = out.timing.vth + 0.05;
    out.search.v_step = 0.010;
    return out;
}

VminTester::VminTester(platform::Platform &plat,
                       const VminTestConfig &config)
    : plat_(plat), config_(config)
{
    requireConfig(config.duration_s > 0.0,
                  "test duration must be positive");
    requireConfig(config.droop_jitter_rel >= 0.0,
                  "droop jitter must be non-negative");
}

VminRow
VminTester::testKernel(const std::string &name,
                       const isa::Kernel &kernel, std::size_t repeats,
                       double run_seconds)
{
    // Observability only: the span never feeds the row.
    metrics::ScopedPhase span("vmin.row");
    // Only the die voltage feeds the characterization: stream it into
    // a single trace sink instead of materializing all three batch
    // waveforms.
    TraceSink v_die(platform::kPdnDt);
    plat_.streamKernel(
        kernel, config_.duration_s,
        [&](const platform::StreamPlan &plan) {
            v_die.reserve(plan.n_samples);
            return platform::StreamObservers{&v_die, nullptr,
                                             nullptr};
        },
        config_.active_cores);
    return characterizeFromNominal(name, v_die.trace(), repeats,
                                   run_seconds);
}

VminRow
VminTester::testWorkload(const workloads::WorkloadProfile &profile,
                         std::size_t repeats, double run_seconds)
{
    // Observability only: the span never feeds the row.
    metrics::ScopedPhase span("vmin.row");
    // Size the stream to cover the simulated window at full issue
    // (runStream steps the PDN only through the window).
    const double f = plat_.frequency();
    const auto length = static_cast<std::size_t>(
        (config_.duration_s + 1.0e-6) * f
        * static_cast<double>(plat_.config().core.issue_width)) + 4096;
    Rng gen_rng(config_.seed ^ 0xabcdef);
    const auto stream = workloads::generateStream(
        profile, plat_.pool(), length, gen_rng);
    const auto run = plat_.runStream(stream, config_.duration_s,
                                     config_.active_cores);
    return characterizeFromNominal(profile.name, run.v_die, repeats,
                                   run_seconds);
}

VminRow
VminTester::characterizeFromNominal(const std::string &name,
                                    const Trace &v_die_nominal,
                                    std::size_t repeats,
                                    double run_seconds)
{
    const double v_nom = plat_.voltage();

    // The deepest droop below the nominal supply: the one feature of
    // the waveform a run's minimum depends on.
    double max_droop = -std::numeric_limits<double>::infinity();
    for (double v : v_die_nominal.samples())
        max_droop = std::max(max_droop, v_nom - v);

    // Per-(voltage, repeat) runs: linear PDN + current ~ V means the
    // deviation waveform scales with V/V_nom; jitter models run-to-run
    // alignment differences. A run's die voltage is
    // v_supply - droop[i] * scale with scale >= 0, and both roundings
    // are monotone, so its minimum is v_supply - max_droop * scale
    // bit for bit: no run synthesizes a waveform.
    Rng jitter_rng(config_.seed ^ stringHash(name));
    const double jitter_rel = config_.droop_jitter_rel;
    auto runner = [max_droop, v_nom, jitter_rel, &jitter_rng](
                      double v_supply, std::size_t) {
        const double scale = v_supply / v_nom
            * std::max(0.0, jitter_rng.gaussian(1.0, jitter_rel));
        return v_supply - max_droop * scale;
    };

    vmin::TimingModel timing(config_.timing);
    vmin::FailureModel failure(config_.failure, timing);
    auto search_cfg = config_.search;
    search_cfg.repeats = repeats;
    vmin::VminSearch search(search_cfg, failure,
                            Rng(config_.seed ^ 0x51ed));

    const auto result = search.characterize(runner, plat_.frequency());

    VminRow row;
    row.workload = name;
    row.vmin_v = result.vmin;
    row.margin_v = result.vmin > 0.0 ? v_nom - result.vmin : 0.0;
    row.max_droop_v = result.max_droop_nominal;
    row.failure = vmin::outcomeName(result.first_failure);
    row.runs = result.runs_executed;
    // Modeled campaign time: each physical run plus a supply-adjust
    // and reboot/check overhead per voltage point.
    const double overhead_per_point = 20.0;
    const auto points = (result.runs_executed + repeats - 1)
        / std::max<std::size_t>(repeats, 1);
    row.lab_seconds = static_cast<double>(result.runs_executed)
            * run_seconds
        + static_cast<double>(points) * overhead_per_point;
    return row;
}

} // namespace core
} // namespace emstress
