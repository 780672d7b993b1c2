/**
 * @file
 * Resonance exploration implementations.
 */

#include "core/resonance_explorer.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "util/error.h"
#include "util/rng.h"
#include "util/worker_fleet.h"

namespace emstress {
namespace core {

namespace {

/// Sweep noise salts, distinct from the fitness-evaluator salts.
constexpr std::uint64_t kEmSweepNoiseSalt = 0x454d5357454550ull;
constexpr std::uint64_t kSclSweepNoiseSalt = 0x53434c5357ull;

/**
 * Number of points of an inclusive [lo, hi] grid with a fixed step.
 * Integer-indexed so accumulated floating-point error can neither
 * drop nor duplicate the final point: exactly (hi - lo)/step + 1.
 */
std::size_t
gridPoints(double lo_hz, double hi_hz, double step_hz)
{
    requireConfig(hi_hz > lo_hz && step_hz > 0.0,
                  "bad sweep range");
    return static_cast<std::size_t>(
               std::llround((hi_hz - lo_hz) / step_hz))
        + 1;
}

} // namespace

ResonanceExplorer::ResonanceExplorer(platform::Platform &plat)
    : plat_(plat)
{}

isa::Kernel
ResonanceExplorer::probeLoop(const isa::InstructionPool &pool)
{
    // High-current phase: eight independent single-cycle adds
    // (dual-issue -> ~4 cycles). Low-current phase: one multi-cycle
    // multiply that the adds depend on and that depends on the adds,
    // so iterations cannot overlap. Register r1 carries the serial
    // chain; the adds target r2 which feeds the next multiply.
    const std::size_t mul =
        pool.defIndex(pool.isa() == isa::IsaFamily::ArmV8 ? "MUL"
                                                          : "IMUL");
    const std::size_t add = pool.defIndex("ADD");

    std::vector<isa::Instruction> code;
    isa::Instruction m;
    m.def_index = mul;
    m.dest = 1;
    m.src = {2, 2};
    code.push_back(m);
    for (int i = 0; i < 8; ++i) {
        isa::Instruction a;
        a.def_index = add;
        a.dest = 2;
        a.src = {1, 1};
        code.push_back(a);
    }
    return isa::Kernel(std::move(code));
}

std::vector<EmSweepPoint>
ResonanceExplorer::sweep(double duration_s, std::size_t sa_samples,
                         std::size_t active_cores,
                         std::size_t threads)
{
    const auto &cfg = plat_.config();
    const double f_restore = plat_.frequency();
    const isa::Kernel loop = probeLoop(plat_.pool());
    const std::size_t n =
        gridPoints(cfg.f_min_hz, cfg.f_max_hz, cfg.f_step_hz);

    // One point at grid index i, on whichever platform instance the
    // worker owns. Noise is seeded from the grid index (not from
    // scheduling order), so the parallel sweep is bit-identical to
    // the serial one.
    const auto measure = [&](platform::Platform &plat,
                             std::size_t i) -> EmSweepPoint {
        plat.setFrequency(cfg.f_max_hz
                          - static_cast<double>(i) * cfg.f_step_hz);
        // Marker on the spike at the loop frequency: the band is only
        // known once the core pass has measured the loop, so the
        // detector is built inside the observer factory. A narrow
        // window keeps neighbouring harmonics from leaking in.
        std::optional<instruments::SaBandDetector> det;
        double f_spike = 0.0;
        plat.streamKernel(
            loop, duration_s,
            [&](const platform::StreamPlan &plan) {
                requireSim(plan.stats.loop_freq_hz > 0.0,
                           "probe loop produced no loop-frequency "
                           "estimate");
                f_spike = plan.stats.loop_freq_hz;
                det.emplace(plat.analyzer().params(), plan.n_samples,
                            1.0 / plan.dt, f_spike * 0.9,
                            f_spike * 1.1);
                return platform::StreamObservers{nullptr, nullptr,
                                                 &*det};
            },
            active_cores);
        const auto marker = det->averagedMaxAmplitude(
            sa_samples, mixSeed(plat.seed() ^ kEmSweepNoiseSalt, i));
        return {plat.frequency(), f_spike, marker.power_dbm};
    };

    std::vector<EmSweepPoint> points(n);
    const std::size_t workers =
        std::min(resolveThreadCount(threads), n);
    if (workers > 1) {
        // Per-worker platform clones: the PDN engine caches mutable
        // state, so concurrent points must not share one Platform.
        std::vector<std::unique_ptr<platform::Platform>> clones;
        clones.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w)
            clones.push_back(plat_.clone());
        WorkerFleet fleet(workers);
        fleet.run(n, [&](std::size_t i, std::size_t worker) {
            points[i] = measure(*clones[worker], i);
        });
    } else {
        for (std::size_t i = 0; i < n; ++i)
            points[i] = measure(plat_, i);
        plat_.setFrequency(f_restore);
    }
    return points;
}

double
ResonanceExplorer::estimateResonanceHz(
    const std::vector<EmSweepPoint> &points)
{
    requireConfig(!points.empty(), "cannot estimate from no points");
    const EmSweepPoint *best = &points.front();
    for (const auto &p : points)
        if (p.em_dbm > best->em_dbm)
            best = &p;
    return best->loop_freq_hz;
}

SclResonanceFinder::SclResonanceFinder(platform::Platform &plat)
    : plat_(plat)
{
    requireConfig(plat.config().has_scl,
                  plat.config().name + " has no SCL block");
    requireConfig(plat.hasVoltageVisibility(),
                  "SCL sweep needs scope visibility");
}

std::vector<SclSweepPoint>
SclResonanceFinder::sweep(double f_lo_hz, double f_hi_hz,
                          double step_hz, double amplitude_a,
                          double duration_s)
{
    const std::size_t n = gridPoints(f_lo_hz, f_hi_hz, step_hz);
    std::vector<SclSweepPoint> points;
    points.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double f =
            f_lo_hz + static_cast<double>(i) * step_hz;
        const auto run = plat_.runScl(f, amplitude_a, duration_s);
        Rng noise(mixSeed(plat_.seed() ^ kSclSweepNoiseSalt, i));
        const Trace cap = plat_.scope().capture(run.v_die, noise);
        points.push_back(
            {f, instruments::Oscilloscope::peakToPeak(cap)});
    }
    return points;
}

double
SclResonanceFinder::estimateResonanceHz(
    const std::vector<SclSweepPoint> &points)
{
    requireConfig(!points.empty(), "cannot estimate from no points");
    const SclSweepPoint *best = &points.front();
    for (const auto &p : points)
        if (p.p2p_v > best->p2p_v)
            best = &p;
    return best->freq_hz;
}

} // namespace core
} // namespace emstress
