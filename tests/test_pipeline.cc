/**
 * @file
 * One execution path per layer. Every Platform run method streams its
 * load through the platform's one two-pass pipeline, and
 * PdnModel::simulate streams through PdnStreamSink. Each is pinned bit
 * for bit against its whole-trace oracle (tests/batch_oracle.h,
 * tests/transient_oracle.h), with the EMFI pulse armed and unarmed, at
 * all powered cores and at one. The adaptive clock's closed loop,
 * which steps the transient one sample at a time, is pinned by a hash
 * of its output bits.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "batch_oracle.h"
#include "circuit/transient.h"
#include "instruments/scl.h"
#include "mitigation/adaptive_clock.h"
#include "pdn/pdn_model.h"
#include "pdn/resonance.h"
#include "platform/platform.h"
#include "transient_oracle.h"
#include "util/units.h"

namespace emstress {
namespace {

void
expectTracesIdentical(const Trace &a, const Trace &b)
{
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.dt(), b.dt());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << "sample " << i;
}

void
expectRunsIdentical(const platform::PlatformRunResult &got,
                    const platform::PlatformRunResult &want)
{
    expectTracesIdentical(got.v_die, want.v_die);
    expectTracesIdentical(got.i_die, want.i_die);
    expectTracesIdentical(got.em, want.em);
}

/** A pulse landing inside a 1 us window. */
em::PulseSpec
windowPulse()
{
    em::PulseSpec pulse;
    pulse.t0_s = 0.4e-6;
    pulse.width_s = 25e-9;
    pulse.amplitude_a = 18.0;
    pulse.x = 0.35;
    pulse.y = 0.6;
    return pulse;
}

TEST(PipelineParity, RunSclMatchesWholeTraceOracle)
{
    platform::Platform plat(platform::junoA72Config(), 3);
    for (const std::size_t cores : {plat.config().n_cores,
                                    std::size_t{1}}) {
        plat.setPoweredCores(cores);
        for (const bool armed : {false, true}) {
            if (armed)
                plat.armPulse(windowPulse());
            else
                plat.disarmPulse();
            for (const double f : {mega(67.0), mega(140.0)}) {
                SCOPED_TRACE(::testing::Message()
                             << cores << " cores, pulse " << armed
                             << ", " << f << " Hz");
                expectRunsIdentical(
                    plat.runScl(f, 0.5, 1e-6),
                    core::wholeTraceRunScl(plat, f, 0.5, 1e-6));
            }
        }
    }
}

TEST(PipelineParity, RunIdleMatchesWholeTraceOracle)
{
    for (const auto &cfg :
         {platform::junoA72Config(), platform::junoA53Config(),
          platform::athlonConfig()}) {
        platform::Platform plat(cfg, 5);
        for (const std::size_t cores : {cfg.n_cores, std::size_t{1}}) {
            plat.setPoweredCores(cores);
            for (const bool armed : {false, true}) {
                if (armed)
                    plat.armPulse(windowPulse());
                else
                    plat.disarmPulse();
                SCOPED_TRACE(::testing::Message()
                             << cfg.name << ", " << cores
                             << " cores, pulse " << armed);
                expectRunsIdentical(plat.runIdle(1e-6),
                                    core::wholeTraceRunIdle(plat, 1e-6));
            }
        }
    }
}

/**
 * PdnModel::simulate as a whole-trace transient run: every source a
 * waveform evaluated at the step time (the load clamped to its last
 * sample), the circuit biased at the mean load.
 */
pdn::PdnSimResult
simulateOracle(const pdn::PdnModel &model, const Trace &i_load,
               const circuit::SourceWaveform &i_scl,
               const circuit::SourceWaveform &i_pulse)
{
    const circuit::TransientAnalysis eng(model.netlist(), i_load.dt());
    const double dt = i_load.dt();
    const std::size_t n = i_load.size();
    const circuit::SourceWaveform zero = [](double) { return 0.0; };
    std::vector<circuit::SourceWaveform> waves = {
        [&i_load, dt, n](double t) {
            auto idx = static_cast<std::size_t>(t / dt + 0.5);
            return i_load[std::min(idx, n - 1)];
        },
        i_scl ? i_scl : zero};
    double mean_load = 0.0;
    for (double v : i_load.samples())
        mean_load += v;
    mean_load /= static_cast<double>(n);
    std::vector<double> bias = {mean_load, 0.0};
    if (model.pulseSource()) {
        waves.push_back(i_pulse ? i_pulse : zero);
        bias.push_back(0.0);
    }
    const auto r = circuit::runTransient(
        eng, n, waves,
        {{circuit::ProbeKind::NodeVoltage, model.dieNode(), "", "v_die"},
         {circuit::ProbeKind::BranchCurrent, circuit::kGround,
          "l_pkg_die", "i_die"}},
        bias);
    return {r.trace("v_die"), r.trace("i_die")};
}

TEST(PipelineParity, PdnSimulateMatchesRunTransient)
{
    // A load whose length is not a multiple of kStreamBlock, so the
    // clamped tail step lands in a partial block.
    Trace load(platform::kPdnDt);
    for (std::size_t i = 0; i < 3001; ++i)
        load.push(0.3 + 0.2 * std::sin(0.05 * static_cast<double>(i)));
    const instruments::SyntheticCurrentLoad scl(0.5);
    em::PulseSpec spec = windowPulse();
    spec.t0_s = 0.2e-6;
    const auto pulse = em::PulseInjector(spec).waveform(0.0);

    pdn::PdnModel model(platform::junoA72Config().pdn);
    for (const std::size_t cores : {std::size_t{2}, std::size_t{1}}) {
        model.setPoweredCores(cores);
        for (const bool armed : {false, true}) {
            model.setPulseSource(armed);
            const circuit::SourceWaveform p = armed ? pulse : nullptr;
            for (const bool with_scl : {false, true}) {
                SCOPED_TRACE(::testing::Message()
                             << cores << " cores, pulse " << armed
                             << ", scl " << with_scl);
                const circuit::SourceWaveform s =
                    with_scl ? scl.waveform(mega(67.0)) : nullptr;
                const auto got = model.simulate(load, s, p);
                const auto want = simulateOracle(model, load, s, p);
                expectTracesIdentical(got.v_die, want.v_die);
                expectTracesIdentical(got.i_die, want.i_die);
            }
        }
    }
}

/** FNV-1a 64 over the bit patterns of a trace's samples. */
std::uint64_t
fnv1a(std::uint64_t h, const Trace &t)
{
    for (const double v : t.samples()) {
        const auto bits = std::bit_cast<std::uint64_t>(v);
        for (int b = 0; b < 64; b += 8) {
            h ^= (bits >> b) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

TEST(PipelineParity, AdaptiveClockBitsArePinned)
{
    // The closed loop steps the transient one sample at a time; its
    // bits are pinned on a resonant load that trips the throttle.
    platform::Platform a72(platform::junoA72Config(), 1);
    const auto &pdn = a72.pdnModel();
    const double period = 1.0 / pdn::firstOrderResonanceHz(pdn);
    Trace load(platform::kPdnDt);
    for (std::size_t i = 0; i < 8000; ++i) {
        const double t = platform::kPdnDt * static_cast<double>(i);
        load.push(std::fmod(t, period) < 0.5 * period ? 2.0 : 0.1);
    }
    mitigation::AdaptiveClockParams p;
    p.threshold_below_nominal = 0.020;
    p.response_latency = 2e-9;
    const auto r = mitigation::AdaptiveClock(pdn, p).run(load);
    ASSERT_GT(r.trip_count, 0u);
    const std::uint64_t h =
        fnv1a(fnv1a(0xcbf29ce484222325ull, r.v_die), r.throttle);
    EXPECT_EQ(h, 0x12c76aa0a0319e8eull) << std::hex << h;
}

} // namespace
} // namespace emstress
