/**
 * @file
 * Tests for the adaptive-clocking mitigation model and the
 * incremental transient stepper it builds on, including the paper's
 * Section 6 insight: the mechanism's effectiveness collapses when
 * its response latency is large relative to the resonance period —
 * and power-gating shortens that period.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/transient.h"
#include "mitigation/adaptive_clock.h"
#include "pdn/resonance.h"
#include "platform/platform.h"
#include "util/error.h"
#include "util/stats.h"
#include "util/units.h"

#include "transient_oracle.h"

namespace emstress {
namespace mitigation {
namespace {

/** Resonant square-wave load trace for a PDN. */
Trace
resonantLoad(const pdn::PdnModel &pdn, double amplitude,
             double duration)
{
    const double f1 = pdn::firstOrderResonanceHz(pdn);
    const double dt = 0.25e-9;
    const double period = 1.0 / f1;
    Trace load(dt);
    const auto steps = static_cast<std::size_t>(duration / dt);
    load.reserve(steps);
    for (std::size_t i = 0; i < steps; ++i) {
        const double t = dt * static_cast<double>(i);
        load.push(std::fmod(t, period) < 0.5 * period ? amplitude
                                                      : 0.1);
    }
    return load;
}

TEST(TransientStepper, MatchesBatchRun)
{
    // Stepping one sample at a time must reproduce run() to the
    // blocked-parity tolerance: run()'s fast path executes in
    // kStreamBlock folds, whose rounding differs from per-step
    // updates in the low bits (bit-exact replay of run() is pinned
    // for the block stepper in test_transient_parity.cc).
    platform::Platform a72(platform::junoA72Config(), 1);
    const auto &pdn = a72.pdnModel();
    const Trace load = resonantLoad(pdn, 1.0, 0.4e-6);

    circuit::TransientAnalysis engine(pdn.netlist(), load.dt());
    const std::size_t v_idx =
        engine.mna().stateIndexOfNode(pdn.dieNode());

    // Batch reference.
    const double dt = load.dt();
    const std::size_t n = load.size();
    auto wave = [&load, dt, n](double t) {
        auto idx = static_cast<std::size_t>(t / dt + 0.5);
        return load[std::min(idx, n - 1)];
    };
    // Bias both paths identically at the first sample so their
    // initial trapezoidal states coincide exactly.
    const std::vector<double> bias = {load[0], 0.0};
    auto batch = circuit::runTransient(
        engine, n, {wave, [](double) { return 0.0; }},
        {{circuit::ProbeKind::NodeVoltage, pdn.dieNode(), "",
          "v_die"}},
        bias);

    circuit::SingleStepper stepper(engine, bias);
    for (std::size_t k = 0; k < n; ++k) {
        const double t = dt * static_cast<double>(k + 1);
        const std::vector<double> cur = {wave(t), 0.0};
        stepper.step(cur);
        EXPECT_NEAR(stepper.value(v_idx), batch.trace("v_die")[k],
                    circuit::kBlockedStreamParityTol)
            << "step " << k;
    }
    EXPECT_NEAR(stepper.time(), dt * static_cast<double>(n), 1e-15);
}

TEST(AdaptiveClock, FastResponseReducesWorstDip)
{
    platform::Platform a72(platform::junoA72Config(), 1);
    const auto &pdn = a72.pdnModel();
    const Trace load = resonantLoad(pdn, 2.0, 2e-6);

    AdaptiveClockParams p;
    p.threshold_below_nominal = 0.020;
    p.response_latency = 2e-9; // fast detector
    AdaptiveClock ac(pdn, p);

    const auto off = ac.runUnmitigated(load);
    const auto on = ac.run(load);
    EXPECT_GT(on.min_v_die, off.min_v_die + 0.005);
    EXPECT_GT(on.trip_count, 0u);
    EXPECT_GT(on.throttled_fraction, 0.0);
    EXPECT_LT(on.throttled_fraction, 1.0);
    EXPECT_EQ(off.trip_count, 0u);
    EXPECT_DOUBLE_EQ(off.throttled_fraction, 0.0);
}

TEST(AdaptiveClock, SlowResponseIsIneffective)
{
    // Latency of several resonance periods: the dip has already
    // happened by the time the throttle lands.
    platform::Platform a72(platform::junoA72Config(), 1);
    const auto &pdn = a72.pdnModel();
    const Trace load = resonantLoad(pdn, 2.0, 2e-6);

    AdaptiveClockParams fast;
    fast.threshold_below_nominal = 0.020;
    fast.response_latency = 2e-9;
    AdaptiveClockParams slow = fast;
    slow.response_latency = 120e-9; // ~8 resonance periods

    AdaptiveClock ac_fast(pdn, fast);
    AdaptiveClock ac_slow(pdn, slow);
    const auto r_fast = ac_fast.run(load);
    const auto r_slow = ac_slow.run(load);
    EXPECT_GT(r_fast.min_v_die, r_slow.min_v_die);
}

TEST(AdaptiveClock, EffectivenessDecaysWithLatencyUnderGating)
{
    // Section 6's concern, testable form: adaptive clocking is
    // latency-sensitive in every gating scenario, and the
    // power-gated (one-core) cluster — whose resonance is faster and
    // noise larger — keeps a worse post-mitigation dip than the
    // fully-powered one at every response latency.
    platform::Platform a53(platform::junoA53Config(), 1);
    AdaptiveClockParams p;
    p.threshold_below_nominal = 0.015;

    auto residual_droop = [&](std::size_t cores, double latency) {
        a53.setPoweredCores(cores);
        const auto &pdn = a53.pdnModel();
        const Trace load = resonantLoad(pdn, 1.2, 2e-6);
        auto params = p;
        params.response_latency = latency;
        AdaptiveClock ac(pdn, params);
        return pdn.params().v_nom - ac.run(load).min_v_die;
    };

    for (std::size_t cores : {std::size_t{4}, std::size_t{1}}) {
        const double instant = residual_droop(cores, 0.0);
        const double slow = residual_droop(cores, 32e-9);
        EXPECT_GT(slow, instant * 1.2)
            << "latency should cost mitigation quality, cores="
            << cores;
    }
    for (double latency : {0.0, 8e-9, 32e-9}) {
        EXPECT_GT(residual_droop(1, latency),
                  residual_droop(4, latency))
            << "gated cluster must stay noisier, latency="
            << latency;
    }
    a53.setPoweredCores(4);
}

TEST(AdaptiveClock, ValidatesConfig)
{
    platform::Platform a72(platform::junoA72Config(), 1);
    const auto &pdn = a72.pdnModel();
    AdaptiveClockParams bad;
    bad.threshold_below_nominal = 0.0;
    EXPECT_THROW(AdaptiveClock ac(pdn, bad), ConfigError);
    bad = AdaptiveClockParams{};
    bad.throttle_ratio = 0.0;
    EXPECT_THROW(AdaptiveClock ac(pdn, bad), ConfigError);
    bad = AdaptiveClockParams{};
    bad.response_latency = -1.0;
    EXPECT_THROW(AdaptiveClock ac(pdn, bad), ConfigError);

    AdaptiveClock ac(pdn, AdaptiveClockParams{});
    Trace empty(1e-9);
    EXPECT_THROW((void)ac.run(empty), ConfigError);
}

} // namespace
} // namespace mitigation
} // namespace emstress
