/**
 * @file
 * Tests for the platform integration layer: configs, DVFS, power
 * gating, kernel/stream/SCL runs and the EM signal path.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "dsp/spectrum.h"
#include "pdn/resonance.h"
#include "platform/platform.h"
#include "util/error.h"
#include "util/sample_sink.h"
#include "util/stats.h"
#include "util/units.h"

namespace emstress {
namespace platform {
namespace {

/** The two-phase probe kernel (8 adds serialized against a MUL). */
isa::Kernel
twoPhaseKernel(const isa::InstructionPool &pool)
{
    std::vector<isa::Instruction> code;
    isa::Instruction m;
    m.def_index = pool.defIndex(
        pool.isa() == isa::IsaFamily::ArmV8 ? "MUL" : "IMUL");
    m.dest = 1;
    m.src = {2, 2};
    code.push_back(m);
    for (int i = 0; i < 8; ++i) {
        isa::Instruction a;
        a.def_index = pool.defIndex("ADD");
        a.dest = 2;
        a.src = {1, 1};
        code.push_back(a);
    }
    return isa::Kernel(std::move(code));
}

TEST(PlatformConfigs, MatchTable1)
{
    const auto a72 = junoA72Config();
    EXPECT_EQ(a72.name, "Cortex-A72");
    EXPECT_EQ(a72.motherboard, "Juno Board R2");
    EXPECT_EQ(a72.n_cores, 2u);
    EXPECT_TRUE(a72.core.out_of_order);
    EXPECT_DOUBLE_EQ(a72.f_max_hz, 1.2e9);
    EXPECT_DOUBLE_EQ(a72.v_nom, 1.0);
    EXPECT_EQ(a72.technology_nm, 16);
    EXPECT_EQ(a72.visibility, VoltageVisibility::OcDso);
    EXPECT_TRUE(a72.has_scl);

    const auto a53 = junoA53Config();
    EXPECT_EQ(a53.n_cores, 4u);
    EXPECT_FALSE(a53.core.out_of_order);
    EXPECT_DOUBLE_EQ(a53.f_max_hz, 950e6);
    EXPECT_EQ(a53.visibility, VoltageVisibility::None);
    EXPECT_FALSE(a53.has_scl);

    const auto amd = athlonConfig();
    EXPECT_EQ(amd.name, "Athlon II X4 645");
    EXPECT_EQ(amd.n_cores, 4u);
    EXPECT_DOUBLE_EQ(amd.f_max_hz, 3.1e9);
    EXPECT_DOUBLE_EQ(amd.v_nom, 1.4);
    EXPECT_EQ(amd.technology_nm, 45);
    EXPECT_EQ(amd.isa, isa::IsaFamily::X86_64);
    EXPECT_EQ(amd.visibility, VoltageVisibility::KelvinPads);
}

TEST(PlatformConfigs, PdnResonancesMatchPaperAnchors)
{
    // The calibrated PDNs land at the paper's measured resonances.
    Platform a72(junoA72Config(), 1);
    EXPECT_NEAR(pdn::firstOrderResonanceHz(a72.pdnModel()),
                mega(67.0), mega(4.0));
    Platform a53(junoA53Config(), 1);
    EXPECT_NEAR(pdn::firstOrderResonanceHz(a53.pdnModel()),
                mega(76.5), mega(4.0));
    Platform amd(athlonConfig(), 1);
    EXPECT_NEAR(pdn::firstOrderResonanceHz(amd.pdnModel()),
                mega(78.0), mega(4.5));
}

/** Sink that records the largest |sample| and any non-finite one. */
class PeakSink final : public SampleSink
{
  public:
    void
    push(double v) override
    {
        finite = finite && std::isfinite(v);
        peak = std::max(peak, std::abs(v));
        ++count;
    }
    double peak = 0.0;
    bool finite = true;
    std::size_t count = 0;
};

/**
 * The Athlon's PDN transient under the three loads its MNA-form
 * update diverged on within 20k steps (|v_die| reaching ~1e296 V):
 * over 1e6 kPdnDt steps the die voltage must stay finite and within
 * a few hundred mV of the 1.4 V rail.
 */
TEST(AthlonPdn, DieVoltageStaysBoundedOverAMillionSteps)
{
    const Platform amd(athlonConfig(), 1);
    const pdn::PdnModel &pdn = amd.pdnModel();
    const std::size_t steps = 1'000'000;
    const double period = 1.0 / mega(78.0);
    const std::vector<std::pair<const char *,
                                std::function<double(std::size_t)>>>
        loads = {
            {"constant 30 A", [](std::size_t) { return 30.0; }},
            {"10 A step",
             [](std::size_t i) { return i >= 1000 ? 10.0 : 0.0; }},
            {"78 MHz square",
             [period](std::size_t i) {
                 const double t = kPdnDt * static_cast<double>(i);
                 return std::fmod(t, period) < 0.5 * period ? 10.0 : 0.0;
             }},
        };
    for (const auto &[name, load] : loads) {
        double sum = 0.0;
        for (std::size_t i = 0; i <= steps; ++i)
            sum += load(i);
        PeakSink v_die;
        pdn::PdnStreamSink sim = pdn.streamSim(
            kPdnDt, sum / static_cast<double>(steps + 1), &v_die, nullptr);
        for (std::size_t i = 0; i <= steps; ++i)
            sim.push(load(i));
        sim.finish();
        EXPECT_EQ(v_die.count, steps + 1) << name;
        EXPECT_TRUE(v_die.finite) << name;
        EXPECT_LT(v_die.peak, 1.4 + 0.3) << name;
    }
}

TEST(Platform, FrequencySnapsToStepGrid)
{
    Platform a72(junoA72Config(), 1);
    a72.setFrequency(1.013e9);
    EXPECT_DOUBLE_EQ(a72.frequency(), 1.02e9);
    a72.setFrequency(5e9);
    EXPECT_DOUBLE_EQ(a72.frequency(), 1.2e9); // clamped to max
    a72.setFrequency(1e3);
    EXPECT_DOUBLE_EQ(a72.frequency(), 120e6); // clamped to min
    EXPECT_THROW(a72.setFrequency(-1.0), ConfigError);
}

TEST(Platform, VoltageControlUpdatesPdn)
{
    Platform a72(junoA72Config(), 1);
    a72.setVoltage(0.9);
    EXPECT_DOUBLE_EQ(a72.voltage(), 0.9);
    EXPECT_THROW(a72.setVoltage(0.1), ConfigError);
    EXPECT_THROW(a72.setVoltage(3.0), ConfigError);

    // Idle die voltage follows the supply.
    const auto kernel = twoPhaseKernel(a72.pool());
    const auto run = a72.runKernel(kernel, 1e-6);
    EXPECT_LT(stats::maximum(run.v_die.samples()), 0.92);
}

TEST(Platform, ScopeAccessRespectsVisibility)
{
    Platform a72(junoA72Config(), 1);
    EXPECT_TRUE(a72.hasVoltageVisibility());
    EXPECT_NO_THROW((void)a72.scope());

    Platform a53(junoA53Config(), 1);
    EXPECT_FALSE(a53.hasVoltageVisibility());
    EXPECT_THROW((void)a53.scope(), ConfigError);
}

TEST(Platform, RunKernelProducesConsistentTraces)
{
    Platform a72(junoA72Config(), 1);
    const auto run = a72.runKernel(twoPhaseKernel(a72.pool()), 2e-6);
    EXPECT_EQ(run.v_die.size(), run.i_die.size());
    EXPECT_EQ(run.v_die.size(), run.em.size());
    EXPECT_DOUBLE_EQ(run.v_die.dt(), kPdnDt);
    EXPECT_NEAR(run.v_die.duration(), 2e-6, 0.05e-6);
    // Die voltage stays in a sane band around nominal.
    EXPECT_GT(stats::minimum(run.v_die.samples()), 0.8);
    EXPECT_LT(stats::maximum(run.v_die.samples()), 1.1);
    // Loop stats propagate.
    EXPECT_NEAR(run.stats.loop_freq_hz, 1.2e9 / 8.0,
                0.02 * 1.2e9 / 8.0);
}

TEST(Platform, MoreActiveCoresDrawMoreCurrent)
{
    Platform a53(junoA53Config(), 1);
    const auto kernel = twoPhaseKernel(a53.pool());
    const auto one = a53.runKernel(kernel, 1e-6, 1);
    const auto four = a53.runKernel(kernel, 1e-6, 4);
    EXPECT_GT(stats::mean(four.i_die.samples()),
              2.0 * stats::mean(one.i_die.samples()));
    EXPECT_THROW((void)a53.runKernel(kernel, 1e-6, 5), ConfigError);
}

TEST(Platform, PowerGatingChangesResonance)
{
    Platform a53(junoA53Config(), 1);
    a53.setPoweredCores(4);
    const double f4 = pdn::firstOrderResonanceHz(a53.pdnModel());
    a53.setPoweredCores(1);
    const double f1 = pdn::firstOrderResonanceHz(a53.pdnModel());
    EXPECT_NEAR(f1 / f4, 97.0 / 76.5, 0.06);
    EXPECT_EQ(a53.poweredCores(), 1u);
}

TEST(Platform, SclRunExcitesPdn)
{
    Platform a72(junoA72Config(), 1);
    const double f1 = pdn::firstOrderResonanceHz(a72.pdnModel());
    const auto at_res = a72.runScl(f1, 0.5, 2e-6);
    const auto off_res = a72.runScl(f1 * 2.5, 0.5, 2e-6);
    EXPECT_GT(stats::peakToPeak(at_res.v_die.samples()),
              1.5 * stats::peakToPeak(off_res.v_die.samples()));

    Platform a53(junoA53Config(), 1);
    EXPECT_THROW((void)a53.runScl(f1, 0.5, 1e-6), ConfigError);
}

TEST(Platform, EmSignalPeaksNearLoopFrequency)
{
    Platform a72(junoA72Config(), 1);
    // Clock chosen so the probe loop lands near the resonance.
    a72.setFrequency(560e6); // loop at 70 MHz
    const auto run = a72.runKernel(twoPhaseKernel(a72.pool()), 4e-6);
    const auto spec = dsp::computeSpectrum(run.em);
    const auto pk = dsp::maxPeakInBand(spec, mega(40.0), mega(110.0));
    EXPECT_NEAR(pk.freq_hz, run.stats.loop_freq_hz, mega(3.0));
}

TEST(Platform, RunIdleIsQuietAndSettled)
{
    Platform a72(junoA72Config(), 1);
    const auto idle = a72.runIdle(2e-6);
    // Die voltage flat at nominal minus the leakage IR drop.
    EXPECT_LT(stats::peakToPeak(idle.v_die.samples()), 2e-3);
    EXPECT_NEAR(stats::mean(idle.v_die.samples()), 1.0, 5e-3);
    // Emission at/below the measurement noise floor.
    const auto running =
        a72.runKernel(twoPhaseKernel(a72.pool()), 2e-6);
    EXPECT_LT(stats::rms(idle.em.samples()),
              0.05 * stats::rms(running.em.samples()));
}

TEST(Platform, RunStreamRequiresSufficientLength)
{
    Platform a72(junoA72Config(), 1);
    Rng rng(2);
    std::vector<isa::Instruction> tiny;
    for (int i = 0; i < 100; ++i)
        tiny.push_back(a72.pool().randomInstruction(rng));
    EXPECT_THROW((void)a72.runStream(tiny, 2e-6), ConfigError);

    std::vector<isa::Instruction> enough;
    for (int i = 0; i < 12000; ++i)
        enough.push_back(a72.pool().randomInstruction(rng));
    const auto run = a72.runStream(enough, 1e-6);
    EXPECT_GT(run.v_die.size(), 1000u);
}

TEST(Platform, ConfigValidation)
{
    auto cfg = junoA72Config();
    cfg.pdn.n_cores = 3; // mismatch with platform cores
    EXPECT_THROW(Platform p(cfg, 1), ConfigError);
}

TEST(Platform, DeterministicRunsForSameSeed)
{
    Platform p1(junoA72Config(), 77);
    Platform p2(junoA72Config(), 77);
    const auto k = twoPhaseKernel(p1.pool());
    const auto r1 = p1.runKernel(k, 1e-6);
    const auto r2 = p2.runKernel(k, 1e-6);
    ASSERT_EQ(r1.v_die.size(), r2.v_die.size());
    for (std::size_t i = 0; i < r1.v_die.size(); i += 97)
        EXPECT_DOUBLE_EQ(r1.v_die[i], r2.v_die[i]);
}

} // namespace
} // namespace platform
} // namespace emstress
