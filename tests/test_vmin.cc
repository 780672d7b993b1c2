/**
 * @file
 * Tests for the timing/failure models and the V_MIN search.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"
#include "vmin/timing_model.h"
#include "vmin/vmin_search.h"

namespace emstress {
namespace vmin {
namespace {

TimingModelParams
mobileTiming()
{
    TimingModelParams p;
    p.vth = 0.35;
    p.alpha = 1.3;
    p.f_anchor_hz = 1.2e9;
    p.v_crit_anchor = 0.78;
    return p;
}

TEST(TimingModel, AnchorIsReproduced)
{
    const TimingModel tm(mobileTiming());
    EXPECT_NEAR(tm.fMax(0.78), 1.2e9, 1e3);
    EXPECT_NEAR(tm.vCrit(1.2e9), 0.78, 1e-6);
}

TEST(TimingModel, FmaxMonotoneInVoltage)
{
    const TimingModel tm(mobileTiming());
    double prev = 0.0;
    for (double v = 0.4; v <= 1.2; v += 0.05) {
        const double f = tm.fMax(v);
        EXPECT_GT(f, prev);
        prev = f;
    }
    EXPECT_EQ(tm.fMax(0.2), 0.0); // below threshold: no switching
}

TEST(TimingModel, VcritMonotoneInFrequency)
{
    const TimingModel tm(mobileTiming());
    EXPECT_LT(tm.vCrit(0.6e9), tm.vCrit(0.9e9));
    EXPECT_LT(tm.vCrit(0.9e9), tm.vCrit(1.2e9));
}

TEST(TimingModel, VcritInvertsFmaxEverywhere)
{
    const TimingModel tm(mobileTiming());
    for (double f = 0.2e9; f <= 1.4e9; f += 0.1e9) {
        const double v = tm.vCrit(f);
        EXPECT_NEAR(tm.fMax(v), f, f * 1e-6);
    }
}

TEST(TimingModel, ValidatesParameters)
{
    TimingModelParams bad = mobileTiming();
    bad.v_crit_anchor = 0.3; // below vth
    EXPECT_THROW(TimingModel tm(bad), ConfigError);
    bad = mobileTiming();
    bad.alpha = 0.0;
    EXPECT_THROW(TimingModel tm(bad), ConfigError);
    const TimingModel tm(mobileTiming());
    EXPECT_THROW((void)tm.vCrit(0.0), ConfigError);
}

TEST(FailureModel, ClassifiesBySlack)
{
    const TimingModel tm(mobileTiming());
    FailureModelParams fp;
    fp.sdc_band_v = 0.010;
    fp.sdc_probability = 1.0; // deterministic for the test
    const FailureModel fm(fp, tm);
    Rng rng(1);

    const double v_crit = tm.vCrit(1.2e9);
    EXPECT_EQ(&fm.timing(), &tm);

    // Comfortably above: pass.
    EXPECT_EQ(fm.classify(v_crit + 0.04, v_crit, rng), RunOutcome::Pass);

    // Below critical: system crash.
    EXPECT_EQ(fm.classify(v_crit - 0.001, v_crit, rng),
              RunOutcome::SystemCrash);

    // Within the SDC band: SDC or app crash.
    const auto outcome = fm.classify(v_crit + 0.005, v_crit, rng);
    EXPECT_TRUE(outcome == RunOutcome::Sdc
                || outcome == RunOutcome::AppCrash);
    EXPECT_TRUE(isFailure(outcome));
    EXPECT_FALSE(isFailure(RunOutcome::Pass));
}

TEST(FailureModel, OutcomeNames)
{
    EXPECT_STREQ(outcomeName(RunOutcome::Pass), "pass");
    EXPECT_STREQ(outcomeName(RunOutcome::Sdc), "SDC");
    EXPECT_STREQ(outcomeName(RunOutcome::AppCrash), "app-crash");
    EXPECT_STREQ(outcomeName(RunOutcome::SystemCrash),
                 "system-crash");
}

/** Synthetic runner: fixed droop below whatever supply is applied. */
WorkloadRunner
fixedDroopRunner(double droop)
{
    return [droop](double v_supply, std::size_t) {
        return v_supply - droop;
    };
}

TEST(VminSearch, FindsExpectedThreshold)
{
    const TimingModel tm(mobileTiming());
    FailureModelParams fp;
    fp.sdc_band_v = 0.0; // crash-only for exactness
    const FailureModel fm(fp, tm);
    VminSearchConfig cfg;
    cfg.v_start = 1.0;
    cfg.v_floor = 0.5;
    cfg.v_step = 0.010;
    VminSearch search(cfg, fm, Rng(3));

    const double droop = 0.060;
    const auto result =
        search.characterize(fixedDroopRunner(droop), 1.2e9);
    // Crash when v - droop < v_crit: first failing 10 mV grid point.
    const double v_crit = tm.vCrit(1.2e9);
    EXPECT_GT(result.vmin, v_crit + droop - 0.011);
    EXPECT_LT(result.vmin, v_crit + droop + 0.011);
    EXPECT_EQ(result.first_failure, RunOutcome::SystemCrash);
    EXPECT_NEAR(result.max_droop_nominal, droop, 1e-9);
    EXPECT_GT(result.runs_executed, 0u);
}

TEST(VminSearch, HigherDroopGivesHigherVmin)
{
    const TimingModel tm(mobileTiming());
    FailureModelParams fp;
    fp.sdc_band_v = 0.0;
    const FailureModel fm(fp, tm);
    VminSearchConfig cfg;
    cfg.v_start = 1.0;
    VminSearch s1(cfg, fm, Rng(3));
    VminSearch s2(cfg, fm, Rng(3));
    const auto weak =
        s1.characterize(fixedDroopRunner(0.020), 1.2e9);
    const auto strong =
        s2.characterize(fixedDroopRunner(0.070), 1.2e9);
    EXPECT_GT(strong.vmin, weak.vmin + 0.035);
}

TEST(VminSearch, SdcAppearsAboveTheCrashVoltage)
{
    // Paper Section 5.2: workloads typically suffer SDC or an
    // application crash ~10 mV above the system-crash voltage, so a
    // descending search hits a soft failure first.
    const TimingModel tm(mobileTiming());
    FailureModelParams fp;
    fp.sdc_band_v = 0.010;
    fp.sdc_probability = 1.0;
    const FailureModel fm(fp, tm);
    VminSearchConfig cfg;
    cfg.v_start = 1.0;
    VminSearch soft(cfg, fm, Rng(4));
    const auto with_band =
        soft.characterize(fixedDroopRunner(0.060), 1.2e9);
    EXPECT_TRUE(with_band.first_failure == RunOutcome::Sdc
                || with_band.first_failure == RunOutcome::AppCrash);

    // Without the band, the same workload fails ~10 mV lower, as a
    // hard crash.
    FailureModelParams hard_params;
    hard_params.sdc_band_v = 0.0;
    const FailureModel hard(hard_params, tm);
    VminSearch crash(cfg, hard, Rng(4));
    const auto no_band =
        crash.characterize(fixedDroopRunner(0.060), 1.2e9);
    EXPECT_EQ(no_band.first_failure, RunOutcome::SystemCrash);
    EXPECT_NEAR(with_band.vmin - no_band.vmin, 0.010, 0.011);
}

TEST(VminSearch, NothingFailsAboveFloorReturnsPass)
{
    const TimingModel tm(mobileTiming());
    FailureModelParams fp;
    fp.sdc_band_v = 0.0;
    const FailureModel fm(fp, tm);
    VminSearchConfig cfg;
    cfg.v_start = 1.0;
    cfg.v_floor = 0.95; // floor above any failure point
    VminSearch search(cfg, fm, Rng(3));
    const auto result =
        search.characterize(fixedDroopRunner(0.01), 1.2e9);
    EXPECT_EQ(result.first_failure, RunOutcome::Pass);
    EXPECT_EQ(result.vmin, 0.0);
}

TEST(VminSearch, MoreRepeatsCatchRareFailures)
{
    // With a small SDC probability, 30 repeats find failures at a
    // higher voltage than 1 repeat (the paper runs 30 repeats for
    // viruses precisely for confidence).
    const TimingModel tm(mobileTiming());
    FailureModelParams fp;
    fp.sdc_band_v = 0.015;
    fp.sdc_probability = 0.15;
    const FailureModel fm(fp, tm);

    // Runner with per-repeat droop jitter.
    auto jittery = [](double v_supply, std::size_t rep) {
        const double droop =
            0.050 + 0.004 * static_cast<double>(rep % 7);
        return v_supply - droop;
    };

    VminSearchConfig one;
    one.repeats = 1;
    VminSearchConfig many;
    many.repeats = 30;
    double vmin_one_total = 0.0, vmin_many_total = 0.0;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        VminSearch s1(one, fm, Rng(seed));
        VminSearch s2(many, fm, Rng(seed + 1000));
        vmin_one_total += s1.characterize(jittery, 1.2e9).vmin;
        vmin_many_total += s2.characterize(jittery, 1.2e9).vmin;
    }
    EXPECT_GE(vmin_many_total, vmin_one_total);
}

TEST(VminSearch, ValidatesConfig)
{
    const TimingModel tm(mobileTiming());
    const FailureModel fm(FailureModelParams{}, tm);
    VminSearchConfig bad;
    bad.v_step = 0.0;
    EXPECT_THROW(VminSearch s(bad, fm, Rng(1)), ConfigError);
    bad = VminSearchConfig{};
    bad.v_floor = bad.v_start + 1.0;
    EXPECT_THROW(VminSearch s(bad, fm, Rng(1)), ConfigError);
    bad = VminSearchConfig{};
    bad.repeats = 0;
    EXPECT_THROW(VminSearch s(bad, fm, Rng(1)), ConfigError);
}

} // namespace
} // namespace vmin
} // namespace emstress
