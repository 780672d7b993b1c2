/**
 * @file
 * Integration tests for the high-level API: fitness evaluators,
 * virus generation, resonance exploration, V_MIN testing,
 * multi-domain monitoring and virus analysis. These exercise the
 * entire stack (uarch -> PDN -> antenna -> instruments) end to end
 * with reduced measurement budgets so the suite stays fast.
 */

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "batch_oracle.h"
#include "sa_band_oracle.h"
#include "core/fitness.h"
#include "core/multidomain.h"
#include "core/resonance_explorer.h"
#include "core/virus_analysis.h"
#include "core/virus_generator.h"
#include "core/vmin_tester.h"
#include "pdn/resonance.h"
#include "util/error.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/units.h"

namespace emstress {
namespace core {
namespace {

EvalSettings
fastEval()
{
    EvalSettings s;
    s.duration_s = 2e-6;
    s.sa_samples = 3;
    return s;
}

ga::GaConfig
fastGa()
{
    ga::GaConfig cfg;
    cfg.population = 10;
    cfg.generations = 6;
    cfg.kernel_length = 30;
    cfg.seed = 5;
    return cfg;
}

TEST(Fitness, EmAmplitudeRanksResonantKernelAboveRandom)
{
    platform::Platform a72(platform::junoA72Config(), 3);
    EmAmplitudeFitness fitness(a72, fastEval());

    // A kernel whose loop frequency is far from resonance at 1.2 GHz
    // versus the probe loop run at a clock that lands on resonance.
    a72.setFrequency(560e6); // probe loop -> 70 MHz
    const auto resonant =
        ResonanceExplorer::probeLoop(a72.pool());
    ga::EvalDetail d_res;
    const double f_res = fitness.evaluate(resonant, &d_res);

    a72.setFrequency(1.2e9); // probe loop -> 150 MHz, off resonance
    ga::EvalDetail d_off;
    const double f_off = fitness.evaluate(resonant, &d_off);

    EXPECT_GT(f_res, f_off + 6.0); // at least 6 dB stronger
    EXPECT_NEAR(d_res.dominant_freq_hz, mega(70.0), mega(4.0));
    EXPECT_GT(d_res.measurement_seconds, 0.0);
}

TEST(Fitness, DroopFitnessRequiresVisibility)
{
    platform::Platform a53(platform::junoA53Config(), 3);
    EXPECT_THROW(MaxDroopFitness f(a53, fastEval()), ConfigError);
    EXPECT_THROW(PeakToPeakFitness f(a53, fastEval()), ConfigError);

    platform::Platform a72(platform::junoA72Config(), 3);
    EXPECT_NO_THROW(MaxDroopFitness f(a72, fastEval()));
}

TEST(Fitness, DroopAndP2pAgreeOnOrdering)
{
    platform::Platform a72(platform::junoA72Config(), 3);
    MaxDroopFitness droop(a72, fastEval());
    PeakToPeakFitness p2p(a72, fastEval());

    a72.setFrequency(560e6);
    const auto resonant = ResonanceExplorer::probeLoop(a72.pool());
    Rng rng(9);
    const auto idle_ish = isa::Kernel::random(a72.pool(), 30, rng);

    EXPECT_GT(droop.evaluate(resonant, nullptr),
              droop.evaluate(idle_ish, nullptr) * 0.8);
    EXPECT_GT(p2p.evaluate(resonant, nullptr), 0.0);
}

TEST(VirusGeneratorTest, EmSearchImprovesAndFindsResonance)
{
    platform::Platform a72(platform::junoA72Config(), 3);
    VirusGenerator gen(a72);
    VirusSearchConfig cfg;
    cfg.ga = fastGa();
    cfg.ga.generations = 10;
    cfg.eval = fastEval();
    cfg.metric = VirusMetric::EmAmplitude;

    std::size_t callbacks = 0;
    const auto report =
        gen.search(cfg, [&callbacks](const ga::GenerationRecord &) {
            ++callbacks;
        });
    EXPECT_EQ(callbacks, 10u);
    EXPECT_EQ(report.metric, "em-amplitude");
    EXPECT_EQ(report.virus.size(), 30u);
    // Improvement over the first generation.
    EXPECT_GT(report.ga.best_fitness,
              report.ga.history.front().best_fitness);
    // Converged dominant frequency near the PDN resonance.
    EXPECT_NEAR(report.dominant_freq_hz,
                pdn::firstOrderResonanceHz(a72.pdnModel()),
                mega(12.0));
    EXPECT_GT(report.max_droop_v, 0.0);
    EXPECT_GT(report.ga.estimated_lab_seconds, 0.0);
}

TEST(VirusGeneratorTest, DroopSearchWorksOnVisiblePlatform)
{
    platform::Platform a72(platform::junoA72Config(), 3);
    VirusGenerator gen(a72);
    VirusSearchConfig cfg;
    cfg.ga = fastGa();
    cfg.eval = fastEval();
    cfg.metric = VirusMetric::MaxDroop;
    const auto report = gen.search(cfg);
    EXPECT_EQ(report.metric, "max-droop");
    EXPECT_GT(report.max_droop_v, 0.01);
}

TEST(ResonanceExplorerTest, SweepFindsA72Resonance)
{
    platform::Platform a72(platform::junoA72Config(), 3);
    ResonanceExplorer explorer(a72);
    const auto points = explorer.sweep(2e-6, 2);
    EXPECT_GT(points.size(), 30u);
    const double est = ResonanceExplorer::estimateResonanceHz(points);
    EXPECT_NEAR(est, pdn::firstOrderResonanceHz(a72.pdnModel()),
                mega(6.0));
    // Clock restored after the sweep.
    EXPECT_DOUBLE_EQ(a72.frequency(), a72.config().f_max_hz);
}

TEST(ResonanceExplorerTest, SweepFindsAthlonResonance)
{
    // Fig. 16: the EM loop-frequency sweep on the Athlon peaks at its
    // 78 MHz 1st-order resonance (its transient used to diverge and
    // read -200 dBm at every clock).
    platform::Platform amd(platform::athlonConfig(), 17);
    ResonanceExplorer explorer(amd);
    const auto points = explorer.sweep(2e-6, 2);
    for (const auto &p : points)
        EXPECT_GT(p.em_dbm, -150.0) << p.cpu_freq_hz;
    EXPECT_NEAR(ResonanceExplorer::estimateResonanceHz(points),
                mega(78.0), mega(4.5));
}

TEST(ResonanceExplorerTest, SweepCoversEveryDvfsPoint)
{
    // Regression: float-accumulation stepping could drop (or
    // duplicate) the final grid point. The grid is inclusive:
    // (f_max - f_min)/f_step + 1 points, here (1.2 GHz - 120 MHz) /
    // 20 MHz + 1 = 55.
    platform::Platform a72(platform::junoA72Config(), 3);
    ResonanceExplorer explorer(a72);
    const auto points = explorer.sweep(2e-6, 1);
    const auto &cfg = a72.config();
    const std::size_t expected = static_cast<std::size_t>(std::lround(
                                     (cfg.f_max_hz - cfg.f_min_hz)
                                     / cfg.f_step_hz))
        + 1;
    EXPECT_EQ(points.size(), expected);
    EXPECT_EQ(points.size(), 55u);
    EXPECT_DOUBLE_EQ(points.front().cpu_freq_hz, cfg.f_max_hz);
    EXPECT_DOUBLE_EQ(points.back().cpu_freq_hz, cfg.f_min_hz);
}

TEST(ResonanceExplorerTest, ParallelSweepMatchesSerial)
{
    platform::Platform a72(platform::junoA72Config(), 3);
    ResonanceExplorer explorer(a72);
    const auto serial = explorer.sweep(2e-6, 2, 0, 1);
    const auto parallel = explorer.sweep(2e-6, 2, 0, 4);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_DOUBLE_EQ(parallel[i].cpu_freq_hz,
                         serial[i].cpu_freq_hz);
        EXPECT_DOUBLE_EQ(parallel[i].loop_freq_hz,
                         serial[i].loop_freq_hz);
        EXPECT_DOUBLE_EQ(parallel[i].em_dbm, serial[i].em_dbm);
    }
}

TEST(ResonanceExplorerTest, PowerGatingShiftsEstimate)
{
    platform::Platform a53(platform::junoA53Config(), 3);
    ResonanceExplorer explorer(a53);
    a53.setPoweredCores(4);
    const double f4 = ResonanceExplorer::estimateResonanceHz(
        explorer.sweep(2e-6, 2));
    a53.setPoweredCores(1);
    const double f1 = ResonanceExplorer::estimateResonanceHz(
        explorer.sweep(2e-6, 2));
    EXPECT_GT(f1, f4 + mega(8.0));
}

TEST(SclResonanceFinderTest, MatchesImpedanceAnalysis)
{
    platform::Platform a72(platform::junoA72Config(), 3);
    SclResonanceFinder finder(a72);
    const auto points =
        finder.sweep(mega(50.0), mega(90.0), mega(2.0), 0.5, 2e-6);
    ASSERT_GT(points.size(), 10u);
    const double est =
        SclResonanceFinder::estimateResonanceHz(points);
    EXPECT_NEAR(est, pdn::firstOrderResonanceHz(a72.pdnModel()),
                mega(4.0));

    platform::Platform a53(platform::junoA53Config(), 3);
    EXPECT_THROW(SclResonanceFinder f(a53), ConfigError);
}

TEST(SclResonanceFinderTest, SweepHasExactPointCount)
{
    // Regression: 50..90 MHz in 2 MHz steps is exactly 21 points,
    // independent of floating-point step accumulation.
    platform::Platform a72(platform::junoA72Config(), 3);
    SclResonanceFinder finder(a72);
    const auto points =
        finder.sweep(mega(50.0), mega(90.0), mega(2.0), 0.5, 2e-6);
    ASSERT_EQ(points.size(), 21u);
    EXPECT_DOUBLE_EQ(points.front().freq_hz, mega(50.0));
    EXPECT_DOUBLE_EQ(points.back().freq_hz, mega(90.0));
}

TEST(VirusGeneratorTest, SearchIsDeterministicAcrossThreadCounts)
{
    // The full stack honors the determinism contract: a GA virus
    // search over the real platform evaluators returns bit-identical
    // results whether the population is evaluated serially or on
    // four platform clones.
    auto run = [](std::size_t threads) {
        platform::Platform a72(platform::junoA72Config(), 3);
        VirusGenerator gen(a72);
        VirusSearchConfig cfg;
        cfg.ga = fastGa();
        cfg.ga.threads = threads;
        cfg.eval = fastEval();
        cfg.metric = VirusMetric::EmAmplitude;
        return gen.search(cfg);
    };
    const auto serial = run(1);
    const auto parallel = run(4);
    EXPECT_TRUE(parallel.virus == serial.virus);
    EXPECT_DOUBLE_EQ(parallel.ga.best_fitness,
                     serial.ga.best_fitness);
    ASSERT_EQ(parallel.ga.history.size(), serial.ga.history.size());
    for (std::size_t i = 0; i < serial.ga.history.size(); ++i) {
        EXPECT_DOUBLE_EQ(parallel.ga.history[i].best_fitness,
                         serial.ga.history[i].best_fitness);
        EXPECT_DOUBLE_EQ(parallel.ga.history[i].mean_fitness,
                         serial.ga.history[i].mean_fitness);
    }
}

TEST(VminTesterTest, VirusBeatsBenchmarksBeatsIdle)
{
    platform::Platform a72(platform::junoA72Config(), 3);
    auto cfg = defaultVminConfig(a72);
    cfg.duration_s = 2e-6;
    VminTester tester(a72, cfg);

    a72.setFrequency(560e6);
    const auto virus_kernel =
        ResonanceExplorer::probeLoop(a72.pool());
    a72.setFrequency(1.2e9);
    // Use the resonant probe at 560 MHz as a stand-in virus: run the
    // V_MIN test at that clock for the kernel.
    a72.setFrequency(560e6);
    const auto virus_row =
        tester.testKernel("probe-virus", virus_kernel, 10);
    a72.setFrequency(1.2e9);

    const auto suite = workloads::spec2006Suite();
    const auto lbm_row = tester.testWorkload(
        workloads::findProfile(suite, "lbm"), 2);
    const auto idle_row =
        tester.testWorkload(workloads::idleProfile(), 2);

    EXPECT_GT(lbm_row.max_droop_v, idle_row.max_droop_v);
    EXPECT_GT(virus_row.max_droop_v, 0.0);
    EXPECT_GE(lbm_row.vmin_v, idle_row.vmin_v);
    EXPECT_GT(virus_row.runs, 0u);
    EXPECT_FALSE(virus_row.failure.empty());
}

TEST(VminTesterTest, LabTimeAccountingMatchesRunsAndDurations)
{
    // Section 5.2: SPEC runs to completion dominate the campaign
    // time; the model charges run_seconds per execution plus an
    // overhead per voltage point.
    platform::Platform a72(platform::junoA72Config(), 3);
    auto cfg = defaultVminConfig(a72);
    cfg.duration_s = 2e-6;
    VminTester tester(a72, cfg);

    const auto suite = workloads::spec2006Suite();
    const auto bench_row = tester.testWorkload(
        workloads::findProfile(suite, "hmmer"), 2, 300.0);
    const auto virus_row = tester.testKernel(
        "probe", ResonanceExplorer::probeLoop(a72.pool()), 2, 15.0);

    // Both must charge at least run_seconds per executed run.
    EXPECT_GE(bench_row.lab_seconds,
              300.0 * static_cast<double>(bench_row.runs));
    EXPECT_GE(virus_row.lab_seconds,
              15.0 * static_cast<double>(virus_row.runs));
    // A long-running benchmark costs far more lab time per run.
    EXPECT_GT(bench_row.lab_seconds
                  / static_cast<double>(bench_row.runs),
              5.0 * virus_row.lab_seconds
                  / static_cast<double>(virus_row.runs));
}

/** A72 V_MIN set-up at the probe loop's resonant clock. */
struct VminBench
{
    platform::Platform a72{platform::junoA72Config(), 3};
    VminTestConfig cfg;
    isa::Kernel probe;

    VminBench()
    {
        a72.setFrequency(560e6);
        cfg = defaultVminConfig(a72);
        cfg.duration_s = 2e-6;
        probe = ResonanceExplorer::probeLoop(a72.pool());
    }
};

TEST(VminTesterTest, RunsAndLabSecondsFollowTheLadder)
{
    // Runs are spent `repeats` per voltage point until the first
    // failure; V_MIN is the point where it happened, and lab time is
    // run_seconds per run plus 20 s per visited point.
    VminBench b;
    VminTester tester(b.a72, b.cfg);
    const auto suite = workloads::spec2006Suite();
    for (const auto &[row, repeats, run_s] :
         {std::tuple{tester.testKernel("probe", b.probe, 3, 15.0),
                     std::size_t{3}, 15.0},
          std::tuple{tester.testWorkload(
                         workloads::findProfile(suite, "milc"), 2),
                     std::size_t{2}, 300.0}}) {
        SCOPED_TRACE(row.workload);
        ASSERT_NE(row.failure, "pass");
        const std::size_t points = (row.runs + repeats - 1) / repeats;
        EXPECT_GT(row.runs, (points - 1) * repeats);
        EXPECT_LE(row.runs, points * repeats);
        EXPECT_EQ(row.vmin_v,
                  b.cfg.search.v_start
                      - static_cast<double>(points - 1)
                          * b.cfg.search.v_step);
        EXPECT_EQ(row.margin_v, b.a72.voltage() - row.vmin_v);
        EXPECT_EQ(row.lab_seconds,
                  static_cast<double>(row.runs) * run_s
                      + static_cast<double>(points) * 20.0);
    }
}

TEST(VminTesterTest, ZeroJitterMaxDroopIsTheNominalDroop)
{
    // Without jitter the nominal run is the nominal waveform itself,
    // so the reported droop is v_nom minus its minimum.
    VminBench b;
    b.cfg.droop_jitter_rel = 0.0;
    VminTester tester(b.a72, b.cfg);
    const auto row = tester.testKernel("probe", b.probe, 2);
    const Trace v_die =
        b.a72.runKernel(b.probe, b.cfg.duration_s).v_die;
    const double v_nom = b.a72.voltage();
    EXPECT_DOUBLE_EQ(row.max_droop_v,
                     v_nom - stats::minimum(v_die.samples()));
    EXPECT_GT(row.max_droop_v, 0.0);
}

TEST(VminTesterTest, ClampedZeroScaleRunSitsAtTheSupply)
{
    // A jitter draw below zero clamps the droop scale to 0: that run
    // sees the bare supply. Pick a row name whose first draw (the
    // nominal-droop run) clamps; its droop then reads exactly 0, and
    // the ladder, where one run in six clamps, still matches the
    // waveform-synthesizing oracle bit for bit.
    VminBench b;
    b.cfg.droop_jitter_rel = 1.0;
    std::string name;
    for (int i = 0; name.empty(); ++i) {
        const std::string candidate = "clamped-" + std::to_string(i);
        Rng first(b.cfg.seed ^ stringHash(candidate));
        if (first.gaussian(1.0, b.cfg.droop_jitter_rel) < 0.0)
            name = candidate;
    }
    VminTester tester(b.a72, b.cfg);
    const auto row = tester.testKernel(name, b.probe, 30);
    EXPECT_EQ(row.max_droop_v, 0.0);

    const Trace nominal =
        b.a72.runKernel(b.probe, b.cfg.duration_s).v_die;
    const auto want =
        traceLadderRow(name, nominal, b.a72.voltage(),
                       b.a72.frequency(), b.cfg, 30, 15.0);
    EXPECT_EQ(row.vmin_v, want.vmin_v);
    EXPECT_EQ(row.failure, want.failure);
    EXPECT_EQ(row.runs, want.runs);
    EXPECT_EQ(row.lab_seconds, want.lab_seconds);
}

TEST(VminTesterTest, HigherDroopKernelFailsAtLeastAsHigh)
{
    VminBench b;
    VminTester tester(b.a72, b.cfg);
    Rng rng(11);
    const auto quiet = isa::Kernel::random(b.a72.pool(), 24, rng);
    const auto resonant_row = tester.testKernel("k", b.probe, 30);
    const auto quiet_row = tester.testKernel("k", quiet, 30);
    ASSERT_GT(resonant_row.max_droop_v, quiet_row.max_droop_v);
    EXPECT_GE(resonant_row.vmin_v, quiet_row.vmin_v);
}

TEST(VminTesterTest, RowsBitIdenticalWithMetricsOnAndOff)
{
    // Metrics are write-only (DESIGN.md §11): the vmin.row and
    // platform.run_stream spans and the PDN step counter record the
    // rows without moving them.
    const bool was_enabled = metrics::enabled();
    const auto suite = workloads::spec2006Suite();
    std::vector<VminRow> rows[2];
    for (const bool on : {false, true}) {
        metrics::setEnabled(on);
        metrics::Registry::instance().reset();
        VminBench b;
        VminTester tester(b.a72, b.cfg);
        rows[on].push_back(tester.testKernel("probe", b.probe, 30));
        rows[on].push_back(tester.testWorkload(
            workloads::findProfile(suite, "mcf"), 2));
        const auto snap = metrics::Registry::instance().snapshot();
        EXPECT_EQ(snap.phases.count("vmin.row"), on ? 1u : 0u);
        EXPECT_EQ(snap.phases.count("platform.run_stream"),
                  on ? 1u : 0u);
        EXPECT_EQ(snap.counters.count("platform.run_stream.pdn_steps"),
                  on ? 1u : 0u);
    }
    metrics::setEnabled(was_enabled);
    for (std::size_t i = 0; i < rows[0].size(); ++i) {
        EXPECT_EQ(rows[1][i].vmin_v, rows[0][i].vmin_v);
        EXPECT_EQ(rows[1][i].max_droop_v, rows[0][i].max_droop_v);
        EXPECT_EQ(rows[1][i].failure, rows[0][i].failure);
        EXPECT_EQ(rows[1][i].runs, rows[0][i].runs);
    }
}

TEST(EmMarkerPruning, GaCorpusMarkersMatchExhaustiveSearch)
{
    // Captures of GA-style random kernels at a resonant and an
    // off-resonance clock, with the paper's 30 sweeps: the pruned
    // marker must equal the exhaustive one bit for bit.
    platform::Platform a72(platform::junoA72Config(), 3);
    const auto &sa = a72.analyzer();
    Rng rng(31);
    for (const double f_clk : {560e6, 1.2e9}) {
        a72.setFrequency(f_clk);
        for (int i = 0; i < 4; ++i) {
            const auto kernel = isa::Kernel::random(a72.pool(), 30, rng);
            const auto run = runKernelBatch(a72, kernel, 2e-6);
            const std::uint64_t key = rng.bits();
            const auto want = instruments::exhaustiveBandMax(
                sa.params(),
                instruments::bandOf(sa.params(), run.em, 50e6, 200e6),
                30, key);
            const auto got =
                sa.averagedMaxAmplitude(run.em, 50e6, 200e6, 30, key);
            EXPECT_EQ(got.power_dbm, want.power_dbm) << f_clk << " " << i;
            EXPECT_EQ(got.freq_hz, want.freq_hz) << f_clk << " " << i;
        }
    }
}

TEST(EmMarkerPruning, BitIdenticalWithMetricsOnAndOff)
{
    // The pruned marker search reports its sweeps and its noise draws
    // through write-only counters (DESIGN.md §11): one band_evals per
    // sweep, and a handful of pair draws where the exhaustive search
    // drew all ~154 pairs of the 50-200 MHz band.
    const bool was_enabled = metrics::enabled();
    platform::Platform a72(platform::junoA72Config(), 3);
    EvalSettings eval = fastEval();
    eval.sa_samples = 30;
    Rng rng(32);
    std::vector<isa::Kernel> kernels = {
        ResonanceExplorer::probeLoop(a72.pool())};
    for (int i = 0; i < 3; ++i)
        kernels.push_back(isa::Kernel::random(a72.pool(), 30, rng));
    std::vector<double> fitness[2];
    for (const bool on : {false, true}) {
        metrics::setEnabled(on);
        metrics::Registry::instance().reset();
        EmAmplitudeFitness em(a72, eval);
        for (const auto &k : kernels)
            fitness[on].push_back(em.evaluate(k, nullptr));
        const auto snap = metrics::Registry::instance().snapshot();
        const auto count = [&](const char *name) -> std::uint64_t {
            const auto it = snap.counters.find(name);
            return it == snap.counters.end() ? 0 : it->second;
        };
        const std::uint64_t sweeps = count("instruments.sa.band_evals");
        const std::uint64_t drawn =
            count("instruments.sa.noise_pairs_drawn");
        EXPECT_EQ(sweeps, on ? 30 * kernels.size() : 0u);
        EXPECT_GE(drawn, sweeps);
        EXPECT_LE(drawn, 4 * sweeps) << drawn;
    }
    metrics::setEnabled(was_enabled);
    EXPECT_EQ(fitness[1], fitness[0]);
}

TEST(VminTesterTest, DefaultConfigScalesWithPlatform)
{
    platform::Platform a72(platform::junoA72Config(), 3);
    platform::Platform amd(platform::athlonConfig(), 3);
    const auto mobile = defaultVminConfig(a72);
    const auto desktop = defaultVminConfig(amd);
    EXPECT_LT(mobile.timing.vth, desktop.timing.vth);
    EXPECT_DOUBLE_EQ(mobile.search.v_start, 1.0);
    EXPECT_DOUBLE_EQ(desktop.search.v_start, 1.4);
    EXPECT_DOUBLE_EQ(mobile.search.v_step, 0.010);
}

TEST(MultiDomainTest, SeesBothClusterSignatures)
{
    // Fig. 15: A72 and A53 viruses visible simultaneously.
    platform::Platform a72(platform::junoA72Config(), 3);
    platform::Platform a53(platform::junoA53Config(), 4);
    // Probe loops at clocks that put each near its own resonance.
    a72.setFrequency(560e6); // ~70 MHz
    a53.setFrequency(608e6); // ~76 MHz
    std::vector<DomainWorkload> domains;
    domains.push_back(
        {&a72, ResonanceExplorer::probeLoop(a72.pool()), 0});
    domains.push_back(
        {&a53, ResonanceExplorer::probeLoop(a53.pool()), 0});
    const auto result =
        monitorDomains(domains, 3e-6, a72.analyzer());
    ASSERT_EQ(result.domain_dominant_hz.size(), 2u);
    EXPECT_NEAR(result.domain_dominant_hz[0], mega(70.0), mega(4.0));
    EXPECT_NEAR(result.domain_dominant_hz[1], mega(76.0), mega(4.0));
    EXPECT_GT(result.sweep.size(), 100u);

    // Both signatures are above the local noise in the combined
    // sweep: markers near each dominant frequency are strong.
    const auto m1 = instruments::SpectrumAnalyzer::maxAmplitude(
        result.sweep, mega(66.0), mega(73.0));
    const auto m2 = instruments::SpectrumAnalyzer::maxAmplitude(
        result.sweep, mega(73.5), mega(80.0));
    const auto quiet = instruments::SpectrumAnalyzer::maxAmplitude(
        result.sweep, mega(170.0), mega(200.0));
    EXPECT_GT(m1.power_dbm, quiet.power_dbm + 6.0);
    EXPECT_GT(m2.power_dbm, quiet.power_dbm + 6.0);

    EXPECT_THROW(
        {
            std::vector<DomainWorkload> empty;
            (void)monitorDomains(empty, 1e-6, a72.analyzer());
        },
        ConfigError);
}

TEST(MultiDomainTest, IdleDomainStaysQuiet)
{
    // A stressed A72 next to an *idle* A53: only the A72 signature
    // appears; the idle domain adds nothing near its resonance.
    platform::Platform a72(platform::junoA72Config(), 5);
    platform::Platform a53(platform::junoA53Config(), 6);
    a72.setFrequency(560e6); // probe loop ~70 MHz
    std::vector<DomainWorkload> domains;
    domains.push_back(
        {&a72, ResonanceExplorer::probeLoop(a72.pool()), 0, false});
    domains.push_back({&a53, isa::Kernel{}, 0, true});
    const auto result =
        monitorDomains(domains, 3e-6, a72.analyzer());
    const auto sig72 = instruments::SpectrumAnalyzer::maxAmplitude(
        result.sweep, mega(67.0), mega(73.0));
    const auto sig53 = instruments::SpectrumAnalyzer::maxAmplitude(
        result.sweep, mega(74.0), mega(80.0));
    EXPECT_GT(sig72.power_dbm, sig53.power_dbm + 10.0);
}

TEST(VirusAnalysisTest, Table2RowFields)
{
    platform::Platform a72(platform::junoA72Config(), 3);
    a72.setFrequency(560e6);
    const auto kernel = ResonanceExplorer::probeLoop(a72.pool());
    const auto row =
        analyzeVirus(a72, "probe", kernel, 0.85, 2e-6, 3);
    EXPECT_EQ(row.virus_name, "probe");
    EXPECT_EQ(row.loop_instructions, 9u);
    EXPECT_GT(row.ipc, 0.5);
    EXPECT_NEAR(row.loop_freq_mhz, 70.0, 2.0);
    EXPECT_NEAR(row.dominant_freq_mhz, 70.0, 5.0);
    EXPECT_NEAR(row.voltage_margin_mv, 150.0, 0.5);
    // Mix fractions sum to one for this all-int kernel.
    EXPECT_NEAR(row.pct_sl_int_reg + row.pct_ll_int_reg, 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(row.pct_branch, 0.0);
}

TEST(VirusAnalysisTest, MinIpcRelation)
{
    // Section 8.2's examples: A72 needs IPC ~2.8 for a 50-instruction
    // loop to match 67 MHz at 1.2 GHz; AMD needs ~1.26 at 3.1 GHz.
    EXPECT_NEAR(minIpcForResonantLoop(mega(67.0), 50, giga(1.2)),
                2.79, 0.01);
    EXPECT_NEAR(minIpcForResonantLoop(mega(78.0), 50, giga(3.1)),
                1.26, 0.01);
    EXPECT_THROW((void)minIpcForResonantLoop(mega(67.0), 50, 0.0),
                 ConfigError);
}

} // namespace
} // namespace core
} // namespace emstress
