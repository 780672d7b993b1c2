/**
 * @file
 * Parity tests for the streaming measurement pipeline: the batch
 * trace path (runKernelBatch, SpectrumAnalyzer::sweep,
 * Oscilloscope::capture, the BatchOracleFitness evaluator built on
 * them, and the whole-trace runStream and V_MIN ladder oracles)
 * serves as the oracle and the streaming sinks
 * (streamKernel, SaBandDetector, ScopeCaptureSink) must agree with
 * it bit for bit — waveforms, scope metrics and EM band maxima — all
 * the way up to identical GA search results across thread counts.
 */

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "batch_oracle.h"
#include "core/fitness.h"
#include "core/resonance_explorer.h"
#include "core/virus_generator.h"
#include "core/vmin_tester.h"
#include "em/pulse_injector.h"
#include "instruments/oscilloscope.h"
#include "instruments/spectrum_analyzer.h"
#include "platform/platform.h"
#include "util/error.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/sample_sink.h"
#include "util/trace.h"
#include "util/units.h"
#include "workloads/workload.h"

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

void
expectTracesIdentical(const Trace &a, const Trace &b)
{
    ASSERT_EQ(a.size(), b.size());
    EXPECT_DOUBLE_EQ(a.dt(), b.dt());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << "sample " << i;
}

// ---------------------------------------------------------------
// Platform: streaming run vs batch-trace oracle.
// ---------------------------------------------------------------

TEST(StreamingPlatform, RunKernelMatchesBatchOracleExactly)
{
    platform::Platform plat(platform::junoA72Config(), 3);
    plat.setFrequency(560e6);
    const auto kernel = ResonanceExplorer::probeLoop(plat.pool());

    const auto batch = runKernelBatch(plat, kernel, 2e-6);
    const auto stream = plat.runKernel(kernel, 2e-6);

    expectTracesIdentical(stream.v_die, batch.v_die);
    expectTracesIdentical(stream.i_die, batch.i_die);
    expectTracesIdentical(stream.em, batch.em);
    EXPECT_EQ(stream.stats.instructions, batch.stats.instructions);
    EXPECT_EQ(stream.stats.cycles, batch.stats.cycles);
}

TEST(StreamingPlatform, PulseArmedRunMatchesBatchOracleExactly)
{
    // The EMFI pulse source feeds the streaming sink and the batch
    // transient through the same waveform evaluated at the same step
    // times, so arming a pulse must not open a stream/batch gap.
    platform::Platform plat(platform::junoA72Config(), 3);
    em::PulseSpec pulse;
    pulse.t0_s = 0.7e-6;
    pulse.width_s = 25e-9;
    pulse.amplitude_a = 18.0;
    pulse.x = 0.35;
    pulse.y = 0.6;
    plat.armPulse(pulse);
    const auto kernel = ResonanceExplorer::probeLoop(plat.pool());

    const auto batch = runKernelBatch(plat, kernel, 2e-6);
    const auto stream = plat.runKernel(kernel, 2e-6);

    expectTracesIdentical(stream.v_die, batch.v_die);
    expectTracesIdentical(stream.i_die, batch.i_die);
    expectTracesIdentical(stream.em, batch.em);
}

/** Turns metrics recording on for a scope. */
class MetricsOn
{
  public:
    MetricsOn() { metrics::setEnabled(true); }
    ~MetricsOn() { metrics::setEnabled(was_); }

  private:
    bool was_ = metrics::enabled();
};

/** The uarch.live_cycles counter's growth while `fn` runs. */
std::uint64_t
liveCyclesOf(const std::function<void()> &fn)
{
    const MetricsOn on;
    const auto count = [] {
        const auto snap = metrics::Registry::instance().snapshot();
        const auto it = snap.counters.find("uarch.live_cycles");
        return it == snap.counters.end() ? std::uint64_t{0} : it->second;
    };
    const std::uint64_t before = count();
    fn();
    return count() - before;
}

/// The GA's EM window; long enough for the Athlon's steady-state
/// detection to give up on a kernel that has not recurred.
constexpr double kGaWindow = 4e-6;

/**
 * The first seeded 50-instruction kernel whose loop the core model
 * never fast-forwards over a kGaWindow run on `plat`: it simulates
 * every warmup and window cycle one by one.
 */
std::optional<isa::Kernel>
liveOnlyKernel(const platform::Platform &plat)
{
    const uarch::CoreModel core(plat.config().core);
    const double total_s = kGaWindow + kOracleSettleTime;
    const std::size_t warmup = 50 * 32; // max(1024, 32 x length)
    const auto target =
        static_cast<std::size_t>(total_s * plat.frequency()) + 1;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        Rng rng(seed);
        auto kernel = isa::Kernel::random(plat.pool(), 50, rng);
        const std::uint64_t live = liveCyclesOf([&] {
            (void)core.runLoop(plat.pool(), kernel, plat.frequency(),
                               total_s);
        });
        if (live == warmup + target)
            return kernel;
    }
    return std::nullopt;
}

TEST(StreamingPlatform, KernelRunSimulatesTheCoreOnce)
{
    // A kernel whose steady state is never detected cannot be
    // replayed from a recorded period: the run must still step its
    // core only once.
    platform::Platform plat(platform::athlonConfig(), 7);
    const auto kernel = liveOnlyKernel(plat);
    ASSERT_TRUE(kernel.has_value());

    const uarch::CoreModel core(plat.config().core);
    const std::uint64_t one_run = liveCyclesOf([&] {
        (void)core.runLoop(plat.pool(), *kernel, plat.frequency(),
                           kGaWindow + kOracleSettleTime);
    });
    NullSink discard;
    const std::uint64_t streamed = liveCyclesOf([&] {
        plat.streamKernel(*kernel, kGaWindow,
                          [&](const platform::StreamPlan &) {
                              return platform::StreamObservers{
                                  nullptr, nullptr, &discard};
                          });
    });
    EXPECT_EQ(streamed, one_run);

    const auto batch = runKernelBatch(plat, *kernel, kGaWindow);
    const auto stream = plat.runKernel(*kernel, kGaWindow);
    expectTracesIdentical(stream.v_die, batch.v_die);
    expectTracesIdentical(stream.i_die, batch.i_die);
    expectTracesIdentical(stream.em, batch.em);
}

TEST(StreamingPlatform, ParityHoldsAcrossPlatformsAndCoreCounts)
{
    const platform::PlatformConfig configs[] = {
        platform::junoA72Config(),
        platform::junoA53Config(),
        platform::athlonConfig(),
    };
    for (const auto &cfg : configs) {
        platform::Platform plat(cfg, 7);
        Rng rng(11);
        std::vector<std::pair<isa::Kernel, double>> inputs{
            {isa::Kernel::random(plat.pool(), 24, rng), 1.5e-6}};
        // The Athlon also runs a kernel its core never fast-forwards.
        if (cfg.isa == isa::IsaFamily::X86_64) {
            const auto live = liveOnlyKernel(plat);
            ASSERT_TRUE(live.has_value());
            inputs.emplace_back(*live, kGaWindow);
        }
        for (const auto &[kernel, duration] : inputs) {
            for (std::size_t cores = 1; cores <= cfg.n_cores; ++cores) {
                const auto batch =
                    runKernelBatch(plat, kernel, duration, cores);
                const auto stream =
                    plat.runKernel(kernel, duration, cores);
                expectTracesIdentical(stream.v_die, batch.v_die);
                expectTracesIdentical(stream.i_die, batch.i_die);
                expectTracesIdentical(stream.em, batch.em);
            }
        }
    }
}

TEST(StreamingPlatform, ObserverFactorySeesRunGeometry)
{
    platform::Platform plat(platform::junoA72Config(), 3);
    const auto kernel = ResonanceExplorer::probeLoop(plat.pool());

    const auto batch = runKernelBatch(plat, kernel, 2e-6);
    std::size_t planned = 0;
    double plan_dt = 0.0;
    TraceSink v(platform::kPdnDt);
    plat.streamKernel(
        kernel, 2e-6, [&](const platform::StreamPlan &plan) {
            planned = plan.n_samples;
            plan_dt = plan.dt;
            EXPECT_GT(plan.stats.loop_freq_hz, 0.0);
            v.reserve(plan.n_samples);
            return platform::StreamObservers{&v, nullptr, nullptr};
        });
    EXPECT_EQ(planned, batch.v_die.size());
    EXPECT_DOUBLE_EQ(plan_dt, platform::kPdnDt);
    expectTracesIdentical(v.trace(), batch.v_die);
}

// ---------------------------------------------------------------
// V_MIN layer: runStream steps the PDN only through its window and
// the ladder runs on one scalar per run; the whole-trace oracles
// (batch_oracle.h) must agree bit for bit.
// ---------------------------------------------------------------

/** The matrix's V_MIN profile on a preset, from its own suite. */
workloads::WorkloadProfile
matrixProfile(const platform::PlatformConfig &cfg)
{
    return cfg.isa == isa::IsaFamily::ArmV8
        ? workloads::findProfile(workloads::spec2006Suite(), "perlbench")
        : workloads::findProfile(workloads::desktopSuite(), "blender");
}

constexpr double kMatrixDurations[] = {4e-6, 2e-6, 1e-6};

/** Bit patterns equal, so a NaN or signed zero compares exactly too. */
void
expectBitsEqual(double got, double want)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << got << " vs " << want;
}

void
expectTracesBitIdentical(const Trace &a, const Trace &b)
{
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.dt(), b.dt());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
                  std::bit_cast<std::uint64_t>(b[i]))
            << "sample " << i << ": " << a[i] << " vs " << b[i];
}

/**
 * runStream against wholeTraceRunStream for every powered / active
 * core count and window length, on a stream sized the way VminTester
 * sizes one (full issue width, so the trace runs far past the
 * window).
 */
void
expectRunStreamMatrix(const platform::PlatformConfig &cfg)
{
    platform::Platform plat(cfg, 7);
    Rng gen(5);
    const auto length = static_cast<std::size_t>(
        5e-6 * plat.frequency()
        * static_cast<double>(cfg.core.issue_width)) + 4096;
    const auto stream = workloads::generateStream(
        matrixProfile(cfg), plat.pool(), length, gen);
    for (std::size_t powered = 1; powered <= cfg.n_cores; ++powered) {
        plat.setPoweredCores(powered);
        for (std::size_t active = 1; active <= powered; ++active) {
            for (double d : kMatrixDurations) {
                SCOPED_TRACE(cfg.name + " powered "
                             + std::to_string(powered) + " active "
                             + std::to_string(active) + " window "
                             + std::to_string(d));
                const auto want =
                    wholeTraceRunStream(plat, stream, d, active);
                const auto got = plat.runStream(stream, d, active);
                expectTracesBitIdentical(got.v_die, want.v_die);
                expectTracesBitIdentical(got.i_die, want.i_die);
                expectTracesBitIdentical(got.em, want.em);
                EXPECT_EQ(got.stats.cycles, want.stats.cycles);
            }
        }
    }
}

void
expectRowsIdentical(const VminRow &got, const VminRow &want)
{
    EXPECT_EQ(got.workload, want.workload);
    expectBitsEqual(got.vmin_v, want.vmin_v);
    expectBitsEqual(got.margin_v, want.margin_v);
    expectBitsEqual(got.max_droop_v, want.max_droop_v);
    EXPECT_EQ(got.failure, want.failure);
    EXPECT_EQ(got.runs, want.runs);
    expectBitsEqual(got.lab_seconds, want.lab_seconds);
}

/**
 * VminTester rows against the whole-trace oracles over the same
 * matrix: a profile row (window-only runStream + scalar ladder) and
 * a 30-repeat kernel row (scalar ladder on the streamed waveform).
 */
void
expectVminRowMatrix(const platform::PlatformConfig &cfg)
{
    platform::Platform plat(cfg, 7);
    const auto profile = matrixProfile(cfg);
    const auto kernel = ResonanceExplorer::probeLoop(plat.pool());
    for (std::size_t powered = 1; powered <= cfg.n_cores; ++powered) {
        plat.setPoweredCores(powered);
        for (std::size_t active = 1; active <= powered; ++active) {
            for (double d : kMatrixDurations) {
                SCOPED_TRACE(cfg.name + " powered "
                             + std::to_string(powered) + " active "
                             + std::to_string(active) + " window "
                             + std::to_string(d));
                auto vcfg = defaultVminConfig(plat);
                vcfg.duration_s = d;
                vcfg.active_cores = active;
                VminTester tester(plat, vcfg);
                expectRowsIdentical(
                    tester.testWorkload(profile, 2),
                    wholeTraceWorkloadRow(plat, vcfg, profile, 2));
                const Trace nominal =
                    plat.runKernel(kernel, d, active).v_die;
                expectRowsIdentical(
                    tester.testKernel("resonant", kernel, 30),
                    traceLadderRow("resonant", nominal, plat.voltage(),
                                   plat.frequency(), vcfg, 30, 15.0));
            }
        }
    }
}

TEST(StreamingVmin, RunStreamMatchesWholeTraceOracleA72)
{
    expectRunStreamMatrix(platform::junoA72Config());
}

TEST(StreamingVmin, RunStreamMatchesWholeTraceOracleA53)
{
    expectRunStreamMatrix(platform::junoA53Config());
}

TEST(StreamingVmin, RunStreamMatchesWholeTraceOracleAthlon)
{
    expectRunStreamMatrix(platform::athlonConfig());
}

TEST(StreamingVmin, PulseArmedRunStreamMatchesWholeTraceOracle)
{
    // The pulse column is evaluated at each step's time on both
    // paths, and the window cut never reaches past the pulse's
    // influence on an observed sample.
    platform::Platform plat(platform::junoA72Config(), 3);
    em::PulseSpec pulse;
    pulse.t0_s = 1.1e-6;
    pulse.width_s = 25e-9;
    pulse.amplitude_a = 18.0;
    pulse.x = 0.35;
    pulse.y = 0.6;
    plat.armPulse(pulse);
    Rng gen(9);
    const auto stream = workloads::generateStream(
        matrixProfile(plat.config()), plat.pool(), 20000, gen);
    const auto want = wholeTraceRunStream(plat, stream, 2e-6);
    const auto got = plat.runStream(stream, 2e-6);
    expectTracesBitIdentical(got.v_die, want.v_die);
    expectTracesBitIdentical(got.i_die, want.i_die);
    expectTracesBitIdentical(got.em, want.em);
}

TEST(StreamingVmin, VminRowsMatchTraceLadderOracleA72)
{
    expectVminRowMatrix(platform::junoA72Config());
}

TEST(StreamingVmin, VminRowsMatchTraceLadderOracleA53)
{
    expectVminRowMatrix(platform::junoA53Config());
}

TEST(StreamingVmin, VminRowsMatchTraceLadderOracleAthlon)
{
    expectVminRowMatrix(platform::athlonConfig());
}

// ---------------------------------------------------------------
// Spectrum analyzer: streamed band detector vs batch analyzer.
// ---------------------------------------------------------------

TEST(StreamingInstruments, GoertzelBandMaxMatchesFftSweep)
{
    platform::Platform plat(platform::junoA72Config(), 3);
    // A resonant and an off-resonance capture, like the fig07 corpus.
    const double clocks[] = {560e6, 1.2e9};
    const double f_lo = 50e6, f_hi = 200e6;
    for (double f_clk : clocks) {
        plat.setFrequency(f_clk);
        const auto kernel =
            ResonanceExplorer::probeLoop(plat.pool());
        const auto run = runKernelBatch(plat, kernel, 2e-6);

        instruments::SaBandDetector det(
            plat.analyzer().params(), run.em.size(),
            run.em.sampleRate(), f_lo, f_hi);
        for (double v : run.em.samples())
            det.push(v);
        det.finish();

        // Identical noise streams on both paths.
        Rng noise_batch(77), noise_stream(77);
        const auto batch = plat.analyzer().averagedMaxAmplitude(
            run.em, f_lo, f_hi, 5, noise_batch);
        const auto stream =
            det.averagedMaxAmplitude(5, noise_stream);

        // One transform on both paths: the markers agree bit for bit.
        EXPECT_EQ(stream.power_dbm, batch.power_dbm)
            << "f_clk=" << f_clk;
        EXPECT_EQ(stream.freq_hz, batch.freq_hz);

        // Single-sweep markers agree too.
        Rng n1(123), n2(123);
        const auto s1 = plat.analyzer().averagedMaxAmplitude(
            run.em, f_lo, f_hi, 1, n1);
        const auto s2 = det.averagedMaxAmplitude(1, n2);
        EXPECT_EQ(s2.power_dbm, s1.power_dbm);
        EXPECT_EQ(s2.freq_hz, s1.freq_hz);
    }
}

TEST(StreamingInstruments, NarrowingTheBandKeepsEveryInBandReading)
{
    // Analyzer noise is keyed by (key, sweep, grid bin), not by draw
    // order: a band marker draws only its own bins, and each of them
    // reads exactly what the full display sweep shows there.
    platform::Platform plat(platform::junoA72Config(), 3);
    plat.setFrequency(560e6);
    const auto kernel = ResonanceExplorer::probeLoop(plat.pool());
    const auto run = runKernelBatch(plat, kernel, 2e-6);
    const auto &sa = plat.analyzer();
    const std::uint64_t key = 0xba4dull;
    const auto full = sa.sweep(run.em, key, 0);

    // Every in-band bin as a one-bin band, on both paths.
    std::size_t checked = 0;
    for (std::size_t k = 0; k < full.size(); ++k) {
        const double f = full.freqs_hz[k];
        if (f < 50e6 || f > 200e6)
            continue;
        const auto batch = sa.averagedMaxAmplitude(run.em, f, f, 1, key);
        EXPECT_EQ(batch.power_dbm, full.power_dbm[k]) << "f=" << f;
        EXPECT_EQ(batch.freq_hz, f);

        instruments::SaBandDetector det(sa.params(), run.em.size(),
                                        run.em.sampleRate(), f, f);
        for (double v : run.em.samples())
            det.push(v);
        det.finish();
        const auto stream = det.averagedMaxAmplitude(1, key);
        EXPECT_EQ(stream.power_dbm, full.power_dbm[k]) << "f=" << f;
        EXPECT_EQ(stream.freq_hz, f);
        ++checked;
    }
    EXPECT_GT(checked, 100u);

    // Nested bands: each marker is the full sweeps' maximum over its
    // band, and the N-sweep statistic is the RMS of those maxima.
    constexpr std::size_t kSweeps = 5;
    std::vector<instruments::SaSweep> sweeps;
    for (std::size_t s = 0; s < kSweeps; ++s)
        sweeps.push_back(sa.sweep(run.em, key, s));
    const double bands[][2] = {
        {50e6, 200e6}, {60e6, 120e6}, {70e6, 80e6}};
    for (const auto &band : bands) {
        double sum_sq_w = 0.0;
        std::vector<double> freqs;
        for (const auto &sw : sweeps) {
            const auto m = instruments::SpectrumAnalyzer::maxAmplitude(
                sw, band[0], band[1]);
            sum_sq_w += dbmToWatts(m.power_dbm) * dbmToWatts(m.power_dbm);
            freqs.push_back(m.freq_hz);
        }
        std::sort(freqs.begin(), freqs.end());
        const double want_dbm = wattsToDbm(
            std::sqrt(sum_sq_w / static_cast<double>(kSweeps)));
        const auto got = sa.averagedMaxAmplitude(run.em, band[0],
                                                 band[1], kSweeps, key);
        EXPECT_NEAR(got.power_dbm, want_dbm, 1e-9) << band[0];
        EXPECT_EQ(got.freq_hz, freqs[kSweeps / 2]) << band[0];
    }
}

TEST(StreamingInstruments, SharedSpectrumPlansAreBuiltOnceAcrossThreads)
{
    // Evaluator clones on many threads ask for the same capture
    // geometries at once. Each geometry's plan is built once and
    // shared, and detectors on every thread read identical markers
    // from it.
    constexpr std::size_t kThreads = 8;
    const std::size_t sizes[] = {6000, 6001, 12000};
    constexpr double kRate = 4e9;
    Trace signal(1.0 / kRate);
    Rng rng(5);
    for (std::size_t i = 0; i < 12000; ++i)
        signal.push(1e-3
                        * std::sin(kTwoPi * 76e6
                                   * static_cast<double>(i) / kRate)
                    + rng.gaussian(0.0, 1e-5));
    const instruments::SpectrumAnalyzerParams params;

    struct Seen
    {
        std::vector<const dsp::SpectrumPlan *> plans;
        std::vector<double> dbm;
    };
    std::vector<Seen> seen(kThreads);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            while (!go.load())
                std::this_thread::yield();
            for (std::size_t j = 0; j < 3; ++j) {
                // Threads start on different geometries.
                const std::size_t n = sizes[(j + t) % 3];
                const dsp::BandPlan plan(n, kRate, 50e6, 200e6,
                                         params.window);
                instruments::SaBandDetector det(params, plan, 50e6,
                                                200e6);
                for (std::size_t i = 0; i < n; ++i)
                    det.push(signal[i]);
                det.finish();
                seen[t].plans.push_back(&plan.spectrum());
                seen[t].dbm.push_back(
                    det.averagedMaxAmplitude(30, 0x5eedull).power_dbm);
            }
        });
    }
    go.store(true);
    for (auto &th : threads)
        th.join();
    for (std::size_t t = 0; t < kThreads; ++t) {
        for (std::size_t j = 0; j < 3; ++j) {
            // Slot j of thread t measured sizes[(j + t) % 3]; find
            // thread 0's slot for the same geometry.
            const std::size_t j0 = (j + t) % 3;
            EXPECT_EQ(seen[t].plans[j], seen[0].plans[j0]) << t;
            EXPECT_EQ(seen[t].dbm[j], seen[0].dbm[j0]) << t;
        }
    }
    EXPECT_EQ(dsp::SpectrumPlan::shared(6000, params.window).get(),
              seen[0].plans[0]);
}

// ---------------------------------------------------------------
// Oscilloscope: streaming capture vs batch capture.
// ---------------------------------------------------------------

TEST(StreamingInstruments, ScopeCaptureSinkMatchesBatchCapture)
{
    platform::Platform plat(platform::junoA72Config(), 3);
    plat.setFrequency(560e6);
    const auto kernel = ResonanceExplorer::probeLoop(plat.pool());
    const auto run = runKernelBatch(plat, kernel, 2e-6);

    Rng noise_batch(41), noise_stream(41);
    const Trace batch = plat.scope().capture(run.v_die, noise_batch);

    instruments::ScopeCaptureSink sink(
        plat.scope().params(), run.v_die.size(), run.v_die.dt(),
        noise_stream);
    for (double v : run.v_die.samples())
        sink.push(v);
    sink.finish();

    expectTracesIdentical(sink.capture(), batch);
    EXPECT_EQ(sink.maxDroop(plat.voltage()),
              instruments::Oscilloscope::maxDroop(batch,
                                                  plat.voltage()));
    EXPECT_EQ(sink.peakToPeak(),
              instruments::Oscilloscope::peakToPeak(batch));
}

// ---------------------------------------------------------------
// Fitness evaluators: streaming vs batch oracle.
// ---------------------------------------------------------------

TEST(StreamingFitness, EmAmplitudeAgreesWithBatchWithinMicroDb)
{
    platform::Platform plat(platform::junoA72Config(), 3);
    plat.setFrequency(560e6);
    EmAmplitudeFitness streaming(plat, fastEval());
    BatchOracleFitness batch(plat, VirusMetric::EmAmplitude,
                             fastEval());

    Rng rng(21);
    const isa::Kernel kernels[] = {
        ResonanceExplorer::probeLoop(plat.pool()),
        isa::Kernel::random(plat.pool(), 30, rng),
        isa::Kernel::random(plat.pool(), 30, rng),
    };
    for (const auto &k : kernels) {
        ga::EvalDetail ds, db;
        const double fs = streaming.evaluate(k, &ds);
        const double fb = batch.evaluate(k, &db);
        EXPECT_EQ(fs, fb);
        EXPECT_EQ(ds.dominant_freq_hz, db.dominant_freq_hz);
        // The streaming path buffers the one antenna window it
        // transforms; the batch path holds three whole traces.
        const std::size_t n =
            runKernelBatch(plat, k, fastEval().duration_s).em.size();
        EXPECT_EQ(ds.samples_materialized, n);
        EXPECT_LT(ds.samples_materialized, db.samples_materialized);
    }
}

TEST(StreamingFitness, ScopeMetricsAreBitIdenticalToBatch)
{
    platform::Platform plat(platform::junoA72Config(), 3);
    plat.setFrequency(560e6);
    MaxDroopFitness droop_s(plat, fastEval());
    BatchOracleFitness droop_b(plat, VirusMetric::MaxDroop,
                               fastEval());
    PeakToPeakFitness p2p_s(plat, fastEval());
    BatchOracleFitness p2p_b(plat, VirusMetric::PeakToPeak,
                             fastEval());

    Rng rng(22);
    const isa::Kernel kernels[] = {
        ResonanceExplorer::probeLoop(plat.pool()),
        isa::Kernel::random(plat.pool(), 30, rng),
    };
    for (const auto &k : kernels) {
        ga::EvalDetail ds, db;
        // The ZOH + quantize path is exact, so these must agree to
        // the last bit, not merely within 1e-9 V.
        EXPECT_EQ(droop_s.evaluate(k, &ds), droop_b.evaluate(k, &db));
        EXPECT_EQ(ds.dominant_freq_hz, db.dominant_freq_hz);
        EXPECT_LT(ds.samples_materialized, db.samples_materialized);
        EXPECT_EQ(p2p_s.evaluate(k, nullptr),
                  p2p_b.evaluate(k, nullptr));
    }
}

// ---------------------------------------------------------------
// GA: identical results across streaming/batch and thread counts.
// ---------------------------------------------------------------

/**
 * One GA search on a fresh A72, driven by the production evaluator
 * for `metric` or, with `oracle`, by the batch-trace oracle.
 */
ga::GaResult
runSearch(VirusMetric metric, bool oracle, std::size_t threads)
{
    platform::Platform plat(platform::junoA72Config(), 3);
    std::unique_ptr<ga::FitnessEvaluator> fitness;
    if (oracle)
        fitness =
            std::make_unique<BatchOracleFitness>(plat, metric, fastEval());
    else if (metric == VirusMetric::EmAmplitude)
        fitness = std::make_unique<EmAmplitudeFitness>(plat, fastEval());
    else
        fitness = std::make_unique<MaxDroopFitness>(plat, fastEval());
    ga::GaConfig cfg = fastGa();
    cfg.threads = threads;
    return ga::GaEngine(plat.pool(), cfg).run(*fitness);
}

TEST(StreamingGa, DroopSearchIdenticalAcrossModesAndThreads)
{
    const auto oracle = runSearch(VirusMetric::MaxDroop, true, 1);
    for (std::size_t threads : {1u, 2u, 8u}) {
        const auto r =
            runSearch(VirusMetric::MaxDroop, false, threads);
        EXPECT_EQ(r.best, oracle.best) << threads << " threads";
        EXPECT_EQ(r.best_fitness, oracle.best_fitness);
        EXPECT_EQ(r.estimated_lab_seconds,
                  oracle.estimated_lab_seconds);
        ASSERT_EQ(r.history.size(), oracle.history.size());
        for (std::size_t g = 0; g < r.history.size(); ++g) {
            EXPECT_EQ(r.history[g].best_fitness,
                      oracle.history[g].best_fitness);
            EXPECT_EQ(r.history[g].mean_fitness,
                      oracle.history[g].mean_fitness);
        }
    }
}

TEST(StreamingGa, EmSearchIdenticalAcrossThreadsAndNearBatch)
{
    const auto serial = runSearch(VirusMetric::EmAmplitude, false, 1);
    for (std::size_t threads : {2u, 8u}) {
        const auto r =
            runSearch(VirusMetric::EmAmplitude, false, threads);
        EXPECT_EQ(r.best, serial.best) << threads << " threads";
        EXPECT_EQ(r.best_fitness, serial.best_fitness);
    }
    // The batch oracle runs the same transform on the same window:
    // same winner and the same convergence history, bit for bit.
    const auto batch = runSearch(VirusMetric::EmAmplitude, true, 1);
    EXPECT_EQ(serial.best, batch.best);
    EXPECT_EQ(serial.best_fitness, batch.best_fitness);
    ASSERT_EQ(serial.history.size(), batch.history.size());
    for (std::size_t g = 0; g < serial.history.size(); ++g)
        EXPECT_EQ(serial.history[g].best_fitness,
                  batch.history[g].best_fitness);
}

// ---------------------------------------------------------------
// Satellite regressions: ZOH length and slice hardening.
// ---------------------------------------------------------------

TEST(TraceRegression, ZohResampleLengthIsIntegerExact)
{
    // 4 us of 1 ns samples onto the 0.25 ns PDN grid: the quotient
    // is exactly 4.0 per sample and the float-floor truncation bug
    // used to drop the final output sample.
    Trace t(1e-9);
    for (std::size_t i = 0; i < 4000; ++i)
        t.push(static_cast<double>(i));
    const Trace r = t.resampleZeroOrderHold(0.25e-9);
    EXPECT_EQ(r.size(), 16000u);
    EXPECT_EQ(r[r.size() - 1], t[t.size() - 1]);

    EXPECT_EQ(Trace::outputLengthFor(4e-6, 0.25e-9), 16000u);
    // A representative awkward ratio that rounds down in binary:
    // 0.3 / 0.1 = 2.9999999999999996 must still snap to 3.
    EXPECT_EQ(Trace::outputLengthFor(0.3, 0.1), 3u);
    // Genuinely fractional ratios still truncate.
    EXPECT_EQ(Trace::outputLengthFor(0.35, 0.1), 3u);
}

TEST(TraceRegression, SliceRejectsOutOfRangeInsteadOfWrapping)
{
    Trace t(1e-9);
    for (std::size_t i = 0; i < 10; ++i)
        t.push(static_cast<double>(i));

    const Trace ok = t.slice(2, 8);
    EXPECT_EQ(ok.size(), 8u);
    EXPECT_EQ(ok[0], 2.0);

    // start + count used to overflow size_t and wrap past the check.
    const auto huge = std::numeric_limits<std::size_t>::max();
    EXPECT_THROW((void)t.slice(2, huge), SimulationError);
    EXPECT_THROW((void)t.slice(huge, 2), SimulationError);
    EXPECT_THROW((void)t.slice(11, 0), SimulationError);
    EXPECT_NO_THROW((void)t.slice(10, 0));
}

// ---------------------------------------------------------------
// Sink building blocks.
// ---------------------------------------------------------------

TEST(SampleSinks, ZohResampleSinkMatchesTraceResample)
{
    Trace t(1e-9);
    Rng rng(5);
    for (std::size_t i = 0; i < 1000; ++i)
        t.push(rng.gaussian(0.0, 1.0));
    const Trace batch = t.resampleZeroOrderHold(0.25e-9);

    TraceSink out(0.25e-9);
    ZohResampleSink zoh(out, t.size(), t.dt(), 0.25e-9);
    EXPECT_EQ(zoh.outputSize(), batch.size());
    for (double v : t.samples())
        zoh.push(v);
    zoh.finish();
    expectTracesIdentical(out.trace(), batch);
}

TEST(SampleSinks, SliceAndMeanSinksBehave)
{
    TraceSink out(1.0);
    SliceSink slice(out, 3, 4);
    for (std::size_t i = 0; i < 10; ++i)
        slice.push(static_cast<double>(i));
    slice.finish();
    ASSERT_EQ(out.trace().size(), 4u);
    EXPECT_EQ(out.trace()[0], 3.0);
    EXPECT_EQ(out.trace()[3], 6.0);
}

// ---------------------------------------------------------------
// Property-style randomized sweeps: for seeded random stream shapes
// (lengths 0, 1, odd, and larger; awkward dt ratios) the streaming
// sinks must agree bit-wise with their batch Trace counterparts.
// ---------------------------------------------------------------

namespace {

/** Random stream length that hits the edge cases often. */
std::size_t
drawLength(Rng &rng)
{
    switch (rng.uniformInt(0, 4)) {
      case 0: return 0;
      case 1: return 1;
      case 2: return 2 * static_cast<std::size_t>(
                  rng.uniformInt(1, 40)) + 1; // odd
      default:
        return static_cast<std::size_t>(rng.uniformInt(2, 300));
    }
}

Trace
randomTrace(Rng &rng, std::size_t n, double dt)
{
    Trace t(dt);
    t.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        t.push(rng.gaussian(0.0, 1.0));
    return t;
}

} // namespace

TEST(SampleSinkProperties, ZohResampleSinkMatchesBatchOnRandomShapes)
{
    Rng rng(9001);
    for (int iter = 0; iter < 200; ++iter) {
        const std::size_t n = drawLength(rng);
        const double dt_in = rng.uniform(0.1e-9, 4e-9);
        // Mix exact-integer ratios (the historical float-floor bug)
        // with genuinely fractional ones.
        const double new_dt = rng.chance(0.5)
            ? dt_in / static_cast<double>(rng.uniformInt(1, 8))
            : rng.uniform(0.05e-9, 6e-9);

        if (n == 0) {
            TraceSink out(new_dt);
            EXPECT_THROW(ZohResampleSink(out, 0, dt_in, new_dt),
                         ConfigError)
                << "iteration " << iter;
            continue;
        }

        const Trace input = randomTrace(rng, n, dt_in);
        const Trace batch = input.resampleZeroOrderHold(new_dt);

        TraceSink out(new_dt);
        ZohResampleSink zoh(out, n, dt_in, new_dt);
        ASSERT_EQ(zoh.outputSize(), batch.size())
            << "iteration " << iter << " n=" << n
            << " dt_in=" << dt_in << " new_dt=" << new_dt;
        for (double v : input.samples())
            zoh.push(v);
        zoh.finish();
        {
            SCOPED_TRACE(::testing::Message()
                         << "iteration " << iter << " n=" << n
                         << " dt_in=" << dt_in
                         << " new_dt=" << new_dt);
            expectTracesIdentical(out.trace(), batch);
        }
    }
}

TEST(SampleSinkProperties, SliceSinkMatchesClampedBatchSlice)
{
    Rng rng(9002);
    for (int iter = 0; iter < 200; ++iter) {
        const std::size_t n = drawLength(rng);
        // Skip/count deliberately overshoot the stream about half
        // the time: SliceSink clamps where Trace::slice would throw,
        // so the oracle is the explicitly clamped slice.
        const auto skip = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(n) + 3));
        const auto count = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(n) + 3));

        const Trace input = randomTrace(rng, n, 1e-9);
        const std::size_t clamped_skip = std::min(skip, n);
        const std::size_t clamped_count =
            std::min(count, n - clamped_skip);
        const Trace batch = input.slice(clamped_skip, clamped_count);

        TraceSink out(1e-9);
        SliceSink slice(out, skip, count);
        for (double v : input.samples())
            slice.push(v);
        slice.finish();
        {
            SCOPED_TRACE(::testing::Message()
                         << "iteration " << iter << " n=" << n
                         << " skip=" << skip << " count=" << count);
            expectTracesIdentical(out.trace(), batch);
        }
    }
}

TEST(SampleSinkProperties, FanoutSinkMatchesIndividualPushes)
{
    Rng rng(9003);
    for (int iter = 0; iter < 100; ++iter) {
        const std::size_t n = drawLength(rng);
        const Trace input = randomTrace(rng, n, 1e-9);

        // Oracle: each sink fed directly; the second one sums.
        TraceSink solo_trace(1e-9);
        TraceSink solo_sum(1e-9);
        for (double v : input.samples()) {
            solo_trace.push(v);
            solo_sum.push(v);
        }
        solo_trace.finish();
        solo_sum.finish();

        // Streaming: same sinks behind a fanout with null entries
        // interleaved (permitted and skipped per the contract).
        TraceSink fan_trace(1e-9);
        TraceSink fan_sum(1e-9);
        FanoutSink fan({nullptr, &fan_trace, nullptr, &fan_sum});
        for (double v : input.samples())
            fan.push(v);
        fan.finish();

        {
            SCOPED_TRACE(::testing::Message()
                         << "iteration " << iter << " n=" << n);
            expectTracesIdentical(fan_trace.trace(),
                                  solo_trace.trace());
        }
        const auto sum = [](const Trace &t) {
            double total = 0.0;
            for (double v : t.samples())
                total += v;
            return total;
        };
        ASSERT_EQ(fan_sum.trace().size(), solo_sum.trace().size());
        ASSERT_EQ(sum(fan_sum.trace()), sum(solo_sum.trace()))
            << "iteration " << iter;
    }
}

} // namespace
} // namespace core
} // namespace emstress
