/**
 * @file
 * google-benchmark microbenchmarks for the simulation hot paths: the
 * FFT, the PDN transient step loop, the core model, the antenna
 * coupling, one full GA fitness evaluation and one V_MIN ladder row.
 * These bound the cost of a GA search (evaluations/second) and of a
 * V_MIN campaign the way measurement latency bounds the paper's
 * physical flow.
 */

#include <sys/resource.h>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/fitness.h"
#include "core/resonant_kernel.h"
#include "core/vmin_tester.h"
#include "dsp/fft.h"
#include "dsp/spectrum.h"
#include "em/antenna.h"
#include "platform/platform.h"
#include "util/rng.h"
#include "workloads/workload.h"

using namespace emstress;

namespace {

void
BM_FftReal(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(1);
    std::vector<double> sig(n);
    for (auto &v : sig)
        v = rng.uniform(-1.0, 1.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(dsp::fftReal(sig));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_FftReal)->Arg(4096)->Arg(16384)->Arg(65536);

void
BM_ComputeSpectrum(benchmark::State &state)
{
    Rng rng(2);
    Trace t(0.25e-9);
    for (int i = 0; i < 16384; ++i)
        t.push(rng.gaussian(0.0, 1.0));
    for (auto _ : state)
        benchmark::DoNotOptimize(dsp::computeSpectrum(t));
}
BENCHMARK(BM_ComputeSpectrum);

void
BM_PdnTransient(benchmark::State &state)
{
    platform::Platform a72(platform::junoA72Config(), 1);
    Rng rng(3);
    Trace load(0.25e-9);
    const auto steps = static_cast<std::size_t>(state.range(0));
    for (std::size_t i = 0; i < steps; ++i)
        load.push(0.5 + 0.5 * rng.uniform(0.0, 1.0));
    for (auto _ : state)
        benchmark::DoNotOptimize(a72.pdnModel().simulate(load));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_PdnTransient)->Arg(4000)->Arg(16000);

void
BM_CoreModelLoop(benchmark::State &state)
{
    platform::Platform a72(platform::junoA72Config(), 1);
    uarch::CoreModel core(a72.config().core);
    const auto kernel =
        core::makeResonantKernelFor(a72.pool(), 1.2e9, 67e6);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core.runLoop(a72.pool(), kernel, 1.2e9, 4e-6));
    }
}
BENCHMARK(BM_CoreModelLoop);

/**
 * The GA's population: seeded random 50-instruction kernels over the
 * EM window, on the A72 (arg 0) and the Athlon (arg 1). Unlike the
 * resonant kernel, some of them settle onto their period late or
 * never, so their cycles are stepped one by one.
 */
void
BM_CoreModelRandomKernels(benchmark::State &state)
{
    const bool athlon = state.range(0) == 1;
    platform::Platform plat(athlon ? platform::athlonConfig()
                                   : platform::junoA72Config(),
                            1);
    const uarch::CoreModel core(plat.config().core);
    std::vector<isa::Kernel> corpus;
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        Rng rng(seed);
        corpus.push_back(isa::Kernel::random(plat.pool(), 50, rng));
    }
    for (auto _ : state) {
        for (const auto &kernel : corpus)
            benchmark::DoNotOptimize(core.runLoop(
                plat.pool(), kernel, plat.frequency(), 4.5e-6));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations())
                            * static_cast<std::int64_t>(corpus.size()));
}
BENCHMARK(BM_CoreModelRandomKernels)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void
BM_AntennaReceive(benchmark::State &state)
{
    em::Antenna antenna{em::AntennaParams{}};
    Rng rng(4);
    Trace i_die(0.25e-9);
    for (int i = 0; i < 16000; ++i)
        i_die.push(rng.gaussian(1.0, 0.2));
    for (auto _ : state)
        benchmark::DoNotOptimize(antenna.receive(i_die, 0.07));
}
BENCHMARK(BM_AntennaReceive);

/** Full platform run through the streaming pipeline (trace sinks). */
void
BM_PlatformRunKernelStreaming(benchmark::State &state)
{
    platform::Platform a72(platform::junoA72Config(), 1);
    const auto kernel =
        core::makeResonantKernelFor(a72.pool(), 1.2e9, 67e6);
    for (auto _ : state)
        benchmark::DoNotOptimize(a72.runKernel(kernel, 4e-6));
}
BENCHMARK(BM_PlatformRunKernelStreaming);

/** Mean-bias pass alone (streamKernel with no observers). */
void
BM_PlatformStreamMeanPass(benchmark::State &state)
{
    platform::Platform a72(platform::junoA72Config(), 1);
    const auto kernel =
        core::makeResonantKernelFor(a72.pool(), 1.2e9, 67e6);
    for (auto _ : state) {
        benchmark::DoNotOptimize(a72.streamKernel(
            kernel, 4e-6, [](const platform::StreamPlan &) {
                return platform::StreamObservers{};
            }));
    }
}
BENCHMARK(BM_PlatformStreamMeanPass);

/**
 * One V_MIN profile row (Fig. 10 SPEC-like workload, 2 repeats): the
 * full-issue-width stream's core run, the window-only PDN run and the
 * scalar ladder.
 */
void
BM_VminProfileRow(benchmark::State &state)
{
    platform::Platform a72(platform::junoA72Config(), 1);
    core::VminTester tester(a72, core::defaultVminConfig(a72));
    const auto profile = workloads::findProfile(
        workloads::spec2006Suite(), "perlbench");
    for (auto _ : state)
        benchmark::DoNotOptimize(tester.testWorkload(profile, 2));
}
BENCHMARK(BM_VminProfileRow)->Unit(benchmark::kMillisecond);

/**
 * One V_MIN virus row: a kernel at the A72's 67 MHz resonance, 30
 * repeats per voltage point (streamed nominal run + scalar ladder).
 */
void
BM_VminResonantRow(benchmark::State &state)
{
    platform::Platform a72(platform::junoA72Config(), 1);
    core::VminTester tester(a72, core::defaultVminConfig(a72));
    const auto kernel =
        core::makeResonantKernelFor(a72.pool(), 1.2e9, 67e6);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            tester.testKernel("resonant", kernel, 30));
}
BENCHMARK(BM_VminResonantRow)->Unit(benchmark::kMillisecond);

/** Process peak RSS high-water mark in MiB. */
double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/**
 * One full EM fitness evaluation (paper budget). Besides wall time,
 * reports the full-rate samples buffered per evaluation and the
 * growth of the process peak RSS across the bench — the streamed
 * measurement should buffer only the antenna window its detector
 * transforms and leave the high-water mark where it found it.
 */
void
BM_FullEmFitnessEvaluation(benchmark::State &state)
{
    platform::Platform a72(platform::junoA72Config(), 1);
    core::EvalSettings eval;
    eval.duration_s = 4e-6;
    eval.sa_samples = 30;
    core::EmAmplitudeFitness fitness(a72, eval);
    Rng rng(5);
    const auto kernel = isa::Kernel::random(a72.pool(), 50, rng);
    const double rss_before = peakRssMib();
    ga::EvalDetail detail;
    for (auto _ : state)
        benchmark::DoNotOptimize(fitness.evaluate(kernel, &detail));
    state.counters["samples_buffered"] =
        static_cast<double>(detail.samples_materialized);
    state.counters["peak_rss_growth_mib"] = peakRssMib() - rss_before;
}
BENCHMARK(BM_FullEmFitnessEvaluation);

/** Scope-droop fitness evaluation (as above). */
void
BM_FullDroopFitnessEvaluation(benchmark::State &state)
{
    platform::Platform a72(platform::junoA72Config(), 1);
    core::EvalSettings eval;
    eval.duration_s = 4e-6;
    core::MaxDroopFitness fitness(a72, eval);
    Rng rng(6);
    const auto kernel = isa::Kernel::random(a72.pool(), 50, rng);
    const double rss_before = peakRssMib();
    ga::EvalDetail detail;
    for (auto _ : state)
        benchmark::DoNotOptimize(fitness.evaluate(kernel, &detail));
    state.counters["samples_buffered"] =
        static_cast<double>(detail.samples_materialized);
    state.counters["peak_rss_growth_mib"] = peakRssMib() - rss_before;
}
BENCHMARK(BM_FullDroopFitnessEvaluation);

} // namespace

// Expanded BENCHMARK_MAIN() so the run also emits the
// bench_out/BENCH_perf.perf_kernels.json ledger: the microbenchmark
// bodies drive the instrumented hot paths (transient steps, stream
// runs, SA band evaluations), and the PerfLog destructor snapshots
// those counters after the last repetition.
int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    bench::PerfLog perf_log("perf_kernels");
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
