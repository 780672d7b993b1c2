/**
 * @file
 * Tests for the deterministic fault-injection harness: schedule
 * purity, per-fault-point units, retry/backoff accounting in the
 * batch evaluator, and the headline guarantee — GA runs with faults
 * injected at any rate and thread count are bit-identical to
 * fault-free runs once retries succeed.
 */

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/emfi.h"
#include "core/fitness.h"
#include "core/virus_generator.h"
#include "ga/batch_evaluator.h"
#include "ga/fault_injector.h"
#include "ga/ga_engine.h"
#include "isa/kernel.h"
#include "isa/pool.h"
#include "platform/platform.h"
#include "util/error.h"
#include "util/faultpoint.h"
#include "util/rng.h"
#include "util/sample_sink.h"

namespace emstress {
namespace ga {
namespace {

constexpr FaultPoint kAllPoints[] = {
    FaultPoint::ConnectionTimeout, FaultPoint::KernelHang,
    FaultPoint::TruncatedStream,   FaultPoint::GlitchedReading,
    FaultPoint::TriggerMiss,
};

/**
 * Synthetic order-independent fitness: a pure function of the
 * kernel, cloneable, with a shared thread-safe evaluation counter
 * and fixed per-measurement accounting so stats are predictable.
 */
class SyntheticFitness : public FitnessEvaluator
{
  public:
    SyntheticFitness(const isa::InstructionPool &pool,
                     std::shared_ptr<std::atomic<int>> counter)
        : pool_(pool), counter_(std::move(counter))
    {}

    double
    evaluate(const isa::Kernel &kernel, EvalDetail *detail) override
    {
        counter_->fetch_add(1, std::memory_order_relaxed);
        const double score =
            kernel.classFraction(pool_, isa::InstrClass::SimdShort)
            + kernel.classFraction(pool_, isa::InstrClass::SimdLong);
        if (detail) {
            detail->metric_raw = score;
            detail->measurement_seconds = 1.0;
            detail->samples_materialized = 7;
        }
        return score;
    }

    std::string metricName() const override { return "synthetic"; }

    std::unique_ptr<FitnessEvaluator>
    clone() const override
    {
        return std::make_unique<SyntheticFitness>(pool_, counter_);
    }

  private:
    const isa::InstructionPool &pool_;
    std::shared_ptr<std::atomic<int>> counter_;
};

std::vector<isa::Kernel>
randomKernels(const isa::InstructionPool &pool, std::size_t n,
              std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<isa::Kernel> kernels;
    for (std::size_t i = 0; i < n; ++i)
        kernels.push_back(isa::Kernel::random(pool, 16, rng));
    return kernels;
}

GaConfig
faultGaConfig()
{
    GaConfig cfg;
    cfg.population = 16;
    cfg.generations = 12;
    cfg.kernel_length = 20;
    cfg.mutation_rate = 0.05;
    cfg.seed = 11;
    return cfg;
}

// ---------------------------------------------------------------
// FaultSchedule: pure, seeded, rate-faithful decisions.
// ---------------------------------------------------------------

TEST(FaultSchedule, DecisionIsPureInPointKeyAttemptAndSeed)
{
    const FaultSchedule sched(42, FaultRates::uniform(0.5));
    for (const FaultPoint p : kAllPoints) {
        for (std::uint64_t key = 1; key <= 64; ++key) {
            for (std::uint32_t a = 0; a < 4; ++a) {
                EXPECT_EQ(sched.fires(p, key, a),
                          sched.fires(p, key, a));
                EXPECT_DOUBLE_EQ(sched.unitDraw(p, key, a),
                                 sched.unitDraw(p, key, a));
            }
        }
    }
    // A different seed produces a different fault pattern.
    const FaultSchedule other(43, FaultRates::uniform(0.5));
    int differ = 0;
    for (std::uint64_t key = 1; key <= 256; ++key) {
        if (sched.fires(FaultPoint::KernelHang, key, 0)
            != other.fires(FaultPoint::KernelHang, key, 0))
            ++differ;
    }
    EXPECT_GT(differ, 0);
}

TEST(FaultSchedule, RateEndpointsAreExact)
{
    const FaultSchedule never(7, FaultRates::uniform(0.0));
    const FaultSchedule always(7, FaultRates::uniform(1.0));
    for (const FaultPoint p : kAllPoints) {
        for (std::uint64_t key = 1; key <= 100; ++key) {
            EXPECT_FALSE(never.fires(p, key, 0));
            EXPECT_TRUE(always.fires(p, key, 0));
        }
    }
}

TEST(FaultSchedule, FiringFrequencyTracksRate)
{
    FaultRates rates;
    rates[FaultPoint::TriggerMiss] = 0.3;
    const FaultSchedule sched(1234, rates);
    int fired = 0;
    const int n = 20000;
    for (int key = 1; key <= n; ++key)
        if (sched.fires(FaultPoint::TriggerMiss,
                        static_cast<std::uint64_t>(key), 0))
            ++fired;
    const double frac = static_cast<double>(fired) / n;
    EXPECT_NEAR(frac, 0.3, 0.02);
    // Other points stay silent at rate 0.
    EXPECT_FALSE(sched.fires(FaultPoint::KernelHang, 5, 0));
}

TEST(FaultSchedule, PointsAndAttemptsDrawIndependentStreams)
{
    const FaultSchedule sched(99, FaultRates::uniform(0.5));
    int point_differ = 0;
    int attempt_differ = 0;
    for (std::uint64_t key = 1; key <= 256; ++key) {
        if (sched.fires(FaultPoint::ConnectionTimeout, key, 0)
            != sched.fires(FaultPoint::GlitchedReading, key, 0))
            ++point_differ;
        if (sched.fires(FaultPoint::ConnectionTimeout, key, 0)
            != sched.fires(FaultPoint::ConnectionTimeout, key, 1))
            ++attempt_differ;
    }
    EXPECT_GT(point_differ, 50);
    EXPECT_GT(attempt_differ, 50);
}

TEST(FaultSchedule, RejectsRatesOutsideUnitInterval)
{
    EXPECT_THROW(FaultSchedule(1, FaultRates::uniform(1.5)),
                 ConfigError);
    EXPECT_THROW(FaultSchedule(1, FaultRates::uniform(-0.1)),
                 ConfigError);
}

TEST(FaultError, CarriesInjectionContext)
{
    const FaultError err(FaultPoint::TruncatedStream, 0xabcdef, 3,
                         2.5);
    EXPECT_EQ(err.point(), FaultPoint::TruncatedStream);
    EXPECT_EQ(err.key(), 0xabcdefull);
    EXPECT_EQ(err.attempt(), 3u);
    EXPECT_DOUBLE_EQ(err.costSeconds(), 2.5);
    EXPECT_NE(std::string(err.what()).find("truncated-stream"),
              std::string::npos);
    // Retryable faults are SimulationErrors, so legacy catch sites
    // keep working.
    EXPECT_THROW(throw FaultError(FaultPoint::KernelHang, 1, 0, 1.0),
                 SimulationError);
}

// ---------------------------------------------------------------
// TruncatingSink: modeled stream drop-out.
// ---------------------------------------------------------------

TEST(TruncatingSink, PassesPrefixThenThrows)
{
    TraceSink downstream(1e-9);
    TruncatingSink sink(downstream, 3,
                        FaultError(FaultPoint::TruncatedStream, 1, 0,
                                   0.5));
    sink.push(1.0);
    sink.push(2.0);
    sink.push(3.0);
    EXPECT_EQ(sink.delivered(), 3u);
    EXPECT_THROW(sink.push(4.0), FaultError);
    ASSERT_EQ(downstream.trace().size(), 3u);
    EXPECT_DOUBLE_EQ(downstream.trace()[2], 3.0);
}

TEST(TruncatingSink, CutoffBeyondStreamNeverFires)
{
    TraceSink downstream(1e-9);
    TruncatingSink sink(downstream, 10,
                        FaultError(FaultPoint::TruncatedStream, 1, 0,
                                   0.5));
    for (int i = 0; i < 5; ++i)
        sink.push(static_cast<double>(i));
    sink.finish();
    EXPECT_EQ(downstream.trace().size(), 5u);
}

// ---------------------------------------------------------------
// FaultInjector: throwing driver + counters.
// ---------------------------------------------------------------

TEST(FaultInjector, ThrowsPerScheduleAndCounts)
{
    FaultRates rates;
    rates[FaultPoint::KernelHang] = 1.0;
    auto inj = std::make_shared<FaultInjector>(FaultSchedule(5, rates));

    EXPECT_NO_THROW(
        inj->at(FaultPoint::ConnectionTimeout, 10, 0, 1.0));
    EXPECT_EQ(inj->totalInjected(), 0u);

    try {
        inj->at(FaultPoint::KernelHang, 10, 2, 4.5);
        FAIL() << "expected FaultError";
    } catch (const FaultError &err) {
        EXPECT_EQ(err.point(), FaultPoint::KernelHang);
        EXPECT_EQ(err.key(), 10u);
        EXPECT_EQ(err.attempt(), 2u);
        EXPECT_DOUBLE_EQ(err.costSeconds(), 4.5);
    }
    EXPECT_EQ(inj->injected(FaultPoint::KernelHang), 1u);
    EXPECT_EQ(inj->totalInjected(), 1u);
}

TEST(RetryPolicy, BackoffGrowsExponentiallyToCap)
{
    RetryPolicy policy;
    policy.backoff_s = 0.5;
    policy.backoff_factor = 2.0;
    policy.backoff_cap_s = 3.0;
    EXPECT_DOUBLE_EQ(policy.backoffFor(1), 0.5);
    EXPECT_DOUBLE_EQ(policy.backoffFor(2), 1.0);
    EXPECT_DOUBLE_EQ(policy.backoffFor(3), 2.0);
    EXPECT_DOUBLE_EQ(policy.backoffFor(4), 3.0); // capped (4.0)
    EXPECT_DOUBLE_EQ(policy.backoffFor(9), 3.0);
}

// ---------------------------------------------------------------
// BatchEvaluator: retry loop, sentinel fitness, accounting.
// ---------------------------------------------------------------

/**
 * Replay the fault schedule the way FaultyEvaluator consults it (one
 * decision per point per attempt, any hit aborts the attempt) and
 * accumulate the accounting the batch evaluator should report.
 */
struct ExpectedFaults
{
    std::size_t faults = 0;
    std::size_t retries = 0;
    std::size_t permanent = 0;
    double backoff_s = 0.0;
};

ExpectedFaults
replaySchedule(const FaultSchedule &sched, const RetryPolicy &policy,
               const std::vector<isa::Kernel> &kernels,
               std::vector<bool> *failed = nullptr)
{
    ExpectedFaults exp;
    for (const auto &kernel : kernels) {
        const std::uint64_t key = kernel.hash();
        bool ok = false;
        std::uint32_t attempt = 0;
        for (; attempt < policy.max_attempts; ++attempt) {
            const bool faulted =
                sched.fires(FaultPoint::ConnectionTimeout, key,
                            attempt)
                || sched.fires(FaultPoint::KernelHang, key, attempt)
                || sched.fires(FaultPoint::GlitchedReading, key,
                               attempt);
            if (!faulted) {
                ok = true;
                break;
            }
            ++exp.faults;
            if (attempt + 1 < policy.max_attempts) {
                ++exp.retries;
                exp.backoff_s += policy.backoffFor(attempt + 1);
            }
        }
        if (!ok)
            ++exp.permanent;
        if (failed)
            failed->push_back(!ok);
    }
    return exp;
}

TEST(BatchEvaluatorFaults, RetryAccountingMatchesScheduleReplay)
{
    const auto pool = isa::InstructionPool::armV8();
    const auto kernels = randomKernels(pool, 12, 31);
    auto counter = std::make_shared<std::atomic<int>>(0);
    SyntheticFitness base(pool, counter);

    // Fault-free reference fitness.
    std::vector<double> want(kernels.size());
    for (std::size_t i = 0; i < kernels.size(); ++i)
        want[i] = base.evaluate(kernels[i], nullptr);

    const FaultSchedule sched(77, FaultRates::uniform(0.3));
    auto inj = std::make_shared<FaultInjector>(sched);
    FaultyEvaluator faulty(base, inj);

    BatchConfig cfg;
    cfg.threads = 1;
    cfg.retry.max_attempts = 12;
    BatchEvaluator batch(faulty, cfg);

    std::vector<std::size_t> indices(kernels.size());
    for (std::size_t i = 0; i < indices.size(); ++i)
        indices[i] = i;
    std::vector<double> fit(kernels.size());
    std::vector<EvalDetail> det(kernels.size());
    const auto out = batch.evaluate(kernels, indices, fit, det);

    std::vector<bool> failed;
    const ExpectedFaults exp =
        replaySchedule(sched, cfg.retry, kernels, &failed);

    // Once retries succeed a fitness is bit-identical to the
    // fault-free evaluation; exhausted kernels score the sentinel.
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        if (failed[i])
            EXPECT_EQ(fit[i], kFailedFitness) << "kernel " << i;
        else
            EXPECT_EQ(fit[i], want[i]) << "kernel " << i;
    }

    EXPECT_GT(exp.faults, 0u);
    EXPECT_EQ(batch.stats().faults_injected, exp.faults);
    EXPECT_EQ(batch.stats().retries, exp.retries);
    EXPECT_EQ(batch.stats().permanent_failures, exp.permanent);
    EXPECT_DOUBLE_EQ(batch.stats().fault_backoff_seconds,
                     exp.backoff_s);
    EXPECT_EQ(inj->totalInjected(), exp.faults);
    // Faulted attempts and backoff are charged to the lab clock on
    // top of the successful measurements (1 s each).
    const double measured =
        static_cast<double>(kernels.size() - exp.permanent);
    EXPECT_GT(out.lab_seconds, measured + exp.backoff_s);
}

TEST(BatchEvaluatorFaults, AccountingIdenticalAcrossThreadCounts)
{
    const auto pool = isa::InstructionPool::armV8();
    const auto kernels = randomKernels(pool, 24, 47);
    std::vector<std::size_t> indices(kernels.size());
    for (std::size_t i = 0; i < indices.size(); ++i)
        indices[i] = i;

    std::vector<double> reference;
    EvalStats reference_stats;
    for (const std::size_t threads : {1u, 2u, 8u}) {
        auto counter = std::make_shared<std::atomic<int>>(0);
        SyntheticFitness base(pool, counter);
        auto inj = std::make_shared<FaultInjector>(
            FaultSchedule(123, FaultRates::uniform(0.35)));
        FaultyEvaluator faulty(base, inj);
        BatchConfig cfg;
        cfg.threads = threads;
        cfg.retry.max_attempts = 16;
        BatchEvaluator batch(faulty, cfg);

        std::vector<double> fit(kernels.size());
        std::vector<EvalDetail> det(kernels.size());
        batch.evaluate(kernels, indices, fit, det);

        if (reference.empty()) {
            reference = fit;
            reference_stats = batch.stats();
            EXPECT_GT(batch.stats().faults_injected, 0u);
            continue;
        }
        for (std::size_t i = 0; i < fit.size(); ++i)
            EXPECT_EQ(fit[i], reference[i])
                << "threads=" << threads << " kernel " << i;
        EXPECT_EQ(batch.stats().faults_injected,
                  reference_stats.faults_injected)
            << "threads=" << threads;
        EXPECT_EQ(batch.stats().retries, reference_stats.retries);
        EXPECT_EQ(batch.stats().permanent_failures,
                  reference_stats.permanent_failures);
        EXPECT_DOUBLE_EQ(batch.stats().fault_backoff_seconds,
                         reference_stats.fault_backoff_seconds);
    }
}

TEST(BatchEvaluatorFaults, ExhaustedRetriesScoreSentinelAndMemoize)
{
    const auto pool = isa::InstructionPool::armV8();
    const auto kernels = randomKernels(pool, 4, 53);
    auto counter = std::make_shared<std::atomic<int>>(0);
    SyntheticFitness base(pool, counter);

    FaultRates rates;
    rates[FaultPoint::ConnectionTimeout] = 1.0; // every attempt
    auto inj =
        std::make_shared<FaultInjector>(FaultSchedule(3, rates));
    FaultyEvaluator faulty(base, inj);

    BatchConfig cfg;
    cfg.threads = 1;
    cfg.retry.max_attempts = 3;
    BatchEvaluator batch(faulty, cfg);

    std::vector<std::size_t> indices = {0, 1, 2, 3};
    std::vector<double> fit(4, 123.0);
    std::vector<EvalDetail> det(4);
    det[0].metric_raw = 42.0;
    batch.evaluate(kernels, indices, fit, det);

    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(fit[i], kFailedFitness) << "kernel " << i;
        EXPECT_DOUBLE_EQ(det[i].metric_raw, 0.0);
        EXPECT_DOUBLE_EQ(det[i].measurement_seconds, 0.0);
    }
    EXPECT_EQ(counter->load(), 0); // base never reached
    EXPECT_EQ(batch.stats().permanent_failures, 4u);
    EXPECT_EQ(batch.stats().faults_injected, 4u * 3u);
    EXPECT_EQ(batch.stats().retries, 4u * 2u); // last fault: no retry

    // Failed genomes memoize like any other result: re-presenting
    // them costs neither simulation nor further injected faults.
    batch.evaluate(kernels, indices, fit, det);
    EXPECT_EQ(batch.stats().cache_hits, 4u);
    EXPECT_EQ(batch.stats().faults_injected, 4u * 3u);
    EXPECT_EQ(fit[0], kFailedFitness);
}

TEST(BatchEvaluatorFaults, NonFaultExceptionsPropagate)
{
    // Only FaultError is retried: a genuine simulation bug must
    // surface immediately, not be retried into silence.
    class ThrowingFitness : public FitnessEvaluator
    {
      public:
        double
        evaluate(const isa::Kernel &, EvalDetail *) override
        {
            throw SimulationError("genuine bug");
        }
        std::string metricName() const override { return "throwing"; }
    };
    const auto pool = isa::InstructionPool::armV8();
    const auto kernels = randomKernels(pool, 1, 5);
    ThrowingFitness base;
    BatchConfig cfg;
    cfg.threads = 1;
    BatchEvaluator batch(base, cfg);
    std::vector<double> fit(1);
    std::vector<EvalDetail> det(1);
    EXPECT_THROW(batch.evaluate(kernels, {0}, fit, det),
                 SimulationError);
    EXPECT_EQ(batch.stats().faults_injected, 0u);
}

// ---------------------------------------------------------------
// GA under faults: the headline bit-identity guarantee.
// ---------------------------------------------------------------

TEST(GaUnderFaults, BitIdenticalToFaultFreeRunAcrossThreadCounts)
{
    const auto pool = isa::InstructionPool::armV8();
    GaConfig cfg = faultGaConfig();
    cfg.retry.max_attempts = 30; // plenty: rate 0.25 over 3 points

    // Fault-free reference at 1 thread.
    auto ref_counter = std::make_shared<std::atomic<int>>(0);
    SyntheticFitness ref_fitness(pool, ref_counter);
    GaEngine ref_engine(pool, cfg);
    const GaResult reference = ref_engine.run(ref_fitness);

    for (const std::size_t threads : {1u, 2u, 8u}) {
        GaConfig run_cfg = cfg;
        run_cfg.threads = threads;
        auto counter = std::make_shared<std::atomic<int>>(0);
        SyntheticFitness base(pool, counter);
        auto inj = std::make_shared<FaultInjector>(
            FaultSchedule(202, FaultRates::uniform(0.25)));
        FaultyEvaluator faulty(base, inj);
        GaEngine engine(pool, run_cfg);
        const GaResult result = engine.run(faulty);

        EXPECT_EQ(result.eval_stats.permanent_failures, 0u);
        EXPECT_GT(result.eval_stats.faults_injected, 0u);
        EXPECT_EQ(result.eval_stats.faults_injected,
                  result.eval_stats.retries);

        // Identical search: same best individual, same fitness, same
        // convergence history, bit for bit.
        EXPECT_EQ(result.best_fitness, reference.best_fitness);
        EXPECT_TRUE(result.best == reference.best);
        ASSERT_EQ(result.history.size(), reference.history.size());
        for (std::size_t g = 0; g < result.history.size(); ++g) {
            EXPECT_EQ(result.history[g].best_fitness,
                      reference.history[g].best_fitness)
                << "threads=" << threads << " gen " << g;
            EXPECT_EQ(result.history[g].mean_fitness,
                      reference.history[g].mean_fitness);
            EXPECT_TRUE(result.history[g].best
                        == reference.history[g].best);
        }
        // Lab time is *not* identical by design: faulted attempts
        // and backoff waits cost modeled lab seconds.
        EXPECT_GT(result.estimated_lab_seconds,
                  reference.estimated_lab_seconds);
    }
}

TEST(GaUnderFaults, PermanentFailuresStayDeterministicAcrossThreads)
{
    // With a single attempt and a high rate, many individuals fail
    // permanently — the run must still be identical across thread
    // counts, and the sentinel must never win the search.
    const auto pool = isa::InstructionPool::armV8();
    GaConfig cfg = faultGaConfig();
    cfg.retry.max_attempts = 1;

    GaResult reference;
    bool have_reference = false;
    for (const std::size_t threads : {1u, 2u, 8u}) {
        GaConfig run_cfg = cfg;
        run_cfg.threads = threads;
        auto counter = std::make_shared<std::atomic<int>>(0);
        SyntheticFitness base(pool, counter);
        auto inj = std::make_shared<FaultInjector>(
            FaultSchedule(301, FaultRates::uniform(0.3)));
        FaultyEvaluator faulty(base, inj);
        GaEngine engine(pool, run_cfg);
        GaResult result = engine.run(faulty);

        EXPECT_GT(result.eval_stats.permanent_failures, 0u);
        EXPECT_NE(result.best_fitness, kFailedFitness);
        if (!have_reference) {
            reference = std::move(result);
            have_reference = true;
            continue;
        }
        EXPECT_EQ(result.best_fitness, reference.best_fitness);
        EXPECT_TRUE(result.best == reference.best);
        EXPECT_EQ(result.eval_stats.permanent_failures,
                  reference.eval_stats.permanent_failures);
        ASSERT_EQ(result.history.size(), reference.history.size());
        for (std::size_t g = 0; g < result.history.size(); ++g) {
            EXPECT_EQ(result.history[g].best_fitness,
                      reference.history[g].best_fitness);
            EXPECT_EQ(result.history[g].mean_fitness,
                      reference.history[g].mean_fitness);
        }
    }
}

TEST(GaUnderFaults, EvalStatsSurfaceSamplesMaterialized)
{
    // Regression: runSingle once copied eval stats field by field and
    // dropped samples_materialized; it must survive into GaResult.
    const auto pool = isa::InstructionPool::armV8();
    auto counter = std::make_shared<std::atomic<int>>(0);
    SyntheticFitness fitness(pool, counter);
    GaEngine engine(pool, faultGaConfig());
    const GaResult result = engine.run(fitness);
    EXPECT_EQ(result.eval_stats.samples_materialized,
              result.eval_stats.evals * 7u);
}

// ---------------------------------------------------------------
// Platform fitness under faults: stream truncation unwinds
// Platform::streamKernel and the retry is bit-identical.
// ---------------------------------------------------------------

TEST(PlatformFaults, TruncatedStreamRetriesBitIdentically)
{
    platform::Platform plat(platform::junoA72Config(), 3);
    core::EvalSettings eval;
    eval.duration_s = 2e-6;
    eval.sa_samples = 3;
    const auto kernels = randomKernels(plat.pool(), 3, 71);

    core::EmAmplitudeFitness clean(plat, eval);
    std::vector<double> want(kernels.size());
    for (std::size_t i = 0; i < kernels.size(); ++i)
        want[i] = clean.evaluate(kernels[i], nullptr);

    core::EmAmplitudeFitness faulted(plat, eval);
    FaultRates rates;
    rates[FaultPoint::TruncatedStream] = 0.7;
    auto inj =
        std::make_shared<FaultInjector>(FaultSchedule(88, rates));
    faulted.setFaultInjector(inj);
    BatchConfig cfg;
    cfg.threads = 1;
    cfg.retry.max_attempts = 25;
    BatchEvaluator batch(faulted, cfg);

    std::vector<double> fit(kernels.size());
    std::vector<EvalDetail> det(kernels.size());
    batch.evaluate(kernels, {0, 1, 2}, fit, det);

    // Streams really were cut mid-capture (unwinding streamKernel),
    // yet the retried evaluations match the uninterrupted ones bit
    // for bit.
    EXPECT_GT(inj->injected(FaultPoint::TruncatedStream), 0u);
    EXPECT_EQ(batch.stats().permanent_failures, 0u);
    for (std::size_t i = 0; i < kernels.size(); ++i)
        EXPECT_EQ(fit[i], want[i]) << "kernel " << i;
}

TEST(PlatformFaults, ScopeTriggerMissRetriesBitIdentically)
{
    platform::Platform plat(platform::junoA72Config(), 3);
    core::EvalSettings eval;
    eval.duration_s = 2e-6;
    const auto kernels = randomKernels(plat.pool(), 3, 73);

    core::MaxDroopFitness clean(plat, eval);
    std::vector<double> want(kernels.size());
    for (std::size_t i = 0; i < kernels.size(); ++i)
        want[i] = clean.evaluate(kernels[i], nullptr);

    core::MaxDroopFitness faulted(plat, eval);
    FaultRates rates;
    rates[FaultPoint::TriggerMiss] = 0.6;
    rates[FaultPoint::TruncatedStream] = 0.4;
    auto inj =
        std::make_shared<FaultInjector>(FaultSchedule(89, rates));
    faulted.setFaultInjector(inj);
    BatchConfig cfg;
    cfg.threads = 1;
    cfg.retry.max_attempts = 25;
    BatchEvaluator batch(faulted, cfg);

    std::vector<double> fit(kernels.size());
    std::vector<EvalDetail> det(kernels.size());
    batch.evaluate(kernels, {0, 1, 2}, fit, det);

    EXPECT_GT(inj->totalInjected(), 0u);
    EXPECT_EQ(batch.stats().permanent_failures, 0u);
    for (std::size_t i = 0; i < kernels.size(); ++i)
        EXPECT_EQ(fit[i], want[i]) << "kernel " << i;
}

// ---------------------------------------------------------------
// Full stack: virus search with an injected-fault lab link.
// ---------------------------------------------------------------

TEST(VirusSearchFaults, FaultedSearchMatchesFaultFreeAcrossThreads)
{
    platform::Platform plat(platform::junoA72Config(), 3);
    core::VirusGenerator gen(plat);

    core::VirusSearchConfig cfg;
    cfg.ga.population = 8;
    cfg.ga.generations = 4;
    cfg.ga.kernel_length = 20;
    cfg.ga.seed = 5;
    cfg.eval.duration_s = 2e-6;
    cfg.eval.sa_samples = 3;
    const auto reference = gen.search(cfg);
    EXPECT_EQ(reference.ga.eval_stats.faults_injected, 0u);

    for (const std::size_t threads : {1u, 2u, 8u}) {
        core::VirusSearchConfig faulted = cfg;
        faulted.ga.threads = threads;
        faulted.ga.retry.max_attempts = 30;
        faulted.faults = std::make_shared<FaultInjector>(
            FaultSchedule(7, FaultRates::uniform(0.15)));
        const auto report = gen.search(faulted);

        EXPECT_GT(report.ga.eval_stats.faults_injected, 0u)
            << "threads=" << threads;
        EXPECT_EQ(report.ga.eval_stats.permanent_failures, 0u);
        EXPECT_TRUE(report.virus == reference.virus);
        EXPECT_EQ(report.ga.best_fitness, reference.ga.best_fitness);
        EXPECT_EQ(report.dominant_freq_hz,
                  reference.dominant_freq_hz);
        ASSERT_EQ(report.ga.history.size(),
                  reference.ga.history.size());
        for (std::size_t g = 0; g < report.ga.history.size(); ++g) {
            EXPECT_EQ(report.ga.history[g].best_fitness,
                      reference.ga.history[g].best_fitness)
                << "threads=" << threads << " gen " << g;
        }
        EXPECT_GT(report.ga.estimated_lab_seconds,
                  reference.ga.estimated_lab_seconds);
    }
}

// ---------------------------------------------------------------
// Cancellation: drains, never poisons (BatchEvaluator guarantee 5).
// ---------------------------------------------------------------

/**
 * Evaluator that fires a shared cancel flag after a fixed number of
 * evaluations — a deterministic stand-in for a tenant cancelling a
 * job while its generation is mid-batch.
 */
class SelfCancellingFitness : public FitnessEvaluator
{
  public:
    SelfCancellingFitness(const isa::InstructionPool &pool,
                          std::shared_ptr<std::atomic<bool>> flag,
                          int fire_after)
        : inner_(pool, std::make_shared<std::atomic<int>>(0)),
          flag_(std::move(flag)), fire_after_(fire_after)
    {}

    double
    evaluate(const isa::Kernel &kernel, EvalDetail *detail) override
    {
        const double score = inner_.evaluate(kernel, detail);
        if (++count_ >= fire_after_)
            flag_->store(true, std::memory_order_relaxed);
        return score;
    }

    std::string metricName() const override { return "cancelling"; }

  private:
    SyntheticFitness inner_;
    std::shared_ptr<std::atomic<bool>> flag_;
    int fire_after_;
    int count_ = 0;
};

TEST(Cancellation, DrainedTasksAreNeverScoredCachedOrFaultCounted)
{
    const auto pool = isa::InstructionPool::armV8();
    const auto kernels = randomKernels(pool, 12, 77);
    const auto flag = makeCancelFlag();

    SelfCancellingFitness evaluator(pool, flag, /*fire_after=*/5);
    BatchConfig cfg;
    cfg.threads = 1; // serial: the cancellation point is exact
    cfg.cancel = flag;
    BatchEvaluator batch(evaluator, cfg);

    constexpr double kUntouched = 123.25;
    std::vector<double> fitness(kernels.size(), kUntouched);
    std::vector<EvalDetail> details(kernels.size());
    std::vector<std::size_t> indices(kernels.size());
    for (std::size_t i = 0; i < indices.size(); ++i)
        indices[i] = i;

    const auto outcome =
        batch.evaluate(kernels, indices, fitness, details);

    // Five evaluations ran, the rest drained.
    EXPECT_TRUE(batch.cancelled());
    EXPECT_EQ(outcome.fresh, 5u);
    EXPECT_EQ(outcome.cancelled, kernels.size() - 5u);

    // Drained slots are untouched — in particular they are NOT the
    // kFailedFitness sentinel, so cancellation can never masquerade
    // as permanent measurement failure.
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        if (i < 5)
            EXPECT_NE(fitness[i], kUntouched) << "slot " << i;
        else
            EXPECT_EQ(fitness[i], kUntouched) << "slot " << i;
    }

    // Nothing drained was cached, and fault accounting is clean.
    EXPECT_EQ(batch.cacheSize(), 5u);
    EXPECT_EQ(batch.stats().tasks_cancelled, kernels.size() - 5u);
    EXPECT_EQ(batch.stats().permanent_failures, 0u);
    EXPECT_EQ(batch.stats().faults_injected, 0u);
    EXPECT_EQ(batch.stats().evals, 5u);
}

TEST(Cancellation, CancelledFaultingBatchKeepsSentinelAccountingClean)
{
    const auto pool = isa::InstructionPool::armV8();
    const auto kernels = randomKernels(pool, 10, 99);
    const auto flag = makeCancelFlag();

    // Faults fire on every first attempt; retries would normally
    // succeed. Cancelling before the batch starts must drain every
    // task without charging a single fault, retry or failure.
    auto counter = std::make_shared<std::atomic<int>>(0);
    SyntheticFitness base(pool, counter);
    auto inj = std::make_shared<FaultInjector>(
        FaultSchedule(13, FaultRates::uniform(0.3)));
    FaultyEvaluator faulty(base, inj);

    BatchConfig cfg;
    cfg.threads = 1;
    cfg.cancel = flag;
    BatchEvaluator batch(faulty, cfg);
    flag->store(true, std::memory_order_relaxed);

    std::vector<double> fitness(kernels.size(), 0.0);
    std::vector<EvalDetail> details(kernels.size());
    std::vector<std::size_t> indices(kernels.size());
    for (std::size_t i = 0; i < indices.size(); ++i)
        indices[i] = i;
    const auto outcome =
        batch.evaluate(kernels, indices, fitness, details);

    EXPECT_EQ(outcome.fresh, 0u);
    EXPECT_EQ(outcome.cancelled, kernels.size());
    EXPECT_EQ(outcome.lab_seconds, 0.0);
    EXPECT_EQ(counter->load(), 0);
    EXPECT_EQ(batch.cacheSize(), 0u);
    EXPECT_EQ(batch.stats().faults_injected, 0u);
    EXPECT_EQ(batch.stats().retries, 0u);
    EXPECT_EQ(batch.stats().permanent_failures, 0u);
    EXPECT_EQ(batch.stats().tasks_cancelled, kernels.size());
    for (const double f : fitness)
        EXPECT_NE(f, kFailedFitness);
}

TEST(Cancellation, CancelledGenerationIsNeverRecorded)
{
    // GA level: a stepper whose batch is cancelled mid-generation
    // reports done() without recording the poisoned generation.
    const auto pool = isa::InstructionPool::armV8();
    const auto flag = makeCancelFlag();
    SelfCancellingFitness evaluator(pool, flag, /*fire_after=*/20);

    GaConfig cfg = faultGaConfig();
    cfg.population = 12;
    cfg.generations = 10;
    BatchHooks hooks;
    hooks.cancel = flag;
    GaStepper stepper(pool, cfg, evaluator, {}, hooks);

    std::size_t recorded = 0;
    while (!stepper.done()) {
        if (stepper.step() != nullptr)
            ++recorded;
    }
    EXPECT_TRUE(stepper.cancelled());
    // Generation 0 evaluated 12 fresh kernels; the flag fired during
    // generation 1, which therefore was never recorded.
    EXPECT_EQ(recorded, 1u);
    const GaResult result = stepper.finish();
    EXPECT_EQ(result.history.size(), recorded);
    EXPECT_GT(result.eval_stats.tasks_cancelled, 0u);
    EXPECT_EQ(result.eval_stats.permanent_failures, 0u);
}

TEST(EmfiReplay, SearchReplaysBitIdenticallyFromRecordedSeeds)
{
    // The EMFI campaign's determinism contract: everything a search
    // produced — fault event logs, digests, the winning pulse — is a
    // pure function of the recorded (GA seed, schedule seed), so a
    // fresh platform instance replays it bit for bit.
    core::EmfiCampaignSpec spec;
    platform::Platform first_plat(platform::junoA72Config(), 3);
    Rng victim_rng(7);
    spec.victim =
        isa::Kernel::random(first_plat.pool(), 8, victim_rng);
    spec.target_slot = 3;
    spec.eval.duration_s = 1e-6;
    spec.grid.t0_max_s = 0.8e-6;
    spec.effects.schedule_seed = 21;
    GaConfig cfg;
    cfg.population = 10;
    cfg.generations = 8;
    cfg.seed = 11;

    const core::EmfiSearchResult first =
        core::searchMinimalPulse(first_plat, spec, cfg);
    ASSERT_TRUE(first.best_outcome.target_faulted);
    ASSERT_FALSE(first.best_outcome.report.events.empty());

    platform::Platform replay_plat(platform::junoA72Config(), 3);
    const core::EmfiSearchResult replay =
        core::searchMinimalPulse(replay_plat, spec, cfg);

    EXPECT_TRUE(replay.ga.best == first.ga.best);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(replay.ga.best_fitness),
              std::bit_cast<std::uint64_t>(first.ga.best_fitness));
    EXPECT_EQ(
        std::bit_cast<std::uint64_t>(replay.best_pulse.amplitude_a),
        std::bit_cast<std::uint64_t>(first.best_pulse.amplitude_a));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(replay.best_pulse.t0_s),
              std::bit_cast<std::uint64_t>(first.best_pulse.t0_s));

    const vmin::FaultReport &fa = first.best_outcome.report;
    const vmin::FaultReport &fb = replay.best_outcome.report;
    ASSERT_EQ(fa.events.size(), fb.events.size());
    for (std::size_t i = 0; i < fa.events.size(); ++i)
        EXPECT_TRUE(fa.events[i] == fb.events[i]) << "event " << i;
    EXPECT_EQ(fa.golden_digest, fb.golden_digest);
    EXPECT_EQ(fa.faulted_digest, fb.faulted_digest);
    EXPECT_EQ(fa.sites_crossed, fb.sites_crossed);
}

} // namespace
} // namespace ga
} // namespace emstress
