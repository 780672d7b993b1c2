/**
 * @file
 * Unit tests for the util layer: units, stats, rng, trace, table,
 * worker fleet.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/trace.h"
#include "util/units.h"
#include "util/worker_fleet.h"

namespace emstress {
namespace {

TEST(Units, DbConversionsRoundTrip)
{
    EXPECT_NEAR(powerRatioToDb(10.0), 10.0, 1e-12);
    EXPECT_NEAR(powerRatioToDb(100.0), 20.0, 1e-12);
    EXPECT_NEAR(dbToPowerRatio(powerRatioToDb(3.7)), 3.7, 1e-12);
    EXPECT_NEAR(wattsToDbm(1e-3), 0.0, 1e-12);
    EXPECT_NEAR(wattsToDbm(1.0), 30.0, 1e-12);
    EXPECT_NEAR(dbmToWatts(wattsToDbm(2.5e-6)), 2.5e-6, 1e-18);
}

TEST(Units, MultiplierHelpers)
{
    EXPECT_DOUBLE_EQ(mega(67.0), 67e6);
    EXPECT_DOUBLE_EQ(nano(0.14), 0.14e-9);
    EXPECT_DOUBLE_EQ(milli(10.0), 0.01);
}

TEST(Units, LcResonanceInverses)
{
    const double l = nano(0.14);
    const double c = nano(40.0);
    const double f = lcResonanceHz(l, c);
    EXPECT_NEAR(inductanceForResonance(f, c), l, l * 1e-9);
    EXPECT_NEAR(capacitanceForResonance(f, l), c, c * 1e-9);
}

TEST(Units, LcResonanceKnownValue)
{
    // 1 uH with 1 uF resonates at ~159.155 kHz.
    EXPECT_NEAR(lcResonanceHz(1e-6, 1e-6), 159154.9, 0.5);
}

TEST(Units, VoltsRmsToWatts)
{
    EXPECT_NEAR(voltsRmsToWatts(1.0, 50.0), 0.02, 1e-12);
}

TEST(Stats, BasicMoments)
{
    const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(stats::mean(xs), 2.5);
    EXPECT_NEAR(stats::variance(xs), 1.25, 1e-12);
    EXPECT_NEAR(stats::rms(xs), std::sqrt(7.5), 1e-12);
    EXPECT_DOUBLE_EQ(stats::minimum(xs), 1.0);
    EXPECT_DOUBLE_EQ(stats::maximum(xs), 4.0);
    EXPECT_DOUBLE_EQ(stats::peakToPeak(xs), 3.0);
}

TEST(Stats, Percentile)
{
    const std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
    EXPECT_DOUBLE_EQ(stats::percentile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(stats::percentile(xs, 100.0), 5.0);
    EXPECT_DOUBLE_EQ(stats::percentile(xs, 50.0), 3.0);
    EXPECT_THROW((void)stats::percentile(xs, 101.0), ConfigError);
}

TEST(Stats, PercentileSortedBitExactWithPercentile)
{
    // percentile() is now a sort-then-delegate wrapper around
    // percentileSorted(); the two must agree to the last bit so
    // call sites can convert to sort-once without changing any
    // recorded result.
    Rng rng(314);
    std::vector<double> xs;
    for (int i = 0; i < 257; ++i)
        xs.push_back(rng.gaussian(0.0, 5.0));
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    for (const double p :
         {0.0, 1.0, 3.7, 25.0, 50.0, 75.0, 97.3, 99.0, 100.0}) {
        const double via_wrapper = stats::percentile(xs, p);
        const double via_sorted = stats::percentileSorted(sorted, p);
        // Bit-exact, not approximately equal.
        EXPECT_EQ(via_wrapper, via_sorted) << "p = " << p;
    }
}

TEST(Stats, PercentileSortedValidatesInput)
{
    const std::vector<double> sorted = {1.0, 2.0, 3.0};
    EXPECT_THROW((void)stats::percentileSorted(sorted, -1.0),
                 ConfigError);
    EXPECT_THROW((void)stats::percentileSorted({}, 50.0),
                 SimulationError);
#ifndef NDEBUG
    // Debug builds verify sortedness; release builds skip the O(n)
    // check (that is the point of the function).
    const std::vector<double> unsorted = {3.0, 1.0, 2.0};
    EXPECT_THROW((void)stats::percentileSorted(unsorted, 50.0),
                 SimulationError);
#endif
}

TEST(Stats, EmptySpanThrows)
{
    const std::vector<double> xs;
    EXPECT_THROW((void)stats::mean(xs), SimulationError);
    EXPECT_THROW((void)stats::rms(xs), SimulationError);
    EXPECT_THROW((void)stats::peakToPeak(xs), SimulationError);
}

TEST(Stats, RunningMatchesBatch)
{
    Rng rng(42);
    std::vector<double> xs;
    stats::Running run;
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.gaussian(3.0, 2.0);
        xs.push_back(v);
        run.add(v);
    }
    EXPECT_NEAR(run.mean(), stats::mean(xs), 1e-9);
    EXPECT_NEAR(run.variance(), stats::variance(xs), 1e-9);
    EXPECT_DOUBLE_EQ(run.minimum(), stats::minimum(xs));
    EXPECT_DOUBLE_EQ(run.maximum(), stats::maximum(xs));
    EXPECT_EQ(run.count(), 1000u);
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(7), b(8);
    bool any_diff = false;
    for (int i = 0; i < 10; ++i)
        any_diff |= a.uniform(0.0, 1.0) != b.uniform(0.0, 1.0);
    EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformIntRange)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const int v = rng.uniformInt(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
    }
}

TEST(Rng, ChanceBoundaries)
{
    Rng rng(1);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, ForkIndependence)
{
    Rng a(7);
    Rng child = a.fork();
    // Child stream should not replay the parent stream.
    Rng b(7);
    (void)b.uniform(0.0, 1.0); // advance as fork() did
    bool differs = false;
    for (int i = 0; i < 10; ++i)
        differs |= child.uniform(0.0, 1.0) != b.uniform(0.0, 1.0);
    EXPECT_TRUE(differs);
}

TEST(Trace, BasicAccessors)
{
    Trace t({1.0, 2.0, 3.0}, 0.5);
    EXPECT_EQ(t.size(), 3u);
    EXPECT_DOUBLE_EQ(t.dt(), 0.5);
    EXPECT_DOUBLE_EQ(t.sampleRate(), 2.0);
    EXPECT_DOUBLE_EQ(t.duration(), 1.5);
    EXPECT_DOUBLE_EQ(t.timeAt(2), 1.0);
    EXPECT_DOUBLE_EQ(t[1], 2.0);
}

TEST(Trace, InvalidDtThrows)
{
    EXPECT_THROW(Trace t(0.0), ConfigError);
    EXPECT_THROW(Trace t(-1.0), ConfigError);
}

TEST(Trace, Slice)
{
    Trace t({0.0, 1.0, 2.0, 3.0, 4.0}, 1.0);
    const Trace s = t.slice(1, 3);
    ASSERT_EQ(s.size(), 3u);
    EXPECT_DOUBLE_EQ(s[0], 1.0);
    EXPECT_DOUBLE_EQ(s[2], 3.0);
    EXPECT_THROW((void)t.slice(3, 5), SimulationError);
}

TEST(Trace, ResampleZeroOrderHoldUpsamples)
{
    Trace t({1.0, 2.0}, 1.0);
    const Trace u = t.resampleZeroOrderHold(0.25);
    ASSERT_EQ(u.size(), 8u);
    EXPECT_DOUBLE_EQ(u[0], 1.0);
    EXPECT_DOUBLE_EQ(u[3], 1.0);
    EXPECT_DOUBLE_EQ(u[4], 2.0);
    EXPECT_DOUBLE_EQ(u[7], 2.0);
    EXPECT_DOUBLE_EQ(u.dt(), 0.25);
}

TEST(Trace, ResamplePreservesDuration)
{
    Trace t(std::vector<double>(1000, 1.5), 1e-9);
    const Trace u = t.resampleZeroOrderHold(0.25e-9);
    EXPECT_NEAR(u.duration(), t.duration(), 1e-12);
}

TEST(Table, TextAndCsvRendering)
{
    Table t({"name", "value"});
    t.row().cell("alpha").cell(1.5, 1);
    t.row().cell("b,eta").cell(2.25, 2);
    const std::string text = t.toText();
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("1.5"), std::string::npos);
    const std::string csv = t.toCsv();
    EXPECT_NE(csv.find("\"b,eta\""), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, CellBeforeRowThrows)
{
    Table t({"x"});
    EXPECT_THROW(t.cell("v"), SimulationError);
}

TEST(Table, NeedsAtLeastOneColumn)
{
    EXPECT_THROW(Table t({}), ConfigError);
}

TEST(Table, CsvEscapesQuotesAndNewlines)
{
    Table t({"a"});
    t.row().cell("say \"hi\"\nthere");
    const std::string csv = t.toCsv();
    EXPECT_NE(csv.find("\"say \"\"hi\"\"\nthere\""),
              std::string::npos);
}

// Cross-host canary: the first draws of every Rng method and of a
// CounterRng cell for fixed seeds, bit for bit. The engine's output
// sequence is fixed by the standard and every draw algorithm lives
// in util/rng.h, so these hold on any conforming toolchain; a
// mismatch means results are no longer comparable across hosts (or
// that a draw changed, which must bump kNoiseModelVersion). The Rng
// values are also what std::uniform_real/uniform_int/normal/
// bernoulli_distribution draw under libstdc++, whose algorithms Rng
// reproduces so that earlier stream realizations are kept.
TEST(RngCanary, EngineWords)
{
    Rng rng(2024);
    EXPECT_EQ(rng.bits(), 0x9cd8e4f4abe59236ull);
    EXPECT_EQ(rng.bits(), 0xcb72831a7ae6db81ull);
    EXPECT_EQ(rng.bits(), 0x44021b39b1bc6335ull);
    EXPECT_EQ(rng.bits(), 0x559480035c988e9aull);
}

TEST(RngCanary, UniformDraws)
{
    Rng rng(2024);
    EXPECT_EQ(rng.uniform(-1.0, 3.0), 0x1.736393d2af964p+0);
    EXPECT_EQ(rng.uniform(-1.0, 3.0), 0x1.16e50634f5cdbp+1);
    EXPECT_EQ(rng.uniform(-1.0, 3.0), 0x1.0086ce6c6f19p-4);
    EXPECT_EQ(rng.uniform(-1.0, 3.0), 0x1.59480035c989p-2);
}

TEST(RngCanary, BoundedIntegerDraws)
{
    Rng ints(2024);
    for (const int want : {9, 13, 1, 2, -5, -2, 16, 8})
        EXPECT_EQ(ints.uniformInt(-5, 17), want);
    Rng idx(2024);
    for (const std::size_t want :
         {612686u, 794718u, 265657u, 334298u, 6194u, 140206u, 936453u,
          566821u})
        EXPECT_EQ(idx.index(1000003), want);
}

TEST(RngCanary, GaussianDraws)
{
    Rng rng(2024);
    EXPECT_EQ(rng.gaussian(1.0, 2.0), 0x1.c47c891d355edp+1);
    EXPECT_EQ(rng.gaussian(1.0, 2.0), -0x1.70f1d684b7c8ap-1);
    EXPECT_EQ(rng.gaussian(1.0, 2.0), 0x1.36a5664f2e908p+0);
    EXPECT_EQ(rng.gaussian(1.0, 2.0), 0x1.66c8b40ef11e9p+0);
}

TEST(RngCanary, ChanceAndForkDraws)
{
    Rng rng(2024);
    std::string coins;
    for (int i = 0; i < 16; ++i)
        coins += rng.chance(0.3) ? '1' : '0';
    EXPECT_EQ(coins, "0010110010000011");

    Rng parent(2024);
    Rng child = parent.fork();
    EXPECT_EQ(child.uniform(0.0, 1.0), 0x1.2475c0ee4573dp-1);
    EXPECT_EQ(child.uniform(0.0, 1.0), 0x1.56b36852b5eaap-3);
}

TEST(RngCanary, CounterCellDraws)
{
    CounterRng::Cell cell = CounterRng(2024).cell(3, 517);
    EXPECT_EQ(cell.next(), 0xd23619facb6d2edbull);
    const auto z = cell.normalPair();
    EXPECT_EQ(z[0], 0x1.b05506bf1e05bp-1);
    EXPECT_EQ(z[1], -0x1.a3673a0aec4e1p-2);
    EXPECT_EQ(cell.exponential(), 0x1.b6a16f7bf2c5bp+0);
}

TEST(RngCanary, StringHashValues)
{
    // Every tail length (0-7 bytes past the last whole word) and a
    // two-word input. These are libstdc++'s 64-bit std::hash values,
    // which stringHash restates portably.
    EXPECT_EQ(stringHash(""), 0x553e93901e462a6eull);
    EXPECT_EQ(stringHash("a"), 0x454ddee488c1ed6bull);
    EXPECT_EQ(stringHash("resonant"), 0x795037db26062694ull);
    EXPECT_EQ(stringHash("perlbench"), 0x0c79c62472261c1full);
    EXPECT_EQ(stringHash("probe-virus"), 0x7ca0ec34a39f0ac4ull);
    EXPECT_EQ(stringHash("0123456789abcdef"), 0x934b0d760642ed86ull);
    // Bytes above 0x7f load unsigned.
    EXPECT_NE(stringHash("\xff"), stringHash("\x7f"));
}

TEST(StringHash, MatchesLibstdcxxStdHash)
{
#ifdef __GLIBCXX__
    if constexpr (sizeof(std::size_t) == 8) {
        Rng rng(7);
        for (int i = 0; i < 20000; ++i) {
            std::string s(rng.index(40), '\0');
            for (char &c : s)
                c = static_cast<char>(rng.uniformInt(0, 255));
            ASSERT_EQ(stringHash(s), std::hash<std::string>{}(s))
                << "length " << s.size();
        }
    }
#else
    GTEST_SKIP() << "std::hash is libstdc++'s only under libstdc++";
#endif
}

TEST(CounterRng, CellsArePureFunctionsOfKeyAndCounter)
{
    const CounterRng noise(99);
    // Draw order and interleaving do not matter: a cell replays.
    CounterRng::Cell a = noise.cell(4, 10);
    (void)noise.cell(4, 11).next();
    (void)noise.cell(5, 10).next();
    CounterRng::Cell b = noise.cell(4, 10);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(a.next(), b.next());
    // Neighbouring counters and keys draw different words.
    const std::uint64_t w = noise.cell(4, 10).next();
    EXPECT_NE(noise.cell(4, 11).next(), w);
    EXPECT_NE(noise.cell(5, 10).next(), w);
    EXPECT_NE(noise.cell(10, 4).next(), w);
    EXPECT_NE(CounterRng(100).cell(4, 10).next(), w);
}

/** Mean and (population) variance of n draws of fn. */
template <typename Fn>
std::pair<double, double>
moments(int n, Fn fn)
{
    stats::Running run;
    for (int i = 0; i < n; ++i)
        run.add(fn(i));
    return {run.mean(), run.variance()};
}

TEST(RngStatistics, KeyedNormalsAreStandard)
{
    // 1e5 draws: the mean's standard error is 0.0032 and the
    // variance's 0.0045, so the bounds sit at about 6 sigma.
    const CounterRng noise(0x5eed);
    const auto [mean0, var0] = moments(100000, [&](int i) {
        return noise.cell(0, static_cast<std::uint64_t>(i))
            .normalPair()[0];
    });
    EXPECT_NEAR(mean0, 0.0, 0.02);
    EXPECT_NEAR(var0, 1.0, 0.03);
    const auto [mean1, var1] = moments(100000, [&](int i) {
        return noise.cell(1, static_cast<std::uint64_t>(i))
            .normalPair()[1];
    });
    EXPECT_NEAR(mean1, 0.0, 0.02);
    EXPECT_NEAR(var1, 1.0, 0.03);
}

TEST(RngStatistics, KeyedExponentialsHaveUnitMean)
{
    const CounterRng noise(0x5eed);
    const auto [mean, var] = moments(100000, [&](int i) {
        return noise.cell(2, static_cast<std::uint64_t>(i))
            .exponential();
    });
    EXPECT_NEAR(mean, 1.0, 0.02);
    EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngStatistics, StreamDrawsMatchTheirDistributions)
{
    Rng rng(0x5eed);
    const auto [g_mean, g_var] =
        moments(100000, [&](int) { return rng.gaussian(2.0, 3.0); });
    EXPECT_NEAR(g_mean, 2.0, 0.06);
    EXPECT_NEAR(g_var, 9.0, 0.27);
    const auto [u_mean, u_var] =
        moments(100000, [&](int) { return rng.uniform(-1.0, 1.0); });
    EXPECT_NEAR(u_mean, 0.0, 0.02);
    EXPECT_NEAR(u_var, 1.0 / 3.0, 0.01);

    // Lemire bounded integers: each of 10 buckets within 5 sigma.
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[rng.index(10)];
    for (const int c : counts)
        EXPECT_NEAR(c, 10000, 500);
}

TEST(Rng, PickReturnsElementFromSpan)
{
    Rng rng(3);
    const std::vector<int> items = {10, 20, 30};
    for (int i = 0; i < 50; ++i) {
        const int v = rng.pick(std::span<const int>(items));
        EXPECT_TRUE(v == 10 || v == 20 || v == 30);
    }
}

TEST(Rng, IndexOfEmptyRangeThrows)
{
    Rng rng(3);
    EXPECT_THROW((void)rng.index(0), SimulationError);
}

TEST(Trace, SliceAtExactEndIsAllowed)
{
    Trace t({1.0, 2.0, 3.0}, 1.0);
    const Trace s = t.slice(1, 2);
    EXPECT_EQ(s.size(), 2u);
    const Trace whole = t.slice(0, 3);
    EXPECT_EQ(whole.size(), 3u);
    const Trace empty = t.slice(3, 0);
    EXPECT_TRUE(empty.empty());
}

TEST(WorkerFleet, RunVisitsEveryIndexOnce)
{
    WorkerFleet fleet(4);
    std::vector<std::atomic<int>> visits(257);
    const auto out =
        fleet.run(visits.size(), [&](std::size_t i, std::size_t worker) {
            EXPECT_LT(worker, 4u);
            visits[i].fetch_add(1);
        });
    EXPECT_EQ(out.executed, visits.size());
    EXPECT_EQ(out.skipped, 0u);
    for (const auto &v : visits)
        EXPECT_EQ(v.load(), 1);
}

TEST(WorkerFleet, ReusableAcrossBatches)
{
    WorkerFleet fleet(3);
    std::atomic<long> sum{0};
    for (int job = 0; job < 20; ++job)
        fleet.run(100, [&](std::size_t i, std::size_t) {
            sum.fetch_add(static_cast<long>(i));
        });
    EXPECT_EQ(sum.load(), 20L * (99L * 100L / 2L));
}

TEST(WorkerFleet, PropagatesFirstException)
{
    WorkerFleet fleet(2);
    EXPECT_THROW(fleet.run(64,
                           [](std::size_t i, std::size_t) {
                               if (i == 13)
                                   throw std::runtime_error("boom");
                           }),
                 std::runtime_error);
    // And the fleet survives for the next batch.
    std::atomic<int> count{0};
    fleet.run(8, [&](std::size_t, std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 8);
}

TEST(WorkerFleet, ExceptionDoesNotAbandonRemainingItems)
{
    // The first exception is rethrown, but every other index must
    // still run: the GA's batch evaluator relies on a thrown task
    // not silently dropping its neighbours' results.
    WorkerFleet fleet(4);
    std::vector<std::atomic<int>> visits(97);
    EXPECT_THROW(fleet.run(visits.size(),
                           [&](std::size_t i, std::size_t) {
                               visits[i].fetch_add(1);
                               if (i == 5)
                                   throw std::runtime_error("boom");
                           }),
                 std::runtime_error);
    for (std::size_t i = 0; i < visits.size(); ++i)
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(WorkerFleet, NestedRunThrows)
{
    // A task that calls back into its own fleet must get a
    // SimulationError, which then propagates to the outer call like
    // any task exception. One outer task on two workers: without the
    // check the idle worker would serve the nested batch and the
    // outer run would return normally, so this fails, not hangs.
    WorkerFleet fleet(2);
    EXPECT_THROW(fleet.run(1,
                           [&](std::size_t, std::size_t) {
                               fleet.run(1,
                                         [](std::size_t, std::size_t) {});
                           }),
                 SimulationError);
    // A worker of one fleet may still submit to another fleet.
    WorkerFleet other(1);
    std::atomic<int> inner{0};
    fleet.run(1, [&](std::size_t, std::size_t) {
        other.run(3, [&](std::size_t, std::size_t) { ++inner; });
    });
    EXPECT_EQ(inner.load(), 3);
    // The fleet stays usable afterwards.
    std::atomic<int> count{0};
    fleet.run(8, [&](std::size_t, std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 8);
}

TEST(WorkerFleet, ShutdownWhileBusyCompletesTheBatch)
{
    // Rapid construct / run / destroy cycles race worker startup,
    // the batch hand-off, and shutdown; a worker that stopped with
    // claims outstanding would leave run() blocked.
    for (int cycle = 0; cycle < 200; ++cycle) {
        std::atomic<int> count{0};
        {
            WorkerFleet fleet(4);
            fleet.run(16, [&](std::size_t, std::size_t) {
                count.fetch_add(1);
            });
            // Destructor runs immediately: stop_ lands while workers
            // may still be waking or have never woken.
        }
        EXPECT_EQ(count.load(), 16) << "cycle " << cycle;
    }
    // Construct-and-destroy with no batch at all must not hang either.
    for (int cycle = 0; cycle < 50; ++cycle)
        WorkerFleet idle(3);
}

TEST(WorkerFleet, PresetCancelFlagSkipsEveryIndex)
{
    WorkerFleet fleet(3);
    const std::atomic<bool> cancel{true};
    std::atomic<int> ran{0};
    const auto out = fleet.run(
        40, [&](std::size_t, std::size_t) { ++ran; }, &cancel);
    EXPECT_EQ(ran.load(), 0);
    EXPECT_EQ(out.executed, 0u);
    EXPECT_EQ(out.skipped, 40u);
    EXPECT_EQ(out.executed + out.skipped, 40u);
}

/** Sets EMSTRESS_THREADS (nullptr unsets it) for one scope. */
class ScopedThreadsEnv
{
  public:
    explicit ScopedThreadsEnv(const char *value)
    {
        if (const char *old = std::getenv("EMSTRESS_THREADS"))
            saved_ = old;
        set(value);
    }
    ~ScopedThreadsEnv() { set(saved_ ? saved_->c_str() : nullptr); }

  private:
    static void
    set(const char *value)
    {
        if (value != nullptr)
            ::setenv("EMSTRESS_THREADS", value, 1);
        else
            ::unsetenv("EMSTRESS_THREADS");
    }

    std::optional<std::string> saved_;
};

TEST(WorkerFleet, ResolveThreadCount)
{
    EXPECT_EQ(resolveThreadCount(3), 3u);
    EXPECT_EQ(resolveThreadCount(kMaxThreads), kMaxThreads);
    // Counts from outside the program are bounded before any thread
    // starts (only the resolver runs here; no pool is built).
    EXPECT_THROW(resolveThreadCount(kMaxThreads + 1), ConfigError);
    EXPECT_THROW(resolveThreadCount(100000000), ConfigError);
    {
        const ScopedThreadsEnv env(nullptr);
        EXPECT_GE(resolveThreadCount(0), 1u); // auto is at least one
        EXPECT_LE(defaultThreadCount(), kMaxThreads);
    }
    {
        const ScopedThreadsEnv env("8");
        EXPECT_EQ(defaultThreadCount(), 8u);
        EXPECT_EQ(resolveThreadCount(0), 8u);
        EXPECT_EQ(resolveThreadCount(2), 2u); // explicit wins
    }
    for (const char *bad : {"8x", "abc", "-3", " 8", "+8", "8.0"}) {
        const ScopedThreadsEnv env(bad);
        EXPECT_THROW(defaultThreadCount(), ConfigError) << bad;
    }
    for (const char *huge : {"100000000", "99999999999999999999999"}) {
        const ScopedThreadsEnv env(huge);
        EXPECT_THROW(resolveThreadCount(0), ConfigError) << huge;
    }
    for (const char *automatic : {"0", ""}) {
        const ScopedThreadsEnv env(automatic);
        EXPECT_GE(defaultThreadCount(), 1u) << '"' << automatic << '"';
        EXPECT_LE(defaultThreadCount(), kMaxThreads);
    }
}

TEST(Trace, ResampleToCoarserGridDecimates)
{
    Trace t({0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0}, 1.0);
    const Trace d = t.resampleZeroOrderHold(2.0);
    ASSERT_EQ(d.size(), 4u);
    EXPECT_DOUBLE_EQ(d[0], 0.0);
    EXPECT_DOUBLE_EQ(d[1], 2.0);
    EXPECT_DOUBLE_EQ(d[3], 6.0);
}

} // namespace
} // namespace emstress
