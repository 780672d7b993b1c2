/**
 * @file
 * Regression tests for the cross-bench virus cache in
 * bench/bench_util.h. The seed's cache keyed entries on the stem
 * alone, so an artifact searched under one GA/eval budget could be
 * served to a request with a different budget (most damagingly, a
 * quick-mode artifact standing in for a paper-budget run). The cache
 * now keys on the mode-suffixed stem AND a fingerprint of every
 * budget-defining field; these tests pin both levels and fail on the
 * pre-fix behavior.
 */

#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "platform/platform.h"
#include "util/rng.h"

namespace emstress {
namespace {

namespace fs = std::filesystem;

/** Search budget small enough that a fresh GA run takes well under a
 *  second; every field that feeds the fingerprint is set explicitly
 *  so the tests do not depend on mode-scaled defaults. */
core::VirusSearchConfig
tinyConfig(std::uint64_t seed)
{
    core::VirusSearchConfig cfg;
    cfg.ga.population = 4;
    cfg.ga.generations = 2;
    cfg.ga.kernel_length = 8;
    cfg.ga.restarts = 1;
    cfg.ga.seed = seed;
    cfg.ga.threads = 1;
    cfg.eval.duration_s = 1e-6;
    cfg.eval.sa_samples = 2;
    cfg.metric = core::VirusMetric::EmAmplitude;
    return cfg;
}

/** Each test gets an empty cache directory under the system temp
 *  root, removed again afterwards. The directory is suffixed with
 *  the test name: ctest -j runs fixture tests as concurrent
 *  processes, and a shared path lets one test's SetUp delete
 *  another's live cache mid-run. */
class BenchCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = fs::temp_directory_path()
            / (std::string("emstress_cache_test_") + info->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void
    TearDown() override
    {
        fs::remove_all(dir_);
    }

    fs::path dir_;
};

// ------------------------------------------------------ key units

TEST(BenchCacheKeys, StemIsModeSuffixed)
{
    EXPECT_EQ(bench::virusCacheStem("a72em", true), "a72em.full");
    EXPECT_EQ(bench::virusCacheStem("a72em", false), "a72em.quick");
    EXPECT_NE(bench::virusCacheStem("a72em", true),
              bench::virusCacheStem("a72em", false));
}

TEST(BenchCacheKeys, FingerprintCoversBudgetFields)
{
    const auto base = tinyConfig(7);
    const std::uint64_t fp = bench::budgetFingerprint(base);
    // Deterministic for an identical budget.
    EXPECT_EQ(bench::budgetFingerprint(tinyConfig(7)), fp);

    // Every result-affecting knob must perturb the fingerprint.
    auto cfg = base;
    cfg.ga.population = 50;
    EXPECT_NE(bench::budgetFingerprint(cfg), fp);
    cfg = base;
    cfg.ga.generations = 60;
    EXPECT_NE(bench::budgetFingerprint(cfg), fp);
    cfg = base;
    cfg.ga.seed = 8;
    EXPECT_NE(bench::budgetFingerprint(cfg), fp);
    cfg = base;
    cfg.ga.restarts = 3;
    EXPECT_NE(bench::budgetFingerprint(cfg), fp);
    cfg = base;
    cfg.eval.sa_samples = 30;
    EXPECT_NE(bench::budgetFingerprint(cfg), fp);
    cfg = base;
    cfg.eval.duration_s = 4e-6;
    EXPECT_NE(bench::budgetFingerprint(cfg), fp);
    cfg = base;
    cfg.metric = core::VirusMetric::MaxDroop;
    EXPECT_NE(bench::budgetFingerprint(cfg), fp);

    // Thread count deliberately does NOT fingerprint: results are
    // bit-identical across thread counts, so entries stay shareable
    // between hosts with different parallelism.
    cfg = base;
    cfg.ga.threads = 8;
    EXPECT_EQ(bench::budgetFingerprint(cfg), fp);
}

// ----------------------------------------------- filesystem paths

TEST_F(BenchCacheTest, SecondIdenticalRequestIsServedFromCache)
{
    platform::Platform plat(platform::junoA72Config(), 1);
    const auto cfg = tinyConfig(21);

    const auto first =
        bench::searchOrLoadVirus(dir_, "v.quick", plat, cfg);
    EXPECT_FALSE(first.from_cache);
    EXPECT_TRUE(fs::exists(dir_ / "v.quick.kernel"));
    EXPECT_TRUE(fs::exists(dir_ / "v.quick.history"));
    EXPECT_TRUE(fs::exists(dir_ / "v.quick.meta"));

    const auto second =
        bench::searchOrLoadVirus(dir_, "v.quick", plat, cfg);
    EXPECT_TRUE(second.from_cache);
    // The cached artifact is the same kernel the search produced.
    EXPECT_EQ(second.report.virus.hash(), first.report.virus.hash());
    ASSERT_EQ(second.history.size(), first.history.size());
    for (std::size_t i = 0; i < first.history.size(); ++i) {
        EXPECT_EQ(second.history[i].generation,
                  first.history[i].generation);
    }
}

TEST_F(BenchCacheTest, DifferentBudgetInvalidatesSameStemEntry)
{
    // Regression: pre-fix, the cache keyed on the stem alone, so this
    // second request (same stem, different GA budget) was served the
    // stale artifact instead of re-searching.
    platform::Platform plat(platform::junoA72Config(), 1);

    const auto small = tinyConfig(21);
    (void)bench::searchOrLoadVirus(dir_, "v.quick", plat, small);

    auto bigger = small;
    bigger.ga.generations = 3;
    const auto refreshed =
        bench::searchOrLoadVirus(dir_, "v.quick", plat, bigger);
    EXPECT_FALSE(refreshed.from_cache);

    // The re-search rewrote the entry under the new budget: the same
    // request now hits.
    EXPECT_TRUE(bench::searchOrLoadVirus(dir_, "v.quick", plat,
                                         bigger)
                    .from_cache);
    // ...and the original budget no longer matches the entry.
    EXPECT_FALSE(bench::cachedVirusServes(
        dir_, "v.quick", bench::budgetFingerprint(small)));
}

TEST_F(BenchCacheTest, QuickEntryIsNotServedToFullRequest)
{
    // Regression for the headline bug: a quick-mode artifact must
    // never satisfy a full-mode request. The mode-suffixed stems
    // already separate the two; the fingerprint rejects the entry
    // even if it is copied onto the full stem (the pre-fix layout,
    // where one stem served both modes).
    platform::Platform plat(platform::junoA72Config(), 1);
    const auto quick_cfg = tinyConfig(21);
    auto full_cfg = quick_cfg;
    full_cfg.ga.population = 8;
    full_cfg.eval.sa_samples = 4;

    (void)bench::searchOrLoadVirus(dir_, "v.quick", plat, quick_cfg);

    // Distinct stem: nothing cached for the full request.
    EXPECT_FALSE(bench::cachedVirusServes(
        dir_, "v.full", bench::budgetFingerprint(full_cfg)));

    // Pre-fix layout simulated: quick artifacts copied to the full
    // stem. The budget fingerprint still refuses to serve them.
    for (const char *ext : {".kernel", ".history", ".meta"}) {
        fs::copy_file(dir_ / ("v.quick" + std::string(ext)),
                      dir_ / ("v.full" + std::string(ext)));
    }
    EXPECT_FALSE(bench::cachedVirusServes(
        dir_, "v.full", bench::budgetFingerprint(full_cfg)));
    // A full-budget request through the main entry point re-searches
    // (and logs an invalidation) rather than reusing the quick entry.
    EXPECT_FALSE(bench::searchOrLoadVirus(dir_, "v.full", plat,
                                          full_cfg)
                     .from_cache);
}

TEST_F(BenchCacheTest, PreviousNoiseModelEntriesNeverServe)
{
    // tinyConfig(7)'s budget description and fingerprint under noise
    // model 1: a virus cached then was searched under other
    // measurement noise and must be re-searched, not reused.
    const std::string v1_desc =
        "ga:4x2:len8:mut0.029999999999999999:op0.5:tk3:el2:seed7:rs1"
        "|eval:dur9.9999999999999995e-07:sa2:f50000000-200000000"
        ":cores0:stream1|metric:em-amplitude";
    const std::uint64_t v1_fingerprint = 0x646de96c8caf1bb3ull;

    const auto cfg = tinyConfig(7);
    EXPECT_EQ(bench::budgetDescription(cfg),
              v1_desc + "|noise:v" + std::to_string(kNoiseModelVersion));
    EXPECT_NE(bench::budgetFingerprint(cfg), v1_fingerprint);

    // A complete entry recorded under the old fingerprint.
    std::ofstream(dir_ / "v.quick.kernel") << "\n";
    std::ofstream(dir_ / "v.quick.history") << "0\n";
    std::ofstream(dir_ / "v.quick.meta")
        << "fingerprint " << std::hex << v1_fingerprint << "\n";
    EXPECT_TRUE(bench::cachedVirusServes(dir_, "v.quick", v1_fingerprint));
    EXPECT_FALSE(bench::cachedVirusServes(
        dir_, "v.quick", bench::budgetFingerprint(cfg)));

    // Noise model 2 read band powers from a Goertzel bank; its
    // entries were measured on other amplitudes and never serve.
    const std::uint64_t v2_fingerprint = 0x354b1d9984d4022dull;
    EXPECT_EQ(bench::fnv1a64(v1_desc + "|noise:v2"), v2_fingerprint);
    EXPECT_NE(bench::budgetFingerprint(cfg), v2_fingerprint);

    // Noise model 3 stepped the PDN transient on the MNA unknowns;
    // its entries never serve either.
    const std::uint64_t v3_fingerprint = 0x354b1c9984d4007aull;
    EXPECT_EQ(bench::fnv1a64(v1_desc + "|noise:v3"), v3_fingerprint);
    EXPECT_NE(bench::budgetFingerprint(cfg), v3_fingerprint);
    std::ofstream(dir_ / "v.quick.meta", std::ios::trunc)
        << "fingerprint " << std::hex << v3_fingerprint << "\n";
    EXPECT_TRUE(bench::cachedVirusServes(dir_, "v.quick", v3_fingerprint));
    EXPECT_FALSE(bench::cachedVirusServes(
        dir_, "v.quick", bench::budgetFingerprint(cfg)));
}

TEST_F(BenchCacheTest, PreFingerprintEntriesNeverServe)
{
    // Entries written before the meta sidecar existed (or whose meta
    // is mangled) are treated as stale, not trusted.
    platform::Platform plat(platform::junoA72Config(), 1);
    const auto cfg = tinyConfig(21);
    (void)bench::searchOrLoadVirus(dir_, "v.quick", plat, cfg);

    fs::remove(dir_ / "v.quick.meta");
    EXPECT_FALSE(bench::cachedVirusServes(
        dir_, "v.quick", bench::budgetFingerprint(cfg)));

    std::ofstream(dir_ / "v.quick.meta") << "garbage\n";
    EXPECT_FALSE(bench::cachedVirusServes(
        dir_, "v.quick", bench::budgetFingerprint(cfg)));
    EXPECT_FALSE(
        bench::searchOrLoadVirus(dir_, "v.quick", plat, cfg)
            .from_cache);
}

} // namespace
} // namespace emstress
