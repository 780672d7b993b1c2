/**
 * @file
 * Tests for the virus-search service: the job model and content
 * addressing, the wire codec's bit-exactness, the artifact store,
 * and the SearchService scheduler — admission control, weighted-fair
 * queuing, cancellation, artifact serving — culminating in the
 * determinism contract: jobs through the service (in-process
 * transport, any fleet width, any runner count, with or without
 * injected faults) are bit-identical to direct GaEngine runs of the
 * same specs.
 */

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ga/fault_injector.h"
#include "ga/ga_engine.h"
#include "isa/kernel.h"
#include "isa/pool.h"
#include "platform/platform.h"
#include "service/artifact_store.h"
#include "service/job.h"
#include "service/scheduler.h"
#include "service/transport.h"
#include "service/wire.h"
#include "util/error.h"
#include "util/rng.h"

namespace emstress {
namespace service {
namespace {

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/**
 * Cheap, pure, cloneable fitness: a function of the kernel alone
 * (class mix plus a hash-derived term so searches don't plateau),
 * with fixed per-measurement accounting.
 */
class SyntheticFitness : public ga::FitnessEvaluator
{
  public:
    explicit SyntheticFitness(const isa::InstructionPool &pool)
        : pool_(pool)
    {}

    double
    evaluate(const isa::Kernel &kernel,
             ga::EvalDetail *detail) override
    {
        const double mix =
            kernel.classFraction(pool_, isa::InstrClass::SimdShort)
            + kernel.classFraction(pool_, isa::InstrClass::SimdLong);
        const double ripple =
            static_cast<double>(kernel.hash() % 1024) / 4096.0;
        if (detail) {
            detail->metric_raw = mix + ripple;
            detail->measurement_seconds = 1.0;
            detail->dominant_freq_hz = 1e8 * (1.0 + ripple);
        }
        return mix + ripple;
    }

    std::string metricName() const override { return "synthetic"; }

    std::unique_ptr<ga::FitnessEvaluator>
    clone() const override
    {
        return std::make_unique<SyntheticFitness>(pool_);
    }

  private:
    const isa::InstructionPool &pool_;
};

/** Factory plugging SyntheticFitness into the service. */
std::unique_ptr<ga::FitnessEvaluator>
syntheticFactory(const JobSpec &spec)
{
    return std::make_unique<SyntheticFitness>(
        presetPool(spec.platform));
}

/**
 * Factory wrapping the synthetic evaluator in connection-level fault
 * injection. The schedule seed derives from the spec, so a direct
 * rerun of the same spec reproduces the same faults — pure schedules
 * make faulted runs comparable bit for bit.
 */
std::unique_ptr<ga::FitnessEvaluator>
faultyFactory(const JobSpec &spec)
{
    SyntheticFitness base(presetPool(spec.platform));
    auto injector = std::make_shared<ga::FaultInjector>(
        FaultSchedule(spec.ga.seed ^ 0x5eedu,
                      FaultRates::uniform(0.2)));
    ga::FaultyEvaluator faulty(base, injector);
    return faulty.clone(); // owning replica (base cloned inside)
}

/** A small job spec the synthetic evaluator finishes instantly. */
JobSpec
smallSpec(std::uint64_t seed, const std::string &tenant = "default")
{
    JobSpec spec;
    spec.tenant = tenant;
    spec.ga.population = 10;
    spec.ga.generations = 5;
    spec.ga.kernel_length = 12;
    spec.ga.elite = 2;
    spec.ga.seed = seed;
    return spec;
}

/** Direct (service-free) run of a spec: the reference bits. */
ga::GaResult
directRun(const JobSpec &spec, const EvaluatorFactory &factory)
{
    auto evaluator = factory(spec);
    ga::GaEngine engine(presetPool(spec.platform), spec.ga);
    return engine.run(*evaluator);
}

/** Require two GA results to match bit for bit. */
void
expectBitIdentical(const ga::GaResult &a, const ga::GaResult &b,
                   const isa::InstructionPool &pool)
{
    EXPECT_EQ(bits(a.best_fitness), bits(b.best_fitness));
    EXPECT_EQ(a.best.serialize(pool), b.best.serialize(pool));
    EXPECT_EQ(bits(a.estimated_lab_seconds),
              bits(b.estimated_lab_seconds));
    EXPECT_EQ(a.eval_stats.evals, b.eval_stats.evals);
    EXPECT_EQ(a.eval_stats.cache_hits, b.eval_stats.cache_hits);
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t i = 0; i < a.history.size(); ++i) {
        EXPECT_EQ(a.history[i].generation, b.history[i].generation);
        EXPECT_EQ(bits(a.history[i].best_fitness),
                  bits(b.history[i].best_fitness));
        EXPECT_EQ(bits(a.history[i].mean_fitness),
                  bits(b.history[i].mean_fitness));
        EXPECT_EQ(a.history[i].best.serialize(pool),
                  b.history[i].best.serialize(pool));
    }
}

/** Manual-mode service over the synthetic factory. */
ServiceConfig
manualConfig(std::size_t fleet_threads = 1)
{
    ServiceConfig config;
    config.fleet_threads = fleet_threads;
    config.runners = 0;
    config.evaluator_factory = &syntheticFactory;
    return config;
}

// ---------------------------------------------------------------
// Job model: content addressing.
// ---------------------------------------------------------------

TEST(JobModel, FingerprintTracksContentNotTenant)
{
    const JobSpec base = smallSpec(1, "alice");
    JobSpec other_tenant = base;
    other_tenant.tenant = "bob";
    EXPECT_EQ(jobFingerprint(base), jobFingerprint(other_tenant));

    JobSpec changed = base;
    changed.ga.seed = 2;
    EXPECT_NE(jobFingerprint(base), jobFingerprint(changed));

    changed = base;
    changed.platform_seed += 1;
    EXPECT_NE(jobFingerprint(base), jobFingerprint(changed));

    changed = base;
    changed.metric = core::VirusMetric::MaxDroop;
    EXPECT_NE(jobFingerprint(base), jobFingerprint(changed));

    changed = base;
    changed.eval.sa_samples += 1;
    EXPECT_NE(jobFingerprint(base), jobFingerprint(changed));

    changed = base;
    changed.platform = PlatformPreset::kAthlon;
    EXPECT_NE(jobFingerprint(base), jobFingerprint(changed));

    // Scheduling identity never reaches the content address: the
    // same spec submitted interactive-with-deadline must share the
    // batch submission's artifact.
    JobSpec scheduled = base;
    scheduled.job_class = JobClass::kInteractive;
    scheduled.deadline_s = 1.5;
    EXPECT_EQ(jobFingerprint(base), jobFingerprint(scheduled));
}

TEST(JobModel, NoiseModelUpgradeInvalidatesStoredArtifacts)
{
    // smallSpec(9)'s description and content address under noise
    // model 1 (stream-order analyzer noise, std distributions). An
    // artifact spilled under it was computed with other measurement
    // noise, so it must miss rather than be served as current.
    const std::string v1_desc =
        "plat:a72:seed42|ga:10x5:len12:mut0.029999999999999999:op0.5"
        ":tk3:el2:seed9:rs1:ra4|eval:dur3.9999999999999998e-06:sa30"
        ":f50000000-200000000:cores0:stream1|metric:em-amplitude";
    const std::uint64_t v1_fingerprint = 0x9809132770fc78e2ull;

    const JobSpec spec = smallSpec(9);
    EXPECT_EQ(jobDescription(spec),
              v1_desc + "|noise:v" + std::to_string(kNoiseModelVersion));
    EXPECT_NE(jobFingerprint(spec), v1_fingerprint);

    ArtifactStore store({});
    store.insert(v1_fingerprint, std::make_shared<const JobResult>());
    EXPECT_EQ(store.fetch(jobFingerprint(spec)), nullptr);

    // Noise model 2's address (band powers from a Goertzel bank):
    // those artifacts miss too.
    const std::uint64_t v2_fingerprint = 0x4bf76d4b87427242ull;
    EXPECT_NE(jobFingerprint(spec), v2_fingerprint);
    store.insert(v2_fingerprint, std::make_shared<const JobResult>());
    EXPECT_EQ(store.fetch(jobFingerprint(spec)), nullptr);

    // Noise model 3's address (the PDN transient stepped on the MNA
    // unknowns): those artifacts miss too.
    const std::uint64_t v3_fingerprint = 0x4bf76e4b874273f5ull;
    EXPECT_NE(jobFingerprint(spec), v3_fingerprint);
    store.insert(v3_fingerprint, std::make_shared<const JobResult>());
    EXPECT_EQ(store.fetch(jobFingerprint(spec)), nullptr);
}

TEST(JobModel, CrossModeSpecsNeverShareAnArtifact)
{
    // A passive spec and its field-for-field active twin must have
    // different content addresses: the active description appends a
    // "|mode:emfi" suffix while the passive form stays byte-identical
    // to the pre-EMFI service, so a stored passive artifact can never
    // be served for an active job (or vice versa).
    const JobSpec passive = smallSpec(9);
    JobSpec active = passive;
    active.mode = JobMode::kActiveEmfi;

    const std::string passive_desc = jobDescription(passive);
    const std::string active_desc = jobDescription(active);
    EXPECT_EQ(passive_desc.find("|mode:"), std::string::npos);
    EXPECT_NE(active_desc.find("|mode:emfi"), std::string::npos);
    EXPECT_EQ(active_desc.find(passive_desc), 0u);
    EXPECT_NE(jobFingerprint(passive), jobFingerprint(active));

    // EMFI fields are fingerprinted in active mode only.
    JobSpec active_changed = active;
    active_changed.emfi.schedule_seed += 1;
    EXPECT_NE(jobFingerprint(active), jobFingerprint(active_changed));
    JobSpec passive_changed = passive;
    passive_changed.emfi.schedule_seed += 1;
    EXPECT_EQ(jobFingerprint(passive),
              jobFingerprint(passive_changed));

    // Regression at the store level: a passive artifact sits under
    // the passive address; the active twin's lookup is a clean miss.
    ArtifactStore store({});
    store.insert(jobFingerprint(passive),
                 std::make_shared<const JobResult>());
    EXPECT_EQ(store.fetch(jobFingerprint(active)), nullptr);
    EXPECT_NE(store.fetch(jobFingerprint(passive)), nullptr);
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_EQ(store.stats().hits, 1u);
}

TEST(JobModel, PresetNamesRoundTrip)
{
    for (const PlatformPreset p :
         {PlatformPreset::kJunoA72, PlatformPreset::kJunoA53,
          PlatformPreset::kAthlon}) {
        PlatformPreset back = PlatformPreset::kJunoA72;
        ASSERT_TRUE(presetFromName(presetName(p), back));
        EXPECT_EQ(p, back);
    }
    PlatformPreset out;
    EXPECT_FALSE(presetFromName("vax", out));
}

constexpr PlatformPreset kAllPresets[] = {PlatformPreset::kJunoA72,
                                          PlatformPreset::kJunoA53,
                                          PlatformPreset::kAthlon};

TEST(JobModel, PresetConfigIsOneSharedInstancePerPreset)
{
    // Racing first uses from 8 threads (first in this process when the
    // test runs alone) must all see one instance per preset.
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kPresets = std::size(kAllPresets);
    std::vector<const platform::PlatformConfig *> seen(
        kThreads * kPresets, nullptr);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&seen, t] {
            for (std::size_t p = 0; p < kPresets; ++p)
                seen[t * kPresets + p] = &presetConfig(kAllPresets[p]);
        });
    for (std::thread &th : threads)
        th.join();
    for (std::size_t p = 0; p < kPresets; ++p) {
        const platform::PlatformConfig *first = &presetConfig(
            kAllPresets[p]);
        EXPECT_EQ(&presetConfig(kAllPresets[p]), first);
        for (std::size_t t = 0; t < kThreads; ++t)
            EXPECT_EQ(seen[t * kPresets + p], first)
                << presetName(kAllPresets[p]) << " thread " << t;
    }
    EXPECT_NE(&presetConfig(PlatformPreset::kJunoA72),
              &presetConfig(PlatformPreset::kJunoA53));
}

TEST(JobModel, PresetConfigMatchesFreshCalibration)
{
    const platform::PlatformConfig fresh[] = {
        platform::junoA72Config(), platform::junoA53Config(),
        platform::athlonConfig()};
    for (std::size_t i = 0; i < std::size(kAllPresets); ++i) {
        const platform::PlatformConfig &shared =
            presetConfig(kAllPresets[i]);
        SCOPED_TRACE(presetName(kAllPresets[i]));
        EXPECT_EQ(shared.name, fresh[i].name);
        EXPECT_EQ(shared.isa, fresh[i].isa);
        EXPECT_EQ(bits(shared.f_max_hz), bits(fresh[i].f_max_hz));
        EXPECT_EQ(bits(shared.v_nom), bits(fresh[i].v_nom));
        // The calibrated die tank, bit for bit.
        const pdn::PdnParameters &a = shared.pdn;
        const pdn::PdnParameters &b = fresh[i].pdn;
        EXPECT_EQ(a.n_cores, b.n_cores);
        EXPECT_EQ(bits(a.r_die), bits(b.r_die));
        EXPECT_EQ(bits(a.c_die_core), bits(b.c_die_core));
        EXPECT_EQ(bits(a.c_die_uncore), bits(b.c_die_uncore));
        EXPECT_EQ(bits(a.l_pkg_die), bits(b.l_pkg_die));
        EXPECT_EQ(bits(a.v_nom), bits(b.v_nom));
    }
}

TEST(JobModel, PresetPoolMatchesPlatformPool)
{
    for (const PlatformPreset p : kAllPresets) {
        const platform::Platform plat(presetConfig(p), 42);
        EXPECT_EQ(presetPool(p).isa(), plat.pool().isa())
            << presetName(p);
        EXPECT_EQ(presetPool(p).toXmlString(),
                  plat.pool().toXmlString())
            << presetName(p);
    }
}

// ---------------------------------------------------------------
// Wire codec.
// ---------------------------------------------------------------

TEST(WireCodec, SpecRoundTripsEveryField)
{
    JobSpec spec;
    spec.tenant = "tenant-7";
    spec.platform = PlatformPreset::kAthlon;
    spec.platform_seed = 0xdeadbeefcafe;
    spec.metric = core::VirusMetric::PeakToPeak;
    spec.ga.population = 33;
    spec.ga.generations = 17;
    spec.ga.kernel_length = 41;
    spec.ga.mutation_rate = 0.0371;
    spec.ga.operand_mutation_ratio = 0.61;
    spec.ga.tournament_k = 5;
    spec.ga.elite = 3;
    spec.ga.seed = 991;
    spec.ga.restarts = 4;
    spec.ga.threads = 6;
    spec.ga.memoize = false;
    spec.ga.retry.max_attempts = 7;
    spec.ga.retry.backoff_s = 0.25;
    spec.ga.retry.backoff_factor = 3.0;
    spec.ga.retry.backoff_cap_s = 11.5;
    spec.eval.duration_s = 2.5e-6;
    spec.eval.f_lo_hz = 6.1e7;
    spec.eval.f_hi_hz = 1.9e8;
    spec.eval.sa_samples = 12;
    spec.eval.active_cores = 2;
    spec.job_class = JobClass::kInteractive;
    spec.deadline_s = 12.5;
    spec.mode = JobMode::kActiveEmfi;
    spec.emfi.victim_seed = 401;
    spec.emfi.victim_length = 10;
    spec.emfi.target_slot = 6;
    spec.emfi.schedule_seed = 77;
    spec.emfi.t0_max_s = 1.3e-6;
    spec.emfi.amplitude_max_a = 22.5;

    WireWriter w;
    encodeJobSpec(w, spec);
    WireReader r(w.bytes());
    const JobSpec back = decodeJobSpec(r);
    r.expectEnd();

    EXPECT_EQ(back.tenant, spec.tenant);
    EXPECT_EQ(back.platform, spec.platform);
    EXPECT_EQ(back.platform_seed, spec.platform_seed);
    EXPECT_EQ(back.metric, spec.metric);
    EXPECT_EQ(back.ga.population, spec.ga.population);
    EXPECT_EQ(back.ga.generations, spec.ga.generations);
    EXPECT_EQ(back.ga.kernel_length, spec.ga.kernel_length);
    EXPECT_EQ(bits(back.ga.mutation_rate), bits(spec.ga.mutation_rate));
    EXPECT_EQ(bits(back.ga.operand_mutation_ratio),
              bits(spec.ga.operand_mutation_ratio));
    EXPECT_EQ(back.ga.tournament_k, spec.ga.tournament_k);
    EXPECT_EQ(back.ga.elite, spec.ga.elite);
    EXPECT_EQ(back.ga.seed, spec.ga.seed);
    EXPECT_EQ(back.ga.restarts, spec.ga.restarts);
    EXPECT_EQ(back.ga.threads, spec.ga.threads);
    EXPECT_EQ(back.ga.memoize, spec.ga.memoize);
    EXPECT_EQ(back.ga.retry.max_attempts, spec.ga.retry.max_attempts);
    EXPECT_EQ(bits(back.ga.retry.backoff_s),
              bits(spec.ga.retry.backoff_s));
    EXPECT_EQ(bits(back.eval.duration_s), bits(spec.eval.duration_s));
    EXPECT_EQ(bits(back.eval.f_lo_hz), bits(spec.eval.f_lo_hz));
    EXPECT_EQ(bits(back.eval.f_hi_hz), bits(spec.eval.f_hi_hz));
    EXPECT_EQ(back.eval.sa_samples, spec.eval.sa_samples);
    EXPECT_EQ(back.eval.active_cores, spec.eval.active_cores);
    EXPECT_EQ(back.mode, spec.mode);
    EXPECT_EQ(back.emfi.victim_seed, spec.emfi.victim_seed);
    EXPECT_EQ(back.emfi.victim_length, spec.emfi.victim_length);
    EXPECT_EQ(back.emfi.target_slot, spec.emfi.target_slot);
    EXPECT_EQ(back.emfi.schedule_seed, spec.emfi.schedule_seed);
    EXPECT_EQ(bits(back.emfi.t0_max_s), bits(spec.emfi.t0_max_s));
    EXPECT_EQ(bits(back.emfi.amplitude_max_a),
              bits(spec.emfi.amplitude_max_a));
    EXPECT_EQ(back.job_class, spec.job_class);
    EXPECT_EQ(bits(back.deadline_s), bits(spec.deadline_s));

    // The codec preserves the content address.
    EXPECT_EQ(jobFingerprint(back), jobFingerprint(spec));
}

TEST(WireCodec, ResultRoundTripsBitExactly)
{
    const JobSpec spec = smallSpec(3);
    const isa::InstructionPool &pool = presetPool(spec.platform);
    JobResult result;
    result.metric = "synthetic";
    result.ga = directRun(spec, &syntheticFactory);
    result.fingerprint = jobFingerprint(spec);

    WireWriter w;
    encodeJobResult(w, result, pool);
    WireReader r(w.bytes());
    const JobResult back = decodeJobResult(r, pool);
    r.expectEnd();

    EXPECT_EQ(back.metric, result.metric);
    EXPECT_EQ(back.fingerprint, result.fingerprint);
    EXPECT_EQ(back.from_artifact_store, result.from_artifact_store);
    expectBitIdentical(back.ga, result.ga, pool);
    EXPECT_EQ(back.ga.eval_stats.threads,
              result.ga.eval_stats.threads);
    EXPECT_EQ(bits(back.ga.eval_stats.eval_seconds),
              bits(result.ga.eval_stats.eval_seconds));
}

TEST(WireCodec, MalformedBodiesThrow)
{
    // Truncation at every prefix of a valid spec body must throw,
    // never read out of bounds.
    WireWriter w;
    encodeJobSpec(w, smallSpec(1));
    const std::vector<std::uint8_t> &full = w.bytes();
    for (std::size_t cut = 0; cut < full.size();
         cut += full.size() / 7 + 1) {
        WireReader r(full.data(), cut);
        EXPECT_THROW(
            {
                JobSpec s = decodeJobSpec(r);
                (void)s;
            },
            ProtocolError)
            << "cut=" << cut;
    }

    // Unknown enum bytes are rejected.
    std::vector<std::uint8_t> bad(full);
    // tenant is "default" (u32 len + 7 bytes); platform byte follows.
    bad[4 + 7] = 0x7f;
    {
        WireReader r(bad.data(), bad.size());
        EXPECT_THROW(
            {
                JobSpec s = decodeJobSpec(r);
                (void)s;
            },
            ProtocolError);
    }

    // Trailing garbage is detected by expectEnd.
    std::vector<std::uint8_t> extra(full);
    extra.push_back(0);
    WireReader r(extra.data(), extra.size());
    JobSpec s = decodeJobSpec(r);
    (void)s;
    EXPECT_THROW(r.expectEnd(), ProtocolError);
}

// ---------------------------------------------------------------
// Artifact store.
// ---------------------------------------------------------------

TEST(ArtifactStore, InsertFetchInvalidate)
{
    ArtifactStore store({});
    EXPECT_EQ(store.fetch(1), nullptr);
    auto artifact = std::make_shared<const JobResult>();
    store.insert(1, artifact);
    EXPECT_EQ(store.fetch(1), artifact);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_TRUE(store.invalidate(1));
    EXPECT_FALSE(store.invalidate(1));
    EXPECT_EQ(store.fetch(1), nullptr);
    EXPECT_EQ(store.stats().hits, 1u);
    EXPECT_EQ(store.stats().misses, 2u);
}

TEST(ArtifactStore, TtlEvictsIdleEntriesOnly)
{
    ArtifactStore::Config config;
    config.ttl_epochs = 2;
    ArtifactStore store(config);
    store.insert(1, std::make_shared<const JobResult>());
    store.insert(2, std::make_shared<const JobResult>());

    store.advanceEpoch();
    EXPECT_NE(store.fetch(1), nullptr); // refreshes entry 1
    store.advanceEpoch(); // entry 2 idle exactly ttl: evicted
    EXPECT_EQ(store.fetch(2), nullptr);
    EXPECT_NE(store.fetch(1), nullptr);
    EXPECT_EQ(store.stats().expirations, 1u);
}

TEST(ArtifactStore, TtlBoundaryEvictsOnExactlyTheTtlthAdvance)
{
    // Pin the fencepost: an entry last used at epoch E dies on the
    // advance to E + ttl, not E + ttl + 1. The pre-fix `>` compare
    // let every entry linger one epoch past its configured lifetime,
    // so a ttl of 1 behaved like 2.
    ArtifactStore::Config config;
    config.ttl_epochs = 3;
    ArtifactStore store(config);
    store.insert(7, std::make_shared<const JobResult>());
    store.advanceEpoch();
    store.advanceEpoch();
    EXPECT_EQ(store.size(), 1u); // idle ttl - 1 epochs: still alive
    store.advanceEpoch();        // idle exactly ttl epochs
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.stats().expirations, 1u);
    EXPECT_EQ(store.fetch(7), nullptr);
}

TEST(ArtifactStore, ReplacementsCountedSeparatelyFromInserts)
{
    // A double completion of one fingerprint is an overwrite, not a
    // growth event; the split keeps the insert counter equal to the
    // number of distinct artifacts ever stored.
    ArtifactStore store({});
    auto artifact = std::make_shared<const JobResult>();
    store.insert(1, artifact);
    store.insert(1, artifact); // same address, same bytes
    store.insert(2, artifact);
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(store.stats().inserts, 2u);
    EXPECT_EQ(store.stats().replacements, 1u);
}

// ---------------------------------------------------------------
// Artifact store: persistent disk tier.
// ---------------------------------------------------------------

/** Fresh (pre-cleaned) spill directory under the test temp root. */
std::string
spillDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir())
        / ("emstress_store_" + name);
    std::filesystem::remove_all(dir);
    return dir.string();
}

/** A real completed artifact for `spec` (via a direct run). */
std::shared_ptr<const JobResult>
makeArtifact(const JobSpec &spec)
{
    JobResult result;
    result.metric = "synthetic";
    result.ga = directRun(spec, &syntheticFactory);
    result.fingerprint = jobFingerprint(spec);
    return std::make_shared<const JobResult>(std::move(result));
}

TEST(ArtifactStoreDisk, RestartServesSpilledArtifactBitIdentical)
{
    const JobSpec spec = smallSpec(41);
    const auto artifact = makeArtifact(spec);
    ArtifactStore::Config config;
    config.spill_dir = spillDir("restart");
    {
        ArtifactStore store(config);
        store.insert(artifact->fingerprint, artifact, spec.platform);
        EXPECT_EQ(store.stats().spill_writes, 1u);
    }

    // A second store over the same directory — the restarted daemon.
    // The scan indexes the sidecar without reading the payload; the
    // first fetch loads lazily and serves the exact bytes.
    ArtifactStore reborn(config);
    EXPECT_EQ(reborn.stats().spill_indexed, 1u);
    EXPECT_EQ(reborn.size(), 1u);
    EXPECT_FALSE(reborn.resident(artifact->fingerprint));
    const auto served = reborn.fetch(artifact->fingerprint);
    ASSERT_NE(served, nullptr);
    EXPECT_TRUE(reborn.resident(artifact->fingerprint));
    EXPECT_EQ(reborn.stats().disk_hits, 1u);
    EXPECT_EQ(reborn.stats().hits, 1u);
    EXPECT_EQ(served->fingerprint, artifact->fingerprint);
    EXPECT_EQ(served->metric, artifact->metric);
    expectBitIdentical(served->ga, artifact->ga,
                       presetPool(spec.platform));
    std::filesystem::remove_all(config.spill_dir);
}

TEST(ArtifactStoreDisk, TtlEvictionRemovesSpillFiles)
{
    ArtifactStore::Config config;
    config.spill_dir = spillDir("ttl");
    config.ttl_epochs = 1;
    {
        ArtifactStore store(config);
        store.insert(1, std::make_shared<const JobResult>());
        store.advanceEpoch();
        EXPECT_EQ(store.size(), 0u);
        EXPECT_EQ(store.stats().expirations, 1u);
    }
    // The eviction reached the disk tier: a restart indexes nothing.
    ArtifactStore reborn(config);
    EXPECT_EQ(reborn.stats().spill_indexed, 0u);
    EXPECT_EQ(reborn.size(), 0u);
    std::filesystem::remove_all(config.spill_dir);
}

TEST(ArtifactStoreDisk, TruncatedPayloadQuarantinedAtScan)
{
    namespace fs = std::filesystem;
    ArtifactStore::Config config;
    config.spill_dir = spillDir("truncated");
    {
        ArtifactStore store(config);
        store.insert(1, std::make_shared<const JobResult>());
    }
    // Tear the payload (daemon killed mid-write of a non-atomic FS,
    // disk corruption, ...): the size no longer matches the sidecar.
    for (const auto &entry : fs::directory_iterator(config.spill_dir))
        if (entry.path().extension() == ".artifact")
            fs::resize_file(entry.path(), entry.file_size() / 2);

    ArtifactStore reborn(config);
    EXPECT_EQ(reborn.size(), 0u);
    EXPECT_EQ(reborn.stats().spill_quarantined, 1u);
    EXPECT_EQ(reborn.fetch(1), nullptr);
    // The pair moved aside for post-mortems instead of being served.
    std::size_t quarantined = 0;
    for (const auto &entry :
         fs::directory_iterator(fs::path(config.spill_dir)
                                / "quarantine"))
        ++quarantined, (void)entry;
    EXPECT_EQ(quarantined, 2u);
    std::filesystem::remove_all(config.spill_dir);
}

TEST(ArtifactStoreDisk, BitRottedPayloadQuarantinedOnLazyLoad)
{
    namespace fs = std::filesystem;
    const JobSpec spec = smallSpec(43);
    const auto artifact = makeArtifact(spec);
    ArtifactStore::Config config;
    config.spill_dir = spillDir("bitrot");
    {
        ArtifactStore store(config);
        store.insert(artifact->fingerprint, artifact, spec.platform);
    }
    // Same-size corruption passes the scan's size check and must be
    // caught by the decode on the lazy-load path instead.
    for (const auto &entry : fs::directory_iterator(config.spill_dir))
        if (entry.path().extension() == ".artifact") {
            std::ofstream out(entry.path(),
                              std::ios::binary | std::ios::in);
            const char junk[4] = {'\xff', '\xff', '\xff', '\xff'};
            out.write(junk, sizeof junk);
        }

    ArtifactStore reborn(config);
    EXPECT_EQ(reborn.size(), 1u); // the scan cannot see bit rot
    EXPECT_EQ(reborn.fetch(artifact->fingerprint), nullptr);
    EXPECT_EQ(reborn.stats().spill_quarantined, 1u);
    EXPECT_EQ(reborn.stats().misses, 1u);
    EXPECT_EQ(reborn.size(), 0u);
    std::filesystem::remove_all(config.spill_dir);
}

TEST(ArtifactStoreDisk, GarbageSidecarQuarantinedAtScan)
{
    namespace fs = std::filesystem;
    ArtifactStore::Config config;
    config.spill_dir = spillDir("badmeta");
    {
        ArtifactStore store(config);
        store.insert(1, std::make_shared<const JobResult>());
    }
    for (const auto &entry : fs::directory_iterator(config.spill_dir))
        if (entry.path().extension() == ".meta") {
            std::ofstream out(entry.path(), std::ios::trunc);
            out << "not a sidecar\n";
        }

    ArtifactStore reborn(config);
    EXPECT_EQ(reborn.size(), 0u);
    EXPECT_EQ(reborn.stats().spill_quarantined, 1u);
    EXPECT_EQ(reborn.fetch(1), nullptr);
    std::filesystem::remove_all(config.spill_dir);
}

TEST(ArtifactStoreDisk, FetchRefreshPersistsLruAcrossRestart)
{
    // Epoch refreshes rewrite the sidecar, so an entry kept warm
    // before a restart is not reaped as stale after it.
    ArtifactStore::Config config;
    config.spill_dir = spillDir("lru");
    config.ttl_epochs = 3;
    {
        ArtifactStore store(config);
        store.insert(1, std::make_shared<const JobResult>());
        store.advanceEpoch();
        store.advanceEpoch();
        EXPECT_NE(store.fetch(1), nullptr); // refresh at epoch 2
    }
    ArtifactStore reborn(config);
    EXPECT_EQ(reborn.epoch(), 2u); // scan resumes the logical clock
    reborn.advanceEpoch();
    reborn.advanceEpoch();
    EXPECT_EQ(reborn.size(), 1u); // idle 2 < ttl, thanks to refresh
    reborn.advanceEpoch();
    EXPECT_EQ(reborn.size(), 0u);
    std::filesystem::remove_all(config.spill_dir);
}

/** Files under `dir` (not recursive) whose name ends in ".tmp". */
std::size_t
countTempFiles(const std::string &dir)
{
    std::size_t n = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        if (entry.path().extension() == ".tmp")
            ++n;
    return n;
}

TEST(ArtifactStoreDisk, ScanDeletesOrphanedTempFiles)
{
    ArtifactStore::Config config;
    config.spill_dir = spillDir("orphan_tmp");
    {
        ArtifactStore store(config);
        store.insert(1, std::make_shared<const JobResult>());
    }
    // A crash between writing a temp and renaming it leaves the temp.
    std::ofstream(std::filesystem::path(config.spill_dir)
                  / "0000000000000002.artifact.7.tmp")
        << "torn";
    ASSERT_EQ(countTempFiles(config.spill_dir), 1u);
    ArtifactStore reborn(config);
    EXPECT_EQ(countTempFiles(config.spill_dir), 0u);
    EXPECT_EQ(reborn.size(), 1u);
    EXPECT_EQ(reborn.stats().spill_quarantined, 0u);
    std::filesystem::remove_all(config.spill_dir);
}

/**
 * Inserts, fetches, TTL evictions and invalidations of a handful of
 * fingerprints from several threads at once: whatever the
 * interleaving, the disk tier ends consistent with the index — no
 * I/O errors, no stray temps, and a restart quarantines nothing.
 */
TEST(ArtifactStoreDisk, ConcurrentWritersAndEvictionsStayConsistent)
{
    ArtifactStore::Config config;
    config.spill_dir = spillDir("concurrent");
    config.ttl_epochs = 2;
    constexpr std::uint64_t kFingerprints = 4;
    {
        ArtifactStore store(config);
        std::vector<std::thread> threads;
        for (std::uint64_t t = 0; t < 4; ++t)
            threads.emplace_back([&store, t] {
                for (std::uint64_t i = 0; i < 200; ++i) {
                    const std::uint64_t fp = 1 + (i + t) % kFingerprints;
                    store.insert(fp, std::make_shared<const JobResult>());
                    (void)store.fetch(1 + (i * 3 + t) % kFingerprints);
                    store.advanceEpoch();
                    if ((i + t) % 7 == 0)
                        store.invalidate(fp);
                }
            });
        for (std::thread &th : threads)
            th.join();
        EXPECT_EQ(store.stats().spill_errors, 0u);
        EXPECT_EQ(store.stats().spill_quarantined, 0u);
        EXPECT_EQ(countTempFiles(config.spill_dir), 0u);
    }
    ArtifactStore reborn(config);
    EXPECT_EQ(reborn.stats().spill_quarantined, 0u);
    for (std::uint64_t fp = 1; fp <= kFingerprints; ++fp)
        (void)reborn.fetch(fp); // every indexed pair loads
    EXPECT_EQ(reborn.stats().spill_quarantined, 0u);
    EXPECT_EQ(reborn.stats().disk_hits, reborn.stats().spill_indexed);
    std::filesystem::remove_all(config.spill_dir);
}

// ---------------------------------------------------------------
// SearchService: scheduling semantics (manual mode).
// ---------------------------------------------------------------

TEST(SearchService, EventStreamHasCanonicalOrder)
{
    SearchService svc(manualConfig());
    const JobSpec spec = smallSpec(5);
    const Submission sub = svc.submit(spec);
    ASSERT_TRUE(sub.accepted);
    svc.drainManual();

    std::vector<JobEventType> types;
    for (;;) {
        auto ev = svc.pollEvent(sub.id);
        ASSERT_TRUE(ev.has_value());
        types.push_back(ev->type);
        if (ev->type == JobEventType::kCompleted)
            break;
    }
    ASSERT_GE(types.size(), 3u);
    EXPECT_EQ(types.front(), JobEventType::kAccepted);
    EXPECT_EQ(types[1], JobEventType::kStarted);
    // One progress event per generation, then completion.
    EXPECT_EQ(types.size(), 2u + spec.ga.generations + 1u);
    for (std::size_t i = 2; i + 1 < types.size(); ++i)
        EXPECT_EQ(types[i], JobEventType::kProgress);
    EXPECT_EQ(types.back(), JobEventType::kCompleted);
}

TEST(SearchService, AdmissionCapsReject)
{
    ServiceConfig config = manualConfig();
    config.max_jobs_in_flight = 2;
    config.max_jobs_per_tenant = 1;
    SearchService svc(config);

    EXPECT_TRUE(svc.submit(smallSpec(1, "a")).accepted);
    const Submission per_tenant = svc.submit(smallSpec(2, "a"));
    EXPECT_FALSE(per_tenant.accepted);
    EXPECT_NE(per_tenant.reject_reason.find("tenant"),
              std::string::npos);

    EXPECT_TRUE(svc.submit(smallSpec(3, "b")).accepted);
    const Submission global = svc.submit(smallSpec(4, "c"));
    EXPECT_FALSE(global.accepted);

    // Draining frees the slots.
    svc.drainManual();
    EXPECT_TRUE(svc.submit(smallSpec(5, "c")).accepted);
}

TEST(SearchService, InvalidSpecRejectedNotThrown)
{
    SearchService svc(manualConfig());
    JobSpec bad = smallSpec(1);
    bad.ga.population = 0;
    const Submission sub = svc.submit(bad);
    EXPECT_FALSE(sub.accepted);
    EXPECT_FALSE(sub.reject_reason.empty());
}

TEST(SearchService, WeightedFairSharingByVirtualTime)
{
    ServiceConfig config = manualConfig();
    config.tenant_weights["heavy"] = 3.0;
    config.tenant_weights["light"] = 1.0;
    SearchService svc(config);

    JobSpec heavy = smallSpec(1, "heavy");
    heavy.ga.generations = 60;
    JobSpec light = smallSpec(2, "light");
    light.ga.generations = 60;
    const Submission hs = svc.submit(heavy);
    const Submission ls = svc.submit(light);
    ASSERT_TRUE(hs.accepted);
    ASSERT_TRUE(ls.accepted);

    for (int i = 0; i < 24; ++i)
        ASSERT_TRUE(svc.stepOnce());

    const std::size_t heavy_done = svc.status(hs.id).generations_done;
    const std::size_t light_done = svc.status(ls.id).generations_done;
    EXPECT_EQ(heavy_done + light_done, 24u);
    // 3:1 share, allowing one step of phase skew.
    EXPECT_NEAR(static_cast<double>(heavy_done), 18.0, 1.0);
    EXPECT_NEAR(static_cast<double>(light_done), 6.0, 1.0);
}

TEST(SearchService, InteractiveClassDrainsAheadOfBatchWithinTenant)
{
    SearchService svc(manualConfig());
    JobSpec batch = smallSpec(1);
    batch.ga.generations = 30;
    JobSpec interactive = smallSpec(2);
    interactive.ga.generations = 5;
    interactive.job_class = JobClass::kInteractive;
    const Submission bs = svc.submit(batch);
    const Submission is = svc.submit(interactive);
    ASSERT_TRUE(bs.accepted);
    ASSERT_TRUE(is.accepted);
    EXPECT_EQ(svc.status(is.id).job_class, JobClass::kInteractive);
    EXPECT_EQ(svc.status(bs.id).job_class, JobClass::kBatch);

    // Every step goes to the interactive ring until it drains, even
    // though the batch job arrived first.
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(svc.stepOnce());
    EXPECT_EQ(svc.status(is.id).state, JobState::kCompleted);
    EXPECT_EQ(svc.status(bs.id).generations_done, 0u);
    svc.drainManual();
    EXPECT_EQ(svc.status(bs.id).state, JobState::kCompleted);
}

TEST(SearchService, InteractiveBoostSkewsCrossTenantShare)
{
    // Across tenants the interactive discount works through virtual
    // time: with the default boost of 4, an interactive-only tenant
    // takes a 4:1 generation share against an equal-weight batch
    // tenant.
    SearchService svc(manualConfig());
    JobSpec interactive = smallSpec(1, "alice");
    interactive.ga.generations = 60;
    interactive.job_class = JobClass::kInteractive;
    JobSpec batch = smallSpec(2, "bob");
    batch.ga.generations = 60;
    const Submission as = svc.submit(interactive);
    const Submission bs = svc.submit(batch);
    ASSERT_TRUE(as.accepted);
    ASSERT_TRUE(bs.accepted);

    for (int i = 0; i < 25; ++i)
        ASSERT_TRUE(svc.stepOnce());
    const std::size_t alice = svc.status(as.id).generations_done;
    const std::size_t bob = svc.status(bs.id).generations_done;
    EXPECT_EQ(alice + bob, 25u);
    EXPECT_NEAR(static_cast<double>(alice), 20.0, 1.0);
    EXPECT_NEAR(static_cast<double>(bob), 5.0, 1.0);
}

// ---------------------------------------------------------------
// Stream re-attachment: retention, rewind, park and reap.
// ---------------------------------------------------------------

TEST(SearchService, EventsRetainedAndReplayedPastAck)
{
    SearchService svc(manualConfig());
    const JobSpec spec = smallSpec(5); // 5 generations
    const Submission sub = svc.submit(spec);
    ASSERT_TRUE(sub.accepted);
    svc.drainManual();

    // First delivery consumes the full stream.
    for (;;) {
        const auto ev = svc.pollEvent(sub.id);
        ASSERT_TRUE(ev.has_value());
        if (ev->type == JobEventType::kCompleted)
            break;
    }
    EXPECT_FALSE(svc.pollEvent(sub.id).has_value());

    // Re-attach acking generation 3: the rewind skips lifecycle
    // events and progress the client kept, replays the rest.
    const std::uint64_t epoch = svc.attachStream(sub.id, 3);
    JobEvent ev = svc.waitStreamEvent(sub.id, epoch);
    ASSERT_EQ(ev.type, JobEventType::kProgress);
    EXPECT_EQ(ev.progress.generations_done, 4u);
    ev = svc.waitStreamEvent(sub.id, epoch);
    ASSERT_EQ(ev.type, JobEventType::kProgress);
    EXPECT_EQ(ev.progress.generations_done, 5u);
    ev = svc.waitStreamEvent(sub.id, epoch);
    EXPECT_EQ(ev.type, JobEventType::kCompleted);
    ASSERT_NE(ev.result, nullptr);
    expectBitIdentical(ev.result->ga,
                       directRun(spec, &syntheticFactory),
                       presetPool(spec.platform));
}

TEST(SearchService, NewerAttachSupersedesOlderStream)
{
    SearchService svc(manualConfig());
    const Submission sub = svc.submit(smallSpec(6));
    ASSERT_TRUE(sub.accepted);
    svc.drainManual();

    const std::uint64_t old_epoch = svc.attachStream(sub.id, 0);
    const std::uint64_t new_epoch = svc.attachStream(sub.id, 0);
    EXPECT_THROW(svc.waitStreamEvent(sub.id, old_epoch),
                 SimulationError);
    // A stale epoch cannot park the job out from under the new
    // stream either.
    svc.parkStream(sub.id, old_epoch);
    EXPECT_FALSE(svc.status(sub.id).parked);
    // The newer stream is live.
    const JobEvent ev = svc.waitStreamEvent(sub.id, new_epoch);
    EXPECT_EQ(ev.type, JobEventType::kProgress);
}

TEST(SearchService, ParkedStreamsReapedAfterGraceWindow)
{
    ServiceConfig config = manualConfig();
    config.orphan_grace_searches = 1;
    SearchService svc(config);
    const Submission sub = svc.submit(smallSpec(1), /*token=*/77);
    ASSERT_TRUE(sub.accepted);
    svc.drainManual();
    EXPECT_EQ(svc.resolveResumeToken(77), sub.id);

    const std::uint64_t epoch = svc.attachStream(sub.id, 0);
    svc.parkStream(sub.id, epoch);
    EXPECT_TRUE(svc.status(sub.id).parked);

    // One completed search inside the grace window: still resumable.
    ASSERT_TRUE(svc.submit(smallSpec(2)).accepted);
    svc.drainManual();
    EXPECT_EQ(svc.resolveResumeToken(77), sub.id);

    // The next completion lapses the window; the reaper retires the
    // job, its retained events and the token registration.
    ASSERT_TRUE(svc.submit(smallSpec(3)).accepted);
    svc.drainManual();
    EXPECT_EQ(svc.resolveResumeToken(77), 0u);
    EXPECT_THROW(svc.status(sub.id), ConfigError);
}

TEST(SearchService, ResumeUnparksAndEscapesTheReaper)
{
    ServiceConfig config = manualConfig();
    config.orphan_grace_searches = 1;
    SearchService svc(config);
    const Submission sub = svc.submit(smallSpec(1), /*token=*/9);
    ASSERT_TRUE(sub.accepted);
    svc.drainManual();
    const std::uint64_t epoch = svc.attachStream(sub.id, 0);
    svc.parkStream(sub.id, epoch);

    // Resume (attach) before the window lapses: the job is no longer
    // parked, and later completions leave it alone.
    svc.attachStream(sub.id, 0);
    EXPECT_FALSE(svc.status(sub.id).parked);
    for (std::uint64_t s = 2; s <= 4; ++s) {
        ASSERT_TRUE(svc.submit(smallSpec(s)).accepted);
        svc.drainManual();
    }
    EXPECT_EQ(svc.resolveResumeToken(9), sub.id);
    EXPECT_EQ(svc.status(sub.id).state, JobState::kCompleted);
}

TEST(SearchService, ZeroGraceParksForever)
{
    ServiceConfig config = manualConfig();
    config.orphan_grace_searches = 0; // park forever
    SearchService svc(config);
    const Submission sub = svc.submit(smallSpec(1), /*token=*/5);
    ASSERT_TRUE(sub.accepted);
    svc.drainManual();
    svc.parkStream(sub.id, svc.attachStream(sub.id, 0));
    for (std::uint64_t s = 2; s <= 6; ++s) {
        ASSERT_TRUE(svc.submit(smallSpec(s)).accepted);
        svc.drainManual();
    }
    EXPECT_EQ(svc.resolveResumeToken(5), sub.id);
    EXPECT_TRUE(svc.status(sub.id).parked);
}

TEST(SearchService, CancelQueuedJobImmediately)
{
    SearchService svc(manualConfig());
    const Submission sub = svc.submit(smallSpec(9));
    ASSERT_TRUE(sub.accepted);
    EXPECT_TRUE(svc.cancel(sub.id));
    EXPECT_EQ(svc.status(sub.id).state, JobState::kCancelled);
    EXPECT_FALSE(svc.cancel(sub.id)); // already terminal
    EXPECT_EQ(svc.result(sub.id), nullptr);
    EXPECT_FALSE(svc.stepOnce()); // nothing runnable
}

TEST(SearchService, CancelRunningJobDrainsWithoutPoisoning)
{
    SearchService svc(manualConfig());
    JobSpec spec = smallSpec(11);
    spec.ga.generations = 40;
    const Submission sub = svc.submit(spec);
    ASSERT_TRUE(sub.accepted);

    ASSERT_TRUE(svc.stepOnce());
    ASSERT_TRUE(svc.stepOnce());
    EXPECT_EQ(svc.status(sub.id).state, JobState::kRunning);
    EXPECT_TRUE(svc.cancel(sub.id));
    svc.drainManual();
    EXPECT_EQ(svc.status(sub.id).state, JobState::kCancelled);

    // The shared fleet and service remain healthy: an identical
    // spec searched fresh afterwards matches a direct run bit for
    // bit — the cancelled job cached or scored nothing.
    const Submission again = svc.submit(spec);
    ASSERT_TRUE(again.accepted);
    svc.drainManual();
    ASSERT_EQ(svc.status(again.id).state, JobState::kCompleted);
    const auto result = svc.result(again.id);
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->ga.eval_stats.permanent_failures, 0u);
    expectBitIdentical(result->ga, directRun(spec, &syntheticFactory),
                       presetPool(spec.platform));
}

TEST(SearchService, ArtifactStoreServesRepeatInstantly)
{
    SearchService svc(manualConfig());
    const JobSpec spec = smallSpec(21, "alice");
    const Submission first = svc.submit(spec);
    ASSERT_TRUE(first.accepted);
    svc.drainManual();
    const auto searched = svc.result(first.id);
    ASSERT_NE(searched, nullptr);
    EXPECT_FALSE(searched->from_artifact_store);

    // Same content, different tenant: served instantly, no stepping.
    JobSpec repeat = spec;
    repeat.tenant = "bob";
    const Submission second = svc.submit(repeat);
    ASSERT_TRUE(second.accepted);
    EXPECT_EQ(svc.status(second.id).state, JobState::kCompleted);
    EXPECT_FALSE(svc.stepOnce());
    const auto served = svc.result(second.id);
    ASSERT_NE(served, nullptr);
    EXPECT_TRUE(served->from_artifact_store);
    expectBitIdentical(served->ga, searched->ga,
                       presetPool(spec.platform));
    EXPECT_GE(svc.artifacts().stats().hits, 1u);
}

// ---------------------------------------------------------------
// The determinism contract.
// ---------------------------------------------------------------

/**
 * N jobs with distinct seeds through the in-process service must be
 * bit-identical to N sequential direct GaEngine runs — at fleet
 * widths 1, 2 and 8 (ISSUE acceptance criterion).
 */
TEST(ServiceDeterminism, InProcessJobsMatchDirectRunsAcrossFleets)
{
    std::vector<JobSpec> specs;
    for (std::uint64_t s = 1; s <= 4; ++s)
        specs.push_back(smallSpec(100 + s));

    std::vector<ga::GaResult> direct;
    for (const JobSpec &spec : specs)
        direct.push_back(directRun(spec, &syntheticFactory));

    for (const std::size_t fleet : {1u, 2u, 8u}) {
        SearchService svc(manualConfig(fleet));
        InProcessTransport transport(svc);
        std::vector<JobId> ids;
        for (const JobSpec &spec : specs) {
            const Submission sub = transport.submit(spec);
            ASSERT_TRUE(sub.accepted);
            ids.push_back(sub.id);
        }
        svc.drainManual();
        for (std::size_t i = 0; i < ids.size(); ++i) {
            const JobEvent ev = transport.awaitTerminal(ids[i]);
            ASSERT_EQ(ev.type, JobEventType::kCompleted)
                << "fleet=" << fleet << " job=" << i;
            ASSERT_NE(ev.result, nullptr);
            expectBitIdentical(ev.result->ga, direct[i],
                               presetPool(specs[i].platform));
        }
    }
}

/** The same contract with connection-level faults injected by
 *  FaultyEvaluator around each job's evaluator. */
TEST(ServiceDeterminism, FaultInjectedJobsMatchDirectRunsAcrossFleets)
{
    std::vector<JobSpec> specs;
    for (std::uint64_t s = 1; s <= 3; ++s)
        specs.push_back(smallSpec(200 + s));

    std::vector<ga::GaResult> direct;
    for (const JobSpec &spec : specs)
        direct.push_back(directRun(spec, &faultyFactory));

    // Prove the schedule actually fired for at least one spec —
    // otherwise this test degenerates to the fault-free one.
    std::size_t faults = 0;
    for (const ga::GaResult &r : direct)
        faults += r.eval_stats.faults_injected;
    EXPECT_GT(faults, 0u);

    for (const std::size_t fleet : {1u, 2u, 8u}) {
        ServiceConfig config = manualConfig(fleet);
        config.evaluator_factory = &faultyFactory;
        SearchService svc(config);
        InProcessTransport transport(svc);
        std::vector<JobId> ids;
        for (const JobSpec &spec : specs)
            ids.push_back(transport.submit(spec).id);
        svc.drainManual();
        for (std::size_t i = 0; i < ids.size(); ++i) {
            const JobEvent ev = transport.awaitTerminal(ids[i]);
            ASSERT_EQ(ev.type, JobEventType::kCompleted);
            expectBitIdentical(ev.result->ga, direct[i],
                               presetPool(specs[i].platform));
            EXPECT_EQ(ev.result->ga.eval_stats.faults_injected,
                      direct[i].eval_stats.faults_injected);
            EXPECT_EQ(ev.result->ga.eval_stats.retries,
                      direct[i].eval_stats.retries);
        }
    }
}

/** A small active-EMFI job over the real platform evaluator. */
JobSpec
emfiSpec(std::uint64_t seed, const std::string &tenant = "default")
{
    JobSpec spec;
    spec.tenant = tenant;
    spec.mode = JobMode::kActiveEmfi;
    spec.ga.population = 8;
    spec.ga.generations = 3;
    spec.ga.kernel_length = ga::kPulseGenomeSlots;
    spec.ga.elite = 2;
    spec.ga.seed = seed;
    spec.eval.duration_s = 1e-6;
    spec.emfi.t0_max_s = 0.8e-6;
    return spec;
}

/**
 * Active-EMFI jobs through the service (pulse-genome decode, victim
 * replay, fault-effects scoring — the whole campaign stack) must be
 * bit-identical to a direct run at fleet widths 1, 2 and 8.
 */
TEST(ServiceDeterminism, EmfiJobsMatchDirectRunsAcrossFleets)
{
    const JobSpec spec = emfiSpec(17);
    const ga::GaResult direct =
        directRun(spec, &makePlatformEvaluator);

    for (const std::size_t fleet : {1u, 2u, 8u}) {
        ServiceConfig config = manualConfig(fleet);
        config.evaluator_factory = &makePlatformEvaluator;
        SearchService svc(config);
        const Submission sub = svc.submit(spec);
        ASSERT_TRUE(sub.accepted) << "fleet=" << fleet;
        svc.drainManual();
        ASSERT_EQ(svc.status(sub.id).state, JobState::kCompleted);
        const auto result = svc.result(sub.id);
        ASSERT_NE(result, nullptr);
        EXPECT_EQ(result->metric, "emfi-min-energy");
        expectBitIdentical(result->ga, direct,
                           presetPool(spec.platform));
    }
}

/** Mid-campaign cancellation of an EMFI job drains cleanly. */
TEST(SearchService, CancelRunningEmfiJobDrainsWithoutPoisoning)
{
    ServiceConfig config = manualConfig();
    config.evaluator_factory = &makePlatformEvaluator;
    SearchService svc(config);
    JobSpec spec = emfiSpec(23);
    spec.ga.generations = 12;
    const Submission sub = svc.submit(spec);
    ASSERT_TRUE(sub.accepted);

    ASSERT_TRUE(svc.stepOnce());
    ASSERT_TRUE(svc.stepOnce());
    EXPECT_EQ(svc.status(sub.id).state, JobState::kRunning);
    EXPECT_TRUE(svc.cancel(sub.id));
    svc.drainManual();
    EXPECT_EQ(svc.status(sub.id).state, JobState::kCancelled);

    // A fresh identical campaign afterwards still matches a direct
    // run bit for bit: the cancelled job cached or scored nothing.
    const Submission again = svc.submit(spec);
    ASSERT_TRUE(again.accepted);
    svc.drainManual();
    ASSERT_EQ(svc.status(again.id).state, JobState::kCompleted);
    const auto result = svc.result(again.id);
    ASSERT_NE(result, nullptr);
    expectBitIdentical(result->ga,
                       directRun(spec, &makePlatformEvaluator),
                       presetPool(spec.platform));
}

/** Multi-start jobs (scout/final flow) run through the service. */
TEST(ServiceDeterminism, MultiStartJobMatchesDirectRun)
{
    JobSpec spec = smallSpec(31);
    spec.ga.restarts = 3;
    spec.ga.generations = 6;
    const ga::GaResult direct = directRun(spec, &syntheticFactory);

    SearchService svc(manualConfig(2));
    const Submission sub = svc.submit(spec);
    ASSERT_TRUE(sub.accepted);
    svc.drainManual();
    const auto result = svc.result(sub.id);
    ASSERT_NE(result, nullptr);
    expectBitIdentical(result->ga, direct,
                       presetPool(spec.platform));
}

/**
 * Background runner threads interleave jobs nondeterministically —
 * and the results must not care.
 */
TEST(ServiceDeterminism, RunnerThreadsProduceIdenticalBits)
{
    std::vector<JobSpec> specs;
    for (std::uint64_t s = 1; s <= 6; ++s)
        specs.push_back(smallSpec(300 + s, s % 2 ? "odd" : "even"));

    std::vector<ga::GaResult> direct;
    for (const JobSpec &spec : specs)
        direct.push_back(directRun(spec, &syntheticFactory));

    ServiceConfig config = manualConfig(2);
    config.runners = 3;
    SearchService svc(config);
    std::vector<JobId> ids;
    for (const JobSpec &spec : specs)
        ids.push_back(svc.submit(spec).id);
    for (std::size_t i = 0; i < ids.size(); ++i) {
        ASSERT_EQ(svc.waitTerminal(ids[i]), JobState::kCompleted);
        const auto result = svc.result(ids[i]);
        ASSERT_NE(result, nullptr);
        expectBitIdentical(result->ga, direct[i],
                           presetPool(specs[i].platform));
    }
}

// ---------------------------------------------------------------
// Crash-safe completion: kCompleted follows the durable write.
// ---------------------------------------------------------------

TEST(SearchService, CompletionEventFollowsDurableSpill)
{
    namespace fs = std::filesystem;
    ServiceConfig config = manualConfig();
    config.artifacts.spill_dir = spillDir("completion_order");
    SearchService svc(config);
    const JobSpec spec = smallSpec(61);
    const Submission sub = svc.submit(spec);
    ASSERT_TRUE(sub.accepted);

    char stem[17];
    std::snprintf(stem, sizeof stem, "%016llx",
                  static_cast<unsigned long long>(jobFingerprint(spec)));
    const fs::path root(config.artifacts.spill_dir);
    const fs::path artifact_path = root / (std::string(stem) + ".artifact");
    const fs::path meta_path = root / (std::string(stem) + ".meta");

    // A client blocked on the event stream inspects the disk the
    // moment kCompleted reaches it, while this thread pumps the job.
    std::shared_ptr<const JobResult> completed;
    bool artifact_on_disk = false, meta_on_disk = false;
    std::size_t temps_on_disk = 1;
    std::thread client([&] {
        for (;;) {
            const JobEvent ev = svc.waitEvent(sub.id);
            if (ev.type != JobEventType::kCompleted)
                continue;
            artifact_on_disk = fs::exists(artifact_path);
            meta_on_disk = fs::exists(meta_path);
            temps_on_disk = countTempFiles(root.string());
            completed = ev.result;
            return;
        }
    });
    svc.drainManual();
    client.join();
    ASSERT_NE(completed, nullptr);
    EXPECT_TRUE(artifact_on_disk);
    EXPECT_TRUE(meta_on_disk);
    EXPECT_EQ(temps_on_disk, 0u);

    // A fresh store over the directory (a daemon restarted right
    // after the client saw kCompleted) serves the same bytes.
    ArtifactStore reborn(config.artifacts);
    const auto served = reborn.fetch(jobFingerprint(spec));
    ASSERT_NE(served, nullptr);
    EXPECT_EQ(reborn.stats().disk_hits, 1u);
    const isa::InstructionPool &pool = presetPool(spec.platform);
    WireWriter a, b;
    encodeJobResult(a, *served, pool);
    encodeJobResult(b, *completed, pool);
    EXPECT_EQ(a.bytes(), b.bytes());
    expectBitIdentical(served->ga, completed->ga, pool);
    fs::remove_all(config.artifacts.spill_dir);
}

/**
 * Pairs of identical specs submitted back to back both miss the store
 * and complete at about the same time on different runners, so their
 * spills of one fingerprint race each other — and, with a one-epoch
 * TTL, the evictions other completions trigger.
 */
TEST(SearchService, ConcurrentDuplicateCompletionsUnderTtlStayConsistent)
{
    ServiceConfig config = manualConfig(2);
    config.runners = 4;
    config.artifacts.spill_dir = spillDir("dup_race");
    config.artifacts.ttl_epochs = 2;
    std::vector<JobSpec> specs;
    for (std::uint64_t s = 0; s < 12; ++s)
        specs.push_back(smallSpec(400 + s / 2, s % 2 ? "odd" : "even"));
    {
        SearchService svc(config);
        std::vector<JobId> ids;
        for (const JobSpec &spec : specs) {
            const Submission sub = svc.submit(spec);
            ASSERT_TRUE(sub.accepted);
            ids.push_back(sub.id);
        }
        for (std::size_t i = 0; i < ids.size(); ++i) {
            ASSERT_EQ(svc.waitTerminal(ids[i]), JobState::kCompleted);
            expectBitIdentical(svc.result(ids[i])->ga,
                               directRun(specs[i], &syntheticFactory),
                               presetPool(specs[i].platform));
        }
        EXPECT_EQ(svc.artifacts().stats().spill_errors, 0u);
        EXPECT_EQ(countTempFiles(config.artifacts.spill_dir), 0u);
    }
    ArtifactStore reborn(config.artifacts);
    EXPECT_EQ(reborn.stats().spill_quarantined, 0u);
    for (const JobSpec &spec : specs)
        (void)reborn.fetch(jobFingerprint(spec));
    EXPECT_EQ(reborn.stats().spill_quarantined, 0u);
    EXPECT_EQ(reborn.stats().disk_hits, reborn.stats().spill_indexed);
    std::filesystem::remove_all(config.artifacts.spill_dir);
}

} // namespace
} // namespace service
} // namespace emstress
