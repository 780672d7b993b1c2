/**
 * @file
 * Wire codec pins. The golden tests hash the encoded bytes of fully
 * populated records and the content address of both spec modes: any
 * change to a field's width, order or encoding — or to the
 * fingerprint preimage — moves a pin, so a refactor of the codec
 * that keeps them green keeps every wire frame, spilled artifact and
 * content address bit-identical.
 *
 * The field-list tests walk the records' fields() visitor with test
 * archives: a bitwise round trip of every record, and a table of
 * which spec fields the content address covers.
 */

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "isa/kernel.h"
#include "isa/pool.h"
#include "service/job.h"
#include "service/wire.h"
#include "util/rng.h"

namespace emstress {
namespace service {
namespace {

/** FNV-1a 64 of a byte string (the content-address construction). */
std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const std::uint8_t b : bytes) {
        h ^= b;
        h *= 1099511628211ull;
    }
    return h;
}

/** Hex rendering so a moved pin prints its new value. */
std::string
hex(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** A spec with every field off its default. */
JobSpec
fullSpec(JobMode mode)
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
    spec.mode = mode;
    spec.emfi.victim_seed = 401;
    spec.emfi.victim_length = 10;
    spec.emfi.target_slot = 6;
    spec.emfi.schedule_seed = 77;
    spec.emfi.t0_max_s = 1.3e-6;
    spec.emfi.amplitude_max_a = 22.5;
    spec.job_class = JobClass::kInteractive;
    spec.deadline_s = 12.5;
    return spec;
}

ga::EvalDetail
fullDetail(double salt)
{
    ga::EvalDetail d;
    d.dominant_freq_hz = 6.7e7 + salt;
    d.metric_raw = -31.25 - salt;
    d.measurement_seconds = 0.125 * salt;
    d.samples_materialized = 4096 + static_cast<std::size_t>(salt);
    return d;
}

/** A result with every field set and a three-record history. */
JobResult
fullResult(const isa::InstructionPool &pool, std::uint64_t seed)
{
    Rng rng(seed);
    JobResult result;
    result.metric = "em-amplitude";
    result.from_artifact_store = true;
    result.fingerprint = 0x0123456789abcdefull ^ seed;

    ga::GaResult &g = result.ga;
    g.best = isa::Kernel::random(pool, 9, rng);
    g.best_fitness = -27.5;
    g.best_detail = fullDetail(3.0);
    g.estimated_lab_seconds = 1234.5;
    ga::EvalStats &s = g.eval_stats;
    s.evals = 101;
    s.cache_hits = 7;
    s.elites_reused = 13;
    s.threads = 4;
    s.eval_seconds = 2.75;
    s.wall_seconds = 0.8125;
    s.samples_materialized = 65536;
    s.faults_injected = 5;
    s.retries = 6;
    s.permanent_failures = 1;
    s.fault_backoff_seconds = 3.5;
    s.tasks_cancelled = 2;
    for (std::size_t i = 0; i < 3; ++i) {
        ga::GenerationRecord rec;
        rec.generation = i;
        rec.best_fitness = -40.0 + static_cast<double>(i);
        rec.mean_fitness = -55.0 + 0.5 * static_cast<double>(i);
        rec.best_detail = fullDetail(static_cast<double>(i));
        rec.best = isa::Kernel::random(pool, 5 + i, rng);
        g.history.push_back(rec);
    }
    return result;
}

TEST(WireGolden, JobSpecBytesArePinned)
{
    WireWriter passive;
    encodeJobSpec(passive, fullSpec(JobMode::kPassiveVirus));
    WireWriter active;
    encodeJobSpec(active, fullSpec(JobMode::kActiveEmfi));
    EXPECT_EQ(hex(fnv1a(passive.bytes())), "0x8429b5835d32ee85");
    EXPECT_EQ(hex(fnv1a(active.bytes())), "0x1cf7276a1e747218");
}

TEST(WireGolden, JobFingerprintsArePinned)
{
    EXPECT_EQ(hex(jobFingerprint(fullSpec(JobMode::kPassiveVirus))),
              "0xbbf3a6ba152c3005");
    EXPECT_EQ(hex(jobFingerprint(fullSpec(JobMode::kActiveEmfi))),
              "0xf6be835cb4e1bce6");
}

TEST(WireGolden, JobResultBytesArePinnedOnBothPools)
{
    const isa::InstructionPool &arm =
        presetPool(PlatformPreset::kJunoA72);
    const isa::InstructionPool &x86 =
        presetPool(PlatformPreset::kAthlon);
    WireWriter on_arm;
    encodeJobResult(on_arm, fullResult(arm, 11), arm);
    WireWriter on_x86;
    encodeJobResult(on_x86, fullResult(x86, 12), x86);
    EXPECT_EQ(hex(fnv1a(on_arm.bytes())), "0x38e83820e842feb3");
    EXPECT_EQ(hex(fnv1a(on_x86.bytes())), "0x4bf10596d9d52a3b");
}

TEST(WireGolden, ProgressAndResumeBytesArePinned)
{
    JobProgress p;
    p.generation = 14;
    p.generations_done = 29;
    p.generations_total = 60;
    p.best_fitness = -21.875;
    p.mean_fitness = -48.5;
    p.dominant_freq_hz = 7.65e7;
    WireWriter progress;
    encodeProgress(progress, p);

    ResumeRequest req;
    req.token = 0xfeedfacecafebeefull;
    req.last_acked_generation = 41;
    WireWriter request;
    encodeResumeRequest(request, req);

    ResumeReply reply;
    reply.id = 712;
    reply.platform = PlatformPreset::kJunoA53;
    reply.generations_done = 99;
    WireWriter replied;
    encodeResumeReply(replied, reply);

    EXPECT_EQ(hex(fnv1a(progress.bytes())), "0x7a199bd312cf14b3");
    EXPECT_EQ(hex(fnv1a(request.bytes())), "0xcd98dee51e457aac");
    EXPECT_EQ(hex(fnv1a(replied.bytes())), "0x252cec9c89c8a9a3");
}


// ---------------------------------------------------------------
// Field-list tests.
// ---------------------------------------------------------------

/**
 * Flattens a record into one token per visited field — integers in
 * decimal, doubles as their bit patterns, kernels as text — so two
 * records compare bitwise field by field.
 */
class FieldLog
{
  public:
    explicit FieldLog(const isa::InstructionPool *pool = nullptr)
        : pool_(pool)
    {}

    template <class... T>
    void
    operator()(const T &...v)
    {
        (log(v), ...);
    }

    std::vector<std::string> tokens;

  private:
    template <std::unsigned_integral U>
    void
    log(U v)
    {
        tokens.push_back(std::to_string(v));
    }

    void
    log(double v)
    {
        tokens.push_back(hex(std::bit_cast<std::uint64_t>(v)));
    }

    void log(const std::string &s) { tokens.push_back("'" + s + "'"); }

    template <class E>
        requires std::is_enum_v<E>
    void
    log(E v)
    {
        tokens.push_back("#" + std::to_string(static_cast<int>(v)));
    }

    void log(const isa::Kernel &k) { tokens.push_back(k.serialize(*pool_)); }

    template <class T>
    void
    log(const std::vector<T> &v)
    {
        tokens.push_back("[" + std::to_string(v.size()));
        for (const T &e : v)
            log(e);
    }

    template <class T>
        requires std::is_class_v<T>
    void
    log(const T &record)
    {
        fields(*this, record);
    }

    const isa::InstructionPool *pool_;
};

template <class T>
std::vector<std::string>
fieldTokens(const T &record,
            const isa::InstructionPool *pool = nullptr)
{
    FieldLog log(pool);
    log(record);
    return log.tokens;
}

TEST(WireFields, EveryRecordRoundTripsBitwise)
{
    for (const JobMode mode :
         {JobMode::kPassiveVirus, JobMode::kActiveEmfi}) {
        const JobSpec spec = fullSpec(mode);
        WireWriter w;
        encodeJobSpec(w, spec);
        WireReader r(w.bytes());
        const JobSpec back = decodeJobSpec(r);
        r.expectEnd();
        EXPECT_EQ(fieldTokens(back), fieldTokens(spec));
        EXPECT_EQ(fieldTokens(spec).size(), 33u);
    }

    for (const PlatformPreset preset :
         {PlatformPreset::kJunoA72, PlatformPreset::kAthlon}) {
        const isa::InstructionPool &pool = presetPool(preset);
        const JobResult result = fullResult(pool, 21);
        WireWriter w;
        encodeJobResult(w, result, pool);
        WireReader r(w.bytes());
        const JobResult back = decodeJobResult(r, pool);
        r.expectEnd();
        EXPECT_EQ(fieldTokens(back, &pool), fieldTokens(result, &pool));
    }

    JobProgress p;
    p.generation = 3;
    p.generations_done = 8;
    p.generations_total = 9;
    p.best_fitness = -0.0;
    p.mean_fitness = 1e-310; // subnormal
    p.dominant_freq_hz = 8.5e7;
    WireWriter pw;
    encodeProgress(pw, p);
    WireReader pr(pw.bytes());
    EXPECT_EQ(fieldTokens(decodeProgress(pr)), fieldTokens(p));
    pr.expectEnd();

    const ResumeRequest req{0x8000000000000001ull, 5};
    WireWriter qw;
    encodeResumeRequest(qw, req);
    WireReader qr(qw.bytes());
    EXPECT_EQ(fieldTokens(decodeResumeRequest(qr)), fieldTokens(req));
    qr.expectEnd();

    const ResumeReply reply{9, PlatformPreset::kAthlon, 12};
    WireWriter yw;
    encodeResumeReply(yw, reply);
    WireReader yr(yw.bytes());
    EXPECT_EQ(fieldTokens(decodeResumeReply(yr)), fieldTokens(reply));
    yr.expectEnd();
}

/** Changes the `target`-th visited field to a different valid value
 *  and leaves every other field alone. */
class PerturbOne
{
  public:
    explicit PerturbOne(std::size_t target) : target_(target) {}

    template <class... T>
    void
    operator()(T &...v)
    {
        (visit(v), ...);
    }

    std::size_t visited() const { return next_; }

  private:
    template <class T>
    void
    visit(T &v)
    {
        if constexpr (std::is_class_v<T> && !std::same_as<T, std::string>)
            fields(*this, v);
        else if (next_++ == target_)
            perturb(v);
    }

    template <std::unsigned_integral U>
    static void
    perturb(U &v)
    {
        v += 1;
    }

    static void perturb(bool &v) { v = !v; }
    static void perturb(double &v) { v = 2.0 * v + 1.0; }
    static void perturb(std::string &s) { s += "x"; }

    template <class E>
        requires std::is_enum_v<E>
    static void
    perturb(E &v)
    {
        const int last = static_cast<int>(WireEnum<E>::kLast);
        v = static_cast<E>((static_cast<int>(v) + 1) % (last + 1));
    }

    std::size_t target_;
    std::size_t next_ = 0;
};

/** One character per JobSpec wire field, in wire order: 'C' when
 *  changing the field moves the content address, '-' when it does
 *  not. '|' separates tenant..metric | GaConfig | RetryPolicy |
 *  EvalSettings | mode | EmfiJobSpec | job_class, deadline_s. */
std::string
contentTable(const JobSpec &base)
{
    std::string table;
    const std::uint64_t fp = jobFingerprint(base);
    for (std::size_t i = 0;; ++i) {
        JobSpec spec = base;
        PerturbOne perturb(i);
        perturb(spec);
        if (i >= perturb.visited())
            break;
        table += jobFingerprint(spec) != fp ? 'C' : '-';
    }
    return table;
}

std::string
withoutBars(std::string s)
{
    std::erase(s, '|');
    return s;
}

TEST(WireFields, FingerprintCoversExactlyTheContentFields)
{
    // Content fields move the address; tenant, threads, memoize, the
    // retry backoffs, job_class and deadline_s never do. EMFI fields
    // are content only in active mode.
    EXPECT_EQ(contentTable(fullSpec(JobMode::kPassiveVirus)),
              withoutBars("-CCC|CCCCCCCCC--|C---|CCCCC|C|------|--"));
    EXPECT_EQ(contentTable(fullSpec(JobMode::kActiveEmfi)),
              withoutBars("-CCC|CCCCCCCCC--|C---|CCCCC|C|CCCCCC|--"));
}

} // namespace
} // namespace service
} // namespace emstress
