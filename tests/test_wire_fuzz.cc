/**
 * @file
 * Seeded mutation fuzzer for every decoder that reads untrusted
 * bytes: the record bodies, framed messages (length, type byte via
 * msgTypeFromWire, body), the artifact store's spill-directory scan
 * over mutated `.artifact`/`.meta` pairs, and the two text parsers:
 * instruction-pool XML (InstructionPool::fromXmlString) and metrics
 * snapshot JSON (metrics::parseSnapshotJson).
 *
 * Mutations are bit flips, truncation, extension and splices of
 * large values over 4- or 8-byte fields (where the length and count
 * prefixes live); text inputs also get splices of numbers the casts
 * and counts cannot hold, markup and runs of open brackets or tags.
 * Properties, per mutated input:
 *   - no crash or undefined behavior (run it under the asan preset);
 *   - a decode either throws ProtocolError / ConfigError (the
 *     metrics parser: SimulationError), or yields a value whose
 *     re-encoding decodes back to the same bytes;
 *   - valid inputs round-trip bit-exactly.
 *
 * Iterations are bounded and seeded, so a failure reproduces. ctest
 * runs the binary with ASAN_OPTIONS=max_allocation_size_mb=256: a
 * decoder that sizes an allocation from an untrusted count aborts an
 * ASan build instead of reserving gigabytes.
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "isa/kernel.h"
#include "isa/pool.h"
#include "service/artifact_store.h"
#include "service/job.h"
#include "service/wire.h"
#include "util/error.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace emstress {
namespace service {
namespace {

using Bytes = std::vector<std::uint8_t>;

/** Decode a body and re-encode what was decoded. */
using Reencode = std::function<Bytes(const Bytes &)>;

template <class T, class Decode, class Encode>
Reencode
reencoder(Decode decode, Encode encode)
{
    return [decode, encode](const Bytes &body) {
        WireReader r(body);
        const T value = decode(r);
        r.expectEnd();
        WireWriter w;
        encode(w, value);
        return w.bytes();
    };
}

Reencode
specCodec()
{
    return reencoder<JobSpec>(
        [](WireReader &r) { return decodeJobSpec(r); },
        [](WireWriter &w, const JobSpec &s) { encodeJobSpec(w, s); });
}

Reencode
resultCodec(const isa::InstructionPool &pool)
{
    return reencoder<JobResult>(
        [&pool](WireReader &r) { return decodeJobResult(r, pool); },
        [&pool](WireWriter &w, const JobResult &v) {
            encodeJobResult(w, v, pool);
        });
}

Reencode
progressCodec()
{
    return reencoder<JobProgress>(
        [](WireReader &r) { return decodeProgress(r); },
        [](WireWriter &w, const JobProgress &p) { encodeProgress(w, p); });
}

Reencode
resumeRequestCodec()
{
    return reencoder<ResumeRequest>(
        [](WireReader &r) { return decodeResumeRequest(r); },
        [](WireWriter &w, const ResumeRequest &q) {
            encodeResumeRequest(w, q);
        });
}

Reencode
resumeReplyCodec()
{
    return reencoder<ResumeReply>(
        [](WireReader &r) { return decodeResumeReply(r); },
        [](WireWriter &w, const ResumeReply &q) {
            encodeResumeReply(w, q);
        });
}

/** Apply one to three random mutations. */
Bytes
mutate(Bytes b, Rng &rng)
{
    static const std::uint64_t kSplices[] = {
        0xffffffffffffffffull, 0x00000000ffffffffull, 0x7fffffffull,
        60000000ull,           1ull << 32,            1ull << 63,
        kMaxFrameBytes,        kMaxFrameBytes + 1ull, 0ull,
    };
    const int n = rng.uniformInt(1, 3);
    for (int m = 0; m < n; ++m) {
        const int size = static_cast<int>(b.size());
        switch (rng.uniformInt(0, 3)) {
        case 0: // bit flips
            if (size > 0)
                for (int k = rng.uniformInt(1, 4); k > 0; --k)
                    b[static_cast<std::size_t>(
                        rng.uniformInt(0, size - 1))] ^=
                        static_cast<std::uint8_t>(
                            1u << rng.uniformInt(0, 7));
            break;
        case 1: // truncation
            b.resize(static_cast<std::size_t>(
                rng.uniformInt(0, size)));
            break;
        case 2: // extension
            for (int k = rng.uniformInt(1, 16); k > 0; --k)
                b.push_back(
                    static_cast<std::uint8_t>(rng.uniformInt(0, 255)));
            break;
        default: { // splice a large value over a 4- or 8-byte field
            const int width = rng.uniformInt(0, 1) ? 8 : 4;
            if (size < width)
                break;
            const std::uint64_t v = kSplices[rng.uniformInt(
                0, static_cast<int>(std::size(kSplices)) - 1)];
            const int at = rng.uniformInt(0, size - width);
            for (int i = 0; i < width; ++i)
                b[static_cast<std::size_t>(at + i)] =
                    static_cast<std::uint8_t>(v >> (8 * i));
            break;
        }
        }
    }
    return b;
}

/**
 * The decode property on one input: either a ProtocolError or
 * ConfigError, or a value whose re-encoding is a fixed point of
 * decode-then-encode. Returns true when the input decoded.
 */
bool
checkDecode(const Reencode &codec, const Bytes &input)
{
    Bytes again;
    try {
        again = codec(input);
    } catch (const ProtocolError &) {
        return false;
    } catch (const ConfigError &) {
        return false;
    }
    EXPECT_EQ(codec(again), again);
    return true;
}

/** Seed records with every field set. */
JobSpec
seedSpec()
{
    JobSpec spec;
    spec.tenant = "fuzz";
    spec.platform = PlatformPreset::kJunoA53;
    spec.metric = core::VirusMetric::MaxDroop;
    spec.ga.population = 12;
    spec.ga.retry.max_attempts = 3;
    spec.eval.active_cores = 2;
    spec.mode = JobMode::kActiveEmfi;
    spec.job_class = JobClass::kInteractive;
    spec.deadline_s = 4.5;
    return spec;
}

JobResult
seedResult(const isa::InstructionPool &pool, std::uint64_t seed)
{
    Rng rng(seed);
    JobResult result;
    result.metric = "em-amplitude";
    result.fingerprint = seed;
    result.ga.best = isa::Kernel::random(pool, 6, rng);
    result.ga.best_fitness = -12.5;
    result.ga.eval_stats.evals = 9;
    for (std::size_t i = 0; i < 3; ++i) {
        ga::GenerationRecord rec;
        rec.generation = i;
        rec.best_fitness = -20.0 + static_cast<double>(i);
        rec.best = isa::Kernel::random(pool, 4, rng);
        result.ga.history.push_back(rec);
    }
    return result;
}

template <class T, class Encode>
Bytes
encoded(const T &value, Encode encode)
{
    WireWriter w;
    encode(w, value);
    return w.bytes();
}

/** Fuzz one body codec from a valid seed body. */
void
fuzzBody(const Reencode &codec, const Bytes &seed_body,
         std::uint64_t seed, int iterations)
{
    ASSERT_EQ(codec(seed_body), seed_body); // valid: bit-exact
    Rng rng(seed);
    int decoded = 0;
    for (int i = 0; i < iterations; ++i)
        decoded += checkDecode(codec, mutate(seed_body, rng)) ? 1 : 0;
    // Some mutations (a flipped double, an extended string) still
    // decode: the property was exercised on both outcomes.
    EXPECT_GT(decoded, 0);
    EXPECT_LT(decoded, iterations);
}

TEST(WireFuzz, RecordBodies)
{
    const isa::InstructionPool &arm =
        presetPool(PlatformPreset::kJunoA72);
    const isa::InstructionPool &x86 =
        presetPool(PlatformPreset::kAthlon);
    JobProgress progress;
    progress.generation = 4;
    progress.generations_total = 10;
    progress.best_fitness = -3.25;

    fuzzBody(specCodec(), encoded(seedSpec(), encodeJobSpec), 1, 3000);
    fuzzBody(resultCodec(arm),
             encoded(seedResult(arm, 2),
                     [&arm](WireWriter &w, const JobResult &v) {
                         encodeJobResult(w, v, arm);
                     }),
             2, 3000);
    fuzzBody(resultCodec(x86),
             encoded(seedResult(x86, 3),
                     [&x86](WireWriter &w, const JobResult &v) {
                         encodeJobResult(w, v, x86);
                     }),
             3, 3000);
    fuzzBody(progressCodec(), encoded(progress, encodeProgress), 4,
             1000);
    fuzzBody(resumeRequestCodec(),
             encoded(ResumeRequest{77, 5}, encodeResumeRequest), 5,
             1000);
    fuzzBody(resumeReplyCodec(),
             encoded(ResumeReply{3, PlatformPreset::kAthlon, 6},
                     encodeResumeReply),
             6, 1000);
}

TEST(WireFuzz, CraftedHistoryCountFailsBeforeAllocating)
{
    // A result body whose history count claims 60M records but
    // carries none. Sized from the count, the history would reserve
    // ~4.8 GB before the decoder noticed the truncation; it must
    // fail closed on the count itself.
    const isa::InstructionPool &pool =
        presetPool(PlatformPreset::kJunoA72);
    JobResult result = seedResult(pool, 9);
    result.ga.history.clear();
    Bytes body = encoded(result, [&pool](WireWriter &w,
                                         const JobResult &v) {
        encodeJobResult(w, v, pool);
    });
    // The history count is the last field of an empty-history body.
    constexpr std::uint64_t kCount = 60000000;
    for (int i = 0; i < 8; ++i)
        body[body.size() - 8 + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(kCount >> (8 * i));
    WireReader r(body);
    EXPECT_THROW((void)decodeJobResult(r, pool), ProtocolError);
}

/**
 * Parse one frame the way the socket reader does (length prefix,
 * type byte through msgTypeFromWire), decode the body of the
 * structured messages, and rebuild the frame from what was decoded.
 */
Bytes
reframe(const Bytes &frame, const isa::InstructionPool &pool)
{
    WireReader head(frame);
    const std::uint32_t len = head.u32();
    if (len == 0 || len > kMaxFrameBytes || len != head.remaining())
        throw ProtocolError("bad frame length");
    const MsgType type = msgTypeFromWire(frame[4]);
    const Bytes body(frame.begin() + 5, frame.end());
    WireReader r(body);
    WireWriter w;
    switch (type) {
    case MsgType::kSubmit:
        w.u64(r.u64()); // resume token
        encodeJobSpec(w, decodeJobSpec(r));
        break;
    case MsgType::kResume:
        encodeResumeRequest(w, decodeResumeRequest(r));
        break;
    case MsgType::kResumed:
        encodeResumeReply(w, decodeResumeReply(r));
        break;
    case MsgType::kProgress:
        w.u64(r.u64()); // job id
        encodeProgress(w, decodeProgress(r));
        break;
    case MsgType::kCompleted:
        w.u64(r.u64()); // job id
        encodeJobResult(w, decodeJobResult(r, pool), pool);
        break;
    default: // unstructured bodies pass through
        for (std::size_t n = r.remaining(); n > 0; --n)
            w.u8(r.u8());
        break;
    }
    r.expectEnd();
    return buildFrame(type, w);
}

TEST(WireFuzz, FramedMessages)
{
    // Every type byte either maps to its own message or is refused.
    for (int raw = 0; raw < 256; ++raw) {
        try {
            EXPECT_EQ(static_cast<int>(msgTypeFromWire(
                          static_cast<std::uint8_t>(raw))),
                      raw);
        } catch (const ProtocolError &) {
        }
    }

    const isa::InstructionPool &pool =
        presetPool(PlatformPreset::kJunoA72);
    std::vector<Bytes> frames;
    {
        WireWriter w;
        w.u64(5);
        encodeJobSpec(w, seedSpec());
        frames.push_back(buildFrame(MsgType::kSubmit, w));
    }
    {
        WireWriter w;
        encodeResumeRequest(w, ResumeRequest{8, 2});
        frames.push_back(buildFrame(MsgType::kResume, w));
    }
    {
        WireWriter w;
        encodeResumeReply(w, ResumeReply{1, PlatformPreset::kJunoA72, 2});
        frames.push_back(buildFrame(MsgType::kResumed, w));
    }
    {
        WireWriter w;
        w.u64(3);
        encodeProgress(w, JobProgress{});
        frames.push_back(buildFrame(MsgType::kProgress, w));
    }
    {
        WireWriter w;
        w.u64(4);
        encodeJobResult(w, seedResult(pool, 4), pool);
        frames.push_back(buildFrame(MsgType::kCompleted, w));
    }
    {
        WireWriter w;
        w.str("{}");
        frames.push_back(buildFrame(MsgType::kMetricsReply, w));
    }

    const Reencode codec = [&pool](const Bytes &f) {
        return reframe(f, pool);
    };
    Rng rng(7);
    for (const Bytes &frame : frames) {
        ASSERT_EQ(reframe(frame, pool), frame);
        for (int i = 0; i < 800; ++i)
            checkDecode(codec, mutate(frame, rng));
    }
}

Bytes
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    return Bytes(std::istreambuf_iterator<char>(in), {});
}

void
writeFile(const std::filesystem::path &path, const Bytes &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** The preset a (possibly mutated) sidecar names, if any. */
bool
sidecarPreset(const Bytes &meta, PlatformPreset &out)
{
    std::istringstream in(std::string(meta.begin(), meta.end()));
    for (std::string line; std::getline(in, line);)
        if (line.rfind("preset ", 0) == 0)
            return presetFromName(line.substr(7), out);
    return false;
}

TEST(WireFuzz, SpillDirectoryScan)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(::testing::TempDir()) / "emstress_wire_fuzz_spill";
    fs::remove_all(dir);
    ArtifactStore::Config config;
    config.spill_dir = dir.string();

    const PlatformPreset preset = PlatformPreset::kAthlon;
    auto artifact = std::make_shared<const JobResult>(
        seedResult(presetPool(preset), 0x5eed));
    const std::uint64_t fp = artifact->fingerprint;
    {
        ArtifactStore store(config);
        store.insert(fp, artifact, preset);
    }
    fs::path artifact_path;
    fs::path meta_path;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() == ".artifact")
            artifact_path = entry.path();
        if (entry.path().extension() == ".meta")
            meta_path = entry.path();
    }
    ASSERT_FALSE(artifact_path.empty());
    ASSERT_FALSE(meta_path.empty());
    const Bytes payload = readFile(artifact_path);
    const Bytes meta = readFile(meta_path);

    Rng rng(11);
    int served = 0;
    for (int i = 0; i < 120; ++i) {
        fs::remove_all(dir);
        fs::create_directories(dir);
        const int which = rng.uniformInt(0, 2);
        const Bytes p = which != 1 ? mutate(payload, rng) : payload;
        const Bytes m = which != 0 ? mutate(meta, rng) : meta;
        writeFile(artifact_path, p);
        writeFile(meta_path, m);

        ArtifactStore store(config);
        const auto result = store.fetch(fp);
        PlatformPreset named = preset;
        if (result == nullptr || !sidecarPreset(m, named))
            continue;
        ++served;
        // What the store serves round-trips through the codec.
        const Bytes bytes = encoded(
            *result, [&named](WireWriter &w, const JobResult &v) {
                encodeJobResult(w, v, presetPool(named));
            });
        EXPECT_EQ(resultCodec(presetPool(named))(bytes), bytes);
    }
    EXPECT_GT(served, 0);
    fs::remove_all(dir);
}

/** mutate() over text, or splices of tokens the text parsers treat
 * specially, each sometimes repeated into a deep run. */
std::string
mutateText(const std::string &text, Rng &rng)
{
    static const char *const kTokens[] = {
        "1e300", "-1", "nan", "-inf", "2.5", "4097", "0",
        "18446744073709551616", "<a>", "</a>", "<!--", "\"", "'",
        "&amp;", "&lt;", "&bogus;", "[", "{", "]", "}", ",", ":",
    };
    if (rng.uniformInt(0, 1) == 0) {
        const Bytes b = mutate(Bytes(text.begin(), text.end()), rng);
        return std::string(b.begin(), b.end());
    }
    std::string s = text;
    for (int k = rng.uniformInt(1, 3); k > 0; --k) {
        const std::string one = kTokens[rng.uniformInt(
            0, static_cast<int>(std::size(kTokens)) - 1)];
        std::string tok = one;
        if (rng.uniformInt(0, 3) == 0)
            for (int r = rng.uniformInt(1, 200); r > 0; --r)
                tok += one;
        // Half the splices land just inside a quoted value (an
        // attribute, a key), where the parsers convert or unescape.
        auto at = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(s.size())));
        const auto quote = s.find('"', at);
        if (rng.uniformInt(0, 1) == 0 && quote != std::string::npos)
            at = quote + 1;
        if (rng.uniformInt(0, 1) == 0)
            s.insert(at, tok);
        else
            s.replace(at, tok.size(), tok);
    }
    return s;
}

/**
 * Fuzz a text parser from a valid seed: `reencode` parses and
 * serializes again, throwing `Error` on rejected input; what parses
 * must serialize to a fixed point of parse-then-serialize.
 */
template <class Error>
void
fuzzText(const std::function<std::string(const std::string &)> &reencode,
         const std::string &seed_text, std::uint64_t seed, int iterations)
{
    const std::string canonical = reencode(seed_text);
    ASSERT_EQ(reencode(canonical), canonical);
    Rng rng(seed);
    int parsed = 0;
    for (int i = 0; i < iterations; ++i) {
        std::string again;
        try {
            again = reencode(mutateText(canonical, rng));
        } catch (const Error &) {
            continue;
        }
        ++parsed;
        EXPECT_EQ(reencode(again), again);
    }
    EXPECT_GT(parsed, 0);
    EXPECT_LT(parsed, iterations);
}

TEST(TextFuzz, InstructionPoolXml)
{
    const auto reencode = [](const std::string &xml) {
        return isa::InstructionPool::fromXmlString(xml).toXmlString();
    };
    fuzzText<ConfigError>(reencode,
                          isa::InstructionPool::armV8().toXmlString(), 21,
                          3000);
    fuzzText<ConfigError>(reencode,
                          isa::InstructionPool::x86Sse2().toXmlString(),
                          22, 3000);
}

TEST(TextFuzz, MetricsSnapshotJson)
{
    const bool was_enabled = metrics::enabled();
    metrics::setEnabled(true);
    auto &reg = metrics::Registry::instance();
    reg.reset();
    reg.add("fuzz.counter", 12345);
    reg.add("fuzz.\"quoted\"\tname");
    reg.setGauge("fuzz.gauge", -0.125);
    reg.setGauge("fuzz.tiny", 3.0e-300);
    reg.recordPhase("fuzz.phase", 0.5, 0.25);
    reg.recordLatency("fuzz.latency", 2e-3);
    reg.recordLatency("fuzz.latency", 7.0);
    const std::string seed_text = metrics::toJson(reg.snapshot());
    reg.reset();
    metrics::setEnabled(was_enabled);

    fuzzText<SimulationError>(
        [](const std::string &json) {
            return metrics::toJson(metrics::parseSnapshotJson(json));
        },
        seed_text, 23, 3000);
}

} // namespace
} // namespace service
} // namespace emstress
