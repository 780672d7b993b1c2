/**
 * @file
 * Body codecs of the wire protocol. Every field of a JobSpec that can
 * change a search result crosses the wire, and every field of a
 * JobResult crosses back — doubles as IEEE-754 bit patterns — so a
 * client-side decode is bit-identical to the server-side value.
 */

#include "service/wire.h"

#include "isa/kernel.h"

namespace emstress {
namespace service {

std::vector<std::uint8_t>
buildFrame(MsgType type, const WireWriter &body)
{
    const std::vector<std::uint8_t> &b = body.bytes();
    if (b.size() + 1 > kMaxFrameBytes)
        throw ProtocolError("frame body too large");
    const std::uint32_t len = static_cast<std::uint32_t>(b.size() + 1);
    std::vector<std::uint8_t> frame;
    frame.reserve(4 + len);
    for (int i = 0; i < 4; ++i)
        frame.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
    frame.push_back(static_cast<std::uint8_t>(type));
    frame.insert(frame.end(), b.begin(), b.end());
    return frame;
}

MsgType
msgTypeFromWire(std::uint8_t raw)
{
    switch (raw) {
    case 0x01: return MsgType::kPing;
    case 0x02: return MsgType::kSubmit;
    case 0x03: return MsgType::kCancel;
    case 0x04: return MsgType::kMetrics;
    case 0x05: return MsgType::kShutdown;
    case 0x06: return MsgType::kResume;
    case 0x81: return MsgType::kPong;
    case 0x82: return MsgType::kAccepted;
    case 0x83: return MsgType::kProgress;
    case 0x84: return MsgType::kCompleted;
    case 0x85: return MsgType::kCancelled;
    case 0x86: return MsgType::kFailed;
    case 0x87: return MsgType::kAck;
    case 0x88: return MsgType::kMetricsReply;
    case 0x89: return MsgType::kResumed;
    case 0xFF: return MsgType::kError;
    default: throw ProtocolError("unknown message type byte");
    }
}

namespace {

PlatformPreset
presetFromWire(std::uint8_t v)
{
    switch (v) {
    case 0: return PlatformPreset::kJunoA72;
    case 1: return PlatformPreset::kJunoA53;
    case 2: return PlatformPreset::kAthlon;
    default: throw ProtocolError("unknown platform preset on wire");
    }
}

JobMode
modeFromWire(std::uint8_t v)
{
    switch (v) {
    case 0: return JobMode::kPassiveVirus;
    case 1: return JobMode::kActiveEmfi;
    default: throw ProtocolError("unknown job mode on wire");
    }
}

core::VirusMetric
metricFromWire(std::uint8_t v)
{
    switch (v) {
    case 0: return core::VirusMetric::EmAmplitude;
    case 1: return core::VirusMetric::MaxDroop;
    case 2: return core::VirusMetric::PeakToPeak;
    default: throw ProtocolError("unknown virus metric on wire");
    }
}

JobClass
jobClassFromWire(std::uint8_t v)
{
    switch (v) {
    case 0: return JobClass::kBatch;
    case 1: return JobClass::kInteractive;
    default: throw ProtocolError("unknown job class on wire");
    }
}

void
encodeEvalDetail(WireWriter &w, const ga::EvalDetail &d)
{
    w.f64(d.dominant_freq_hz);
    w.f64(d.metric_raw);
    w.f64(d.measurement_seconds);
    w.u64(d.samples_materialized);
}

ga::EvalDetail
decodeEvalDetail(WireReader &r)
{
    ga::EvalDetail d;
    d.dominant_freq_hz = r.f64();
    d.metric_raw = r.f64();
    d.measurement_seconds = r.f64();
    d.samples_materialized =
        static_cast<std::size_t>(r.u64());
    return d;
}

void
encodeEvalStats(WireWriter &w, const ga::EvalStats &s)
{
    w.u64(s.evals);
    w.u64(s.cache_hits);
    w.u64(s.elites_reused);
    w.u64(s.threads);
    w.f64(s.eval_seconds);
    w.f64(s.wall_seconds);
    w.u64(s.samples_materialized);
    w.u64(s.faults_injected);
    w.u64(s.retries);
    w.u64(s.permanent_failures);
    w.f64(s.fault_backoff_seconds);
    w.u64(s.tasks_cancelled);
}

ga::EvalStats
decodeEvalStats(WireReader &r)
{
    ga::EvalStats s;
    s.evals = static_cast<std::size_t>(r.u64());
    s.cache_hits = static_cast<std::size_t>(r.u64());
    s.elites_reused = static_cast<std::size_t>(r.u64());
    s.threads = static_cast<std::size_t>(r.u64());
    s.eval_seconds = r.f64();
    s.wall_seconds = r.f64();
    s.samples_materialized = static_cast<std::size_t>(r.u64());
    s.faults_injected = static_cast<std::size_t>(r.u64());
    s.retries = static_cast<std::size_t>(r.u64());
    s.permanent_failures = static_cast<std::size_t>(r.u64());
    s.fault_backoff_seconds = r.f64();
    s.tasks_cancelled = static_cast<std::size_t>(r.u64());
    return s;
}

} // namespace

void
encodeJobSpec(WireWriter &w, const JobSpec &spec)
{
    w.str(spec.tenant);
    w.u8(static_cast<std::uint8_t>(spec.platform));
    w.u64(spec.platform_seed);
    w.u8(static_cast<std::uint8_t>(spec.metric));

    const ga::GaConfig &g = spec.ga;
    w.u64(g.population);
    w.u64(g.generations);
    w.u64(g.kernel_length);
    w.f64(g.mutation_rate);
    w.f64(g.operand_mutation_ratio);
    w.u64(g.tournament_k);
    w.u64(g.elite);
    w.u64(g.seed);
    w.u64(g.restarts);
    w.u64(g.threads);
    w.u8(g.memoize ? 1 : 0);
    w.u32(g.retry.max_attempts);
    w.f64(g.retry.backoff_s);
    w.f64(g.retry.backoff_factor);
    w.f64(g.retry.backoff_cap_s);

    const core::EvalSettings &e = spec.eval;
    w.f64(e.duration_s);
    w.f64(e.f_lo_hz);
    w.f64(e.f_hi_hz);
    w.u64(e.sa_samples);
    w.u64(e.active_cores);

    w.u8(static_cast<std::uint8_t>(spec.mode));
    const EmfiJobSpec &fi = spec.emfi;
    w.u64(fi.victim_seed);
    w.u64(fi.victim_length);
    w.u64(fi.target_slot);
    w.u64(fi.schedule_seed);
    w.f64(fi.t0_max_s);
    w.f64(fi.amplitude_max_a);

    // Scheduling identity (version 2), appended last so the
    // result-defining prefix of the body stays byte-stable across
    // protocol versions. Like the tenant, neither field is part of
    // the content fingerprint: they change job *latency*, never job
    // *results*.
    w.u8(static_cast<std::uint8_t>(spec.job_class));
    w.f64(spec.deadline_s);
}

JobSpec
decodeJobSpec(WireReader &r)
{
    JobSpec spec;
    spec.tenant = r.str();
    spec.platform = presetFromWire(r.u8());
    spec.platform_seed = r.u64();
    spec.metric = metricFromWire(r.u8());

    ga::GaConfig &g = spec.ga;
    g.population = static_cast<std::size_t>(r.u64());
    g.generations = static_cast<std::size_t>(r.u64());
    g.kernel_length = static_cast<std::size_t>(r.u64());
    g.mutation_rate = r.f64();
    g.operand_mutation_ratio = r.f64();
    g.tournament_k = static_cast<std::size_t>(r.u64());
    g.elite = static_cast<std::size_t>(r.u64());
    g.seed = r.u64();
    g.restarts = static_cast<std::size_t>(r.u64());
    g.threads = static_cast<std::size_t>(r.u64());
    g.memoize = r.u8() != 0;
    g.retry.max_attempts = r.u32();
    g.retry.backoff_s = r.f64();
    g.retry.backoff_factor = r.f64();
    g.retry.backoff_cap_s = r.f64();

    core::EvalSettings &e = spec.eval;
    e.duration_s = r.f64();
    e.f_lo_hz = r.f64();
    e.f_hi_hz = r.f64();
    e.sa_samples = static_cast<std::size_t>(r.u64());
    e.active_cores = static_cast<std::size_t>(r.u64());

    spec.mode = modeFromWire(r.u8());
    EmfiJobSpec &fi = spec.emfi;
    fi.victim_seed = r.u64();
    fi.victim_length = static_cast<std::size_t>(r.u64());
    fi.target_slot = static_cast<std::size_t>(r.u64());
    fi.schedule_seed = r.u64();
    fi.t0_max_s = r.f64();
    fi.amplitude_max_a = r.f64();

    spec.job_class = jobClassFromWire(r.u8());
    spec.deadline_s = r.f64();
    return spec;
}

void
encodeResumeRequest(WireWriter &w, const ResumeRequest &req)
{
    w.u64(req.token);
    w.u64(req.last_acked_generation);
}

ResumeRequest
decodeResumeRequest(WireReader &r)
{
    ResumeRequest req;
    req.token = r.u64();
    req.last_acked_generation = r.u64();
    return req;
}

void
encodeResumeReply(WireWriter &w, const ResumeReply &reply)
{
    w.u64(reply.id);
    w.u8(static_cast<std::uint8_t>(reply.platform));
    w.u64(reply.generations_done);
}

ResumeReply
decodeResumeReply(WireReader &r)
{
    ResumeReply reply;
    reply.id = r.u64();
    reply.platform = presetFromWire(r.u8());
    reply.generations_done = r.u64();
    return reply;
}

void
encodeProgress(WireWriter &w, const JobProgress &p)
{
    w.u64(p.generation);
    w.u64(p.generations_done);
    w.u64(p.generations_total);
    w.f64(p.best_fitness);
    w.f64(p.mean_fitness);
    w.f64(p.dominant_freq_hz);
}

JobProgress
decodeProgress(WireReader &r)
{
    JobProgress p;
    p.generation = static_cast<std::size_t>(r.u64());
    p.generations_done = static_cast<std::size_t>(r.u64());
    p.generations_total = static_cast<std::size_t>(r.u64());
    p.best_fitness = r.f64();
    p.mean_fitness = r.f64();
    p.dominant_freq_hz = r.f64();
    return p;
}

void
encodeJobResult(WireWriter &w, const JobResult &result,
                const isa::InstructionPool &pool)
{
    w.str(result.metric);
    w.u8(result.from_artifact_store ? 1 : 0);
    w.u64(result.fingerprint);

    const ga::GaResult &g = result.ga;
    w.str(g.best.serialize(pool));
    w.f64(g.best_fitness);
    encodeEvalDetail(w, g.best_detail);
    w.f64(g.estimated_lab_seconds);
    encodeEvalStats(w, g.eval_stats);

    w.u64(g.history.size());
    for (const ga::GenerationRecord &rec : g.history) {
        w.u64(rec.generation);
        w.f64(rec.best_fitness);
        w.f64(rec.mean_fitness);
        encodeEvalDetail(w, rec.best_detail);
        w.str(rec.best.serialize(pool));
    }
}

JobResult
decodeJobResult(WireReader &r, const isa::InstructionPool &pool)
{
    JobResult result;
    result.metric = r.str();
    result.from_artifact_store = r.u8() != 0;
    result.fingerprint = r.u64();

    ga::GaResult &g = result.ga;
    g.best = isa::Kernel::deserialize(pool, r.str());
    g.best_fitness = r.f64();
    g.best_detail = decodeEvalDetail(r);
    g.estimated_lab_seconds = r.f64();
    g.eval_stats = decodeEvalStats(r);

    const std::uint64_t n = r.u64();
    if (n > kMaxFrameBytes)
        throw ProtocolError("history length implausible");
    g.history.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
        ga::GenerationRecord rec;
        rec.generation = static_cast<std::size_t>(r.u64());
        rec.best_fitness = r.f64();
        rec.mean_fitness = r.f64();
        rec.best_detail = decodeEvalDetail(r);
        rec.best = isa::Kernel::deserialize(pool, r.str());
        g.history.push_back(std::move(rec));
    }
    return result;
}

} // namespace service
} // namespace emstress
