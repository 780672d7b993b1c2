/**
 * @file
 * Length-prefixed binary wire protocol of the search service.
 *
 * Framing: every message is `u32 length | u8 type | body`, all
 * little-endian, where `length` counts the type byte plus the body.
 * Bodies are flat field sequences — unsigned integers in fixed-width
 * little-endian, doubles as their IEEE-754 bit patterns in a u64
 * (std::bit_cast both ways), strings as `u32 length | bytes`. Routing
 * doubles through their bit pattern is what makes results byte-exact
 * across the wire: a fitness decoded on the client compares equal,
 * bit for bit, to the fitness the fleet computed.
 *
 * Each record is described once, by one field list (`fields()`, in
 * wire order). WireWriter and WireReader both walk that list, so
 * encode and decode agree by construction; the list's static_assert
 * on the record's member count makes a new member fail the build
 * until it is listed.
 *
 * The codec is transport-agnostic: the socket transport writes frames
 * to a TCP stream, and the in-process transport round-trips every
 * spec and result through this same encoding so tests pin the codec's
 * bit-exactness without opening a socket.
 *
 * Protocol flow (one request/stream at a time per connection):
 *   client                         server
 *   kPing(version)             ->
 *                              <- kPong(version)
 *   kSubmit(token, JobSpec)    ->
 *                              <- kAccepted(id) | kError(reason)
 *                              <- kProgress(id, progress)...
 *                              <- kCompleted(id, JobResult)
 *                               | kCancelled(id) | kFailed(id, err)
 *   kResume(token, last_gen)   ->    (fresh connection, after a drop)
 *                              <- kResumed(id, platform, done)
 *                               | kError(reason)
 *                              <- kProgress/terminal as for kSubmit,
 *                                 replayed past last_gen
 *   kCancel(id)                ->    (usually a second connection)
 *                              <- kAck(ok)
 *   kMetrics                   ->
 *                              <- kMetricsReply(json)
 *   kShutdown                  ->
 *                              <- kAck(1), then the server exits
 *
 * Resume tokens are client-generated 64-bit values (0 = streaming
 * without resume support, the version-1 behavior). A kSubmit carrying
 * a nonzero token registers it with the scheduler; after a connection
 * drop the scheduler parks the stream for a grace window and a
 * kResume on a fresh connection re-attaches, replaying every retained
 * event whose generation count exceeds last_acked_generation.
 */

#ifndef EMSTRESS_SERVICE_WIRE_H
#define EMSTRESS_SERVICE_WIRE_H

#include <bit>
#include <concepts>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "isa/kernel.h"
#include "isa/pool.h"
#include "service/job.h"

namespace emstress {
namespace service {

/** Protocol version exchanged in kPing/kPong. Version 2 added resume
 *  tokens on kSubmit, the kResume/kResumed pair and the priority
 *  class + deadline fields of JobSpec. Version 3 dropped the
 *  evaluation-path byte that followed EvalSettings::active_cores
 *  (every evaluation streams), so a version-2 kSubmit body is one
 *  byte too long and fails to decode. */
inline constexpr std::uint32_t kProtocolVersion = 3;

/** Upper bound on a frame body (malformed-stream guard). */
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/** Message types. Requests < 0x80, responses >= 0x80. */
enum class MsgType : std::uint8_t
{
    kPing = 0x01,
    kSubmit = 0x02,
    kCancel = 0x03,
    kMetrics = 0x04,
    kShutdown = 0x05,
    kResume = 0x06,

    kPong = 0x81,
    kAccepted = 0x82,
    kProgress = 0x83,
    kCompleted = 0x84,
    kCancelled = 0x85,
    kFailed = 0x86,
    kAck = 0x87,
    kMetricsReply = 0x88,
    kResumed = 0x89,
    kError = 0xFF,
};

/**
 * Validate a raw type byte against the known message set. The frame
 * reader funnels every received byte through this before dispatch, so
 * an out-of-enum value can never reach a switch as a MsgType.
 * @throws ProtocolError for unknown bytes.
 */
MsgType msgTypeFromWire(std::uint8_t raw);

/** Malformed frame or field. */
class ProtocolError : public std::runtime_error
{
  public:
    explicit ProtocolError(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {}
};

/** Last enumerator of each enum that crosses the wire as a u8. The
 *  reader rejects any byte past it, so an out-of-range value never
 *  becomes an enum. Enums without an entry cannot cross the wire. */
template <class E>
struct WireEnum;

template <>
struct WireEnum<PlatformPreset>
{
    static constexpr PlatformPreset kLast = PlatformPreset::kAthlon;
};

template <>
struct WireEnum<core::VirusMetric>
{
    static constexpr core::VirusMetric kLast =
        core::VirusMetric::PeakToPeak;
};

template <>
struct WireEnum<JobMode>
{
    static constexpr JobMode kLast = JobMode::kActiveEmfi;
};

template <>
struct WireEnum<JobClass>
{
    static constexpr JobClass kLast = JobClass::kInteractive;
};

/** A std::vector: crosses the wire as a u64 count plus elements. */
template <class T>
concept IsVector =
    std::same_as<T, std::vector<typename T::value_type>>;

/**
 * Serializer for one message body. The u8/u32/u64/f64/str primitives
 * write single fields; operator() writes whole records by walking
 * their field list (fields() below), one field at a time.
 */
class WireWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        bytes_.push_back(v);
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            bytes_.push_back(
                static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            bytes_.push_back(
                static_cast<std::uint8_t>(v >> (8 * i)));
    }

    /** IEEE-754 bit pattern: the exact double, not a decimal trip. */
    void
    f64(double v)
    {
        u64(std::bit_cast<std::uint64_t>(v));
    }

    void
    str(const std::string &s)
    {
        if (s.size() > kMaxFrameBytes)
            throw ProtocolError("string field too large");
        u32(static_cast<std::uint32_t>(s.size()));
        bytes_.insert(bytes_.end(), s.begin(), s.end());
    }

    /** Pool that kernel fields serialize against. */
    WireWriter &
    kernelPool(const isa::InstructionPool &pool)
    {
        pool_ = &pool;
        return *this;
    }

    /** Write each argument: a field or a record with a field list. */
    template <class... T>
    void
    operator()(const T &...v)
    {
        (put(v), ...);
    }

    const std::vector<std::uint8_t> &bytes() const { return bytes_; }

  private:
    /** One field at its wire width: size_t as u64, max_attempts as
     *  u32, doubles as bit patterns, bools and enums as u8, kernels
     *  as text, vectors as a u64 count plus elements, records through
     *  their field list. */
    template <class T>
    void
    put(const T &v)
    {
        if constexpr (std::same_as<T, bool>)
            u8(v ? 1 : 0);
        else if constexpr (std::is_enum_v<T>)
            u8(static_cast<std::uint8_t>(v));
        else if constexpr (std::same_as<T, double>)
            f64(v);
        else if constexpr (std::same_as<T, std::uint32_t>)
            u32(v);
        else if constexpr (std::unsigned_integral<T>)
            u64(v);
        else if constexpr (std::same_as<T, std::string>)
            str(v);
        else if constexpr (std::same_as<T, isa::Kernel>) {
            if (pool_ == nullptr)
                throw std::logic_error("kernel field needs a pool");
            str(v.serialize(*pool_));
        } else if constexpr (IsVector<T>) {
            u64(v.size());
            for (const auto &e : v)
                put(e);
        } else {
            fields(*this, v);
        }
    }

    std::vector<std::uint8_t> bytes_;
    const isa::InstructionPool *pool_ = nullptr;
};

/**
 * Bounds-checked deserializer for one message body: the mirror of
 * WireWriter. operator() reads records through the same field lists
 * the writer walks, so what one side writes the other reads.
 */
class WireReader
{
  public:
    WireReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {}

    explicit WireReader(const std::vector<std::uint8_t> &bytes)
        : WireReader(bytes.data(), bytes.size())
    {}

    std::uint8_t
    u8()
    {
        need(1);
        return data_[pos_++];
    }

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    double
    f64()
    {
        return std::bit_cast<double>(u64());
    }

    std::string
    str()
    {
        const std::uint32_t n = u32();
        need(n);
        std::string s(reinterpret_cast<const char *>(data_ + pos_),
                      n);
        pos_ += n;
        return s;
    }

    /** Pool that kernel fields deserialize against. */
    WireReader &
    kernelPool(const isa::InstructionPool &pool)
    {
        pool_ = &pool;
        return *this;
    }

    /** Read into each argument: a field or a record. */
    template <class... T>
    void
    operator()(T &...v)
    {
        (get(v), ...);
    }

    /** Read one default-initialized T. */
    template <class T>
    T
    read()
    {
        T v;
        get(v);
        return v;
    }

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return size_ - pos_; }

    /** Assert the body was consumed exactly. */
    void
    expectEnd() const
    {
        if (pos_ != size_)
            throw ProtocolError("trailing bytes in message body");
    }

  private:
    void
    need(std::size_t n) const
    {
        if (size_ - pos_ < n)
            throw ProtocolError("truncated message body");
    }

    /** Mirror of WireWriter::put. An enum byte past the enum's last
     *  value, or a vector count past the unread bytes (every element
     *  takes at least one), is malformed. Vectors grow element by
     *  element, never reserved from the untrusted count. */
    template <class T>
    void
    get(T &v)
    {
        if constexpr (std::same_as<T, bool>)
            v = u8() != 0;
        else if constexpr (std::is_enum_v<T>) {
            const std::uint8_t raw = u8();
            if (raw > static_cast<std::uint8_t>(WireEnum<T>::kLast))
                throw ProtocolError("enum value out of range on wire");
            v = static_cast<T>(raw);
        } else if constexpr (std::same_as<T, double>)
            v = f64();
        else if constexpr (std::same_as<T, std::uint32_t>)
            v = u32();
        else if constexpr (std::unsigned_integral<T>)
            v = static_cast<T>(u64());
        else if constexpr (std::same_as<T, std::string>)
            v = str();
        else if constexpr (std::same_as<T, isa::Kernel>) {
            if (pool_ == nullptr)
                throw std::logic_error("kernel field needs a pool");
            v = isa::Kernel::deserialize(*pool_, str());
        } else if constexpr (IsVector<T>) {
            const std::uint64_t n = u64();
            if (n > remaining())
                throw ProtocolError("vector length exceeds message body");
            v.clear();
            for (std::uint64_t i = 0; i < n; ++i)
                get(v.emplace_back());
        } else {
            fields(*this, v);
        }
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    const isa::InstructionPool *pool_ = nullptr;
};

/** Assemble a full frame (length prefix + type + body). */
std::vector<std::uint8_t> buildFrame(MsgType type,
                                     const WireWriter &body);

/** Body of a kResume request: which stream to re-attach and how far
 *  the client already got. */
struct ResumeRequest
{
    /// Client-generated token the original kSubmit carried.
    std::uint64_t token = 0;
    /// generations_done of the last progress event the client
    /// processed; replay starts past this point.
    std::uint64_t last_acked_generation = 0;
};

/** Body of a kResumed reply: the re-attached stream's identity. */
struct ResumeReply
{
    JobId id = 0;
    PlatformPreset platform = PlatformPreset::kJunoA72;
    /// Generations the job has stepped so far (resume telemetry).
    std::uint64_t generations_done = 0;
};

namespace detail {

/** Converts to any member type, to count an aggregate's members. */
struct AnyMember
{
    template <class T>
    operator T() const;
};

/** Number of members of aggregate T (brace-initializer probe). */
template <class T, class... M>
consteval std::size_t
aggregateArity()
{
    if constexpr (requires { T{M{}..., AnyMember{}}; })
        return aggregateArity<T, M..., AnyMember>();
    else
        return sizeof...(M);
}

} // namespace detail

/** `T` is record `R`, const or not: the writer walks const records,
 *  every other archive mutable ones. */
template <class T, class R>
concept Record = std::same_as<std::remove_const_t<T>, R>;

/// @{
/**
 * Field lists: the one description of each record's body, in wire
 * order. Encode and decode both walk them, so the two sides cannot
 * disagree. Each list is guarded by its record's member count: a
 * member added to a record fails the build here until it is listed
 * (or, for a member that must not cross the wire, until the count
 * is updated with a comment saying why).
 */
static_assert(detail::aggregateArity<RetryPolicy>() == 4);
void
fields(auto &ar, Record<RetryPolicy> auto &p)
{
    ar(p.max_attempts, p.backoff_s, p.backoff_factor,
       p.backoff_cap_s);
}

static_assert(detail::aggregateArity<ga::GaConfig>() == 12);
void
fields(auto &ar, Record<ga::GaConfig> auto &g)
{
    ar(g.population, g.generations, g.kernel_length, g.mutation_rate,
       g.operand_mutation_ratio, g.tournament_k, g.elite, g.seed,
       g.restarts, g.threads, g.memoize, g.retry);
}

static_assert(detail::aggregateArity<core::EvalSettings>() == 5);
void
fields(auto &ar, Record<core::EvalSettings> auto &e)
{
    ar(e.duration_s, e.f_lo_hz, e.f_hi_hz, e.sa_samples,
       e.active_cores);
}

static_assert(detail::aggregateArity<EmfiJobSpec>() == 6);
void
fields(auto &ar, Record<EmfiJobSpec> auto &fi)
{
    ar(fi.victim_seed, fi.victim_length, fi.target_slot,
       fi.schedule_seed, fi.t0_max_s, fi.amplitude_max_a);
}

/** job_class and deadline_s (version 2) come last, so the
 *  result-defining prefix stayed byte-stable across versions. Like
 *  the tenant, neither is fingerprinted: they change job latency,
 *  never job results. */
static_assert(detail::aggregateArity<JobSpec>() == 10);
void
fields(auto &ar, Record<JobSpec> auto &s)
{
    ar(s.tenant, s.platform, s.platform_seed, s.metric, s.ga, s.eval,
       s.mode, s.emfi, s.job_class, s.deadline_s);
}

static_assert(detail::aggregateArity<ResumeRequest>() == 2);
void
fields(auto &ar, Record<ResumeRequest> auto &q)
{
    ar(q.token, q.last_acked_generation);
}

static_assert(detail::aggregateArity<ResumeReply>() == 3);
void
fields(auto &ar, Record<ResumeReply> auto &q)
{
    ar(q.id, q.platform, q.generations_done);
}

static_assert(detail::aggregateArity<JobProgress>() == 6);
void
fields(auto &ar, Record<JobProgress> auto &p)
{
    ar(p.generation, p.generations_done, p.generations_total,
       p.best_fitness, p.mean_fitness, p.dominant_freq_hz);
}

static_assert(detail::aggregateArity<ga::EvalDetail>() == 4);
void
fields(auto &ar, Record<ga::EvalDetail> auto &d)
{
    ar(d.dominant_freq_hz, d.metric_raw, d.measurement_seconds,
       d.samples_materialized);
}

static_assert(detail::aggregateArity<ga::EvalStats>() == 12);
void
fields(auto &ar, Record<ga::EvalStats> auto &s)
{
    ar(s.evals, s.cache_hits, s.elites_reused, s.threads,
       s.eval_seconds, s.wall_seconds, s.samples_materialized,
       s.faults_injected, s.retries, s.permanent_failures,
       s.fault_backoff_seconds, s.tasks_cancelled);
}

static_assert(detail::aggregateArity<ga::GenerationRecord>() == 5);
void
fields(auto &ar, Record<ga::GenerationRecord> auto &r)
{
    ar(r.generation, r.best_fitness, r.mean_fitness, r.best_detail,
       r.best);
}

static_assert(detail::aggregateArity<ga::GaResult>() == 6);
void
fields(auto &ar, Record<ga::GaResult> auto &g)
{
    ar(g.best, g.best_fitness, g.best_detail, g.estimated_lab_seconds,
       g.eval_stats, g.history);
}

static_assert(detail::aggregateArity<JobResult>() == 4);
void
fields(auto &ar, Record<JobResult> auto &r)
{
    ar(r.metric, r.from_artifact_store, r.fingerprint, r.ga);
}
/// @}

/// @{ Body codecs for the structured payloads.
void encodeJobSpec(WireWriter &w, const JobSpec &spec);
JobSpec decodeJobSpec(WireReader &r);

void encodeResumeRequest(WireWriter &w, const ResumeRequest &req);
ResumeRequest decodeResumeRequest(WireReader &r);

void encodeResumeReply(WireWriter &w, const ResumeReply &reply);
ResumeReply decodeResumeReply(WireReader &r);

void encodeProgress(WireWriter &w, const JobProgress &p);
JobProgress decodeProgress(WireReader &r);

/** Kernels inside a result serialize against the job's pool. */
void encodeJobResult(WireWriter &w, const JobResult &result,
                     const isa::InstructionPool &pool);
JobResult decodeJobResult(WireReader &r,
                          const isa::InstructionPool &pool);
/// @}

} // namespace service
} // namespace emstress

#endif // EMSTRESS_SERVICE_WIRE_H
