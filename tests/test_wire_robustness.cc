/**
 * @file
 * Wire-protocol robustness and streaming-recovery tests: the frame
 * reader against truncation, zero/oversize lengths and unknown type
 * bytes (every malformed input must surface as ProtocolError, never
 * UB or a silent misparse); the resume codec pair; and the socket
 * transport's crash-tolerance contract — a stream that loses its
 * connection (or its whole daemon) resumes or re-submits and still
 * delivers every generation exactly once, with the final result
 * bit-identical to a direct run.
 */

#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "ga/ga_engine.h"
#include "service/job.h"
#include "service/scheduler.h"
#include "service/transport_socket.h"
#include "service/wire.h"
#include "util/error.h"

namespace emstress {
namespace service {
namespace {

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

// ---------------------------------------------------------------
// Message-type validation (regression: a garbage type byte used to
// be cast straight into MsgType and fall through dispatch switches).
// ---------------------------------------------------------------

TEST(WireRobustness, MsgTypeFromWireAcceptsEveryKnownByte)
{
    const std::vector<MsgType> known = {
        MsgType::kPing,      MsgType::kSubmit,
        MsgType::kCancel,    MsgType::kMetrics,
        MsgType::kShutdown,  MsgType::kResume,
        MsgType::kPong,      MsgType::kAccepted,
        MsgType::kProgress,  MsgType::kCompleted,
        MsgType::kCancelled, MsgType::kFailed,
        MsgType::kAck,       MsgType::kMetricsReply,
        MsgType::kResumed,   MsgType::kError,
    };
    for (const MsgType type : known)
        EXPECT_EQ(msgTypeFromWire(static_cast<std::uint8_t>(type)),
                  type);
}

TEST(WireRobustness, MsgTypeFromWireRejectsUnknownBytes)
{
    const std::uint8_t bad[] = {0x00, 0x07, 0x42, 0x80, 0x8a, 0xfe};
    for (const std::uint8_t raw : bad)
        EXPECT_THROW((void)msgTypeFromWire(raw), ProtocolError)
            << "byte 0x" << std::hex << static_cast<int>(raw);
}

// ---------------------------------------------------------------
// Frame reader over a real socket pair.
// ---------------------------------------------------------------

/** Connected AF_UNIX pair; both ends closed on destruction. */
struct SocketPair
{
    int fds[2] = {-1, -1};

    SocketPair()
    {
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    }

    ~SocketPair()
    {
        closeWriter();
        if (fds[1] >= 0)
            ::close(fds[1]);
    }

    void
    closeWriter()
    {
        if (fds[0] >= 0) {
            ::close(fds[0]);
            fds[0] = -1;
        }
    }

    void
    sendRaw(const std::vector<std::uint8_t> &bytes)
    {
        ASSERT_EQ(::send(fds[0], bytes.data(), bytes.size(),
                         MSG_NOSIGNAL),
                  static_cast<ssize_t>(bytes.size()));
    }
};

/** Little-endian frame header for a claimed payload length. */
std::vector<std::uint8_t>
header(std::uint32_t len)
{
    std::vector<std::uint8_t> h(4);
    for (int i = 0; i < 4; ++i)
        h[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(len >> (8 * i));
    return h;
}

TEST(WireRobustness, FrameRoundTripsOverSocket)
{
    SocketPair pair;
    WireWriter body;
    body.u64(0x1234abcd);
    body.str("hello");
    writeFrame(pair.fds[0], MsgType::kAccepted, body);

    Frame frame;
    ASSERT_TRUE(readFrame(pair.fds[1], frame));
    EXPECT_EQ(frame.type, MsgType::kAccepted);
    WireReader r(frame.body);
    EXPECT_EQ(r.u64(), 0x1234abcdu);
    EXPECT_EQ(r.str(), "hello");
    r.expectEnd();
}

TEST(WireRobustness, OrderlyEofBeforeAFrameIsNotAnError)
{
    SocketPair pair;
    pair.closeWriter();
    Frame frame;
    EXPECT_FALSE(readFrame(pair.fds[1], frame));
}

TEST(WireRobustness, TruncationMidHeaderThrows)
{
    SocketPair pair;
    pair.sendRaw({0x05, 0x00}); // 2 of 4 header bytes
    pair.closeWriter();
    Frame frame;
    EXPECT_THROW(readFrame(pair.fds[1], frame), SimulationError);
}

TEST(WireRobustness, TruncationMidPayloadThrows)
{
    SocketPair pair;
    pair.sendRaw(header(10));
    pair.sendRaw({static_cast<std::uint8_t>(MsgType::kPing), 1, 2});
    pair.closeWriter();
    Frame frame;
    EXPECT_THROW(readFrame(pair.fds[1], frame), SimulationError);
}

TEST(WireRobustness, ZeroLengthFrameRejected)
{
    SocketPair pair;
    pair.sendRaw(header(0));
    Frame frame;
    EXPECT_THROW(readFrame(pair.fds[1], frame), ProtocolError);
}

TEST(WireRobustness, OversizeFrameRejectedBeforeAllocation)
{
    SocketPair pair;
    pair.sendRaw(header(kMaxFrameBytes + 1));
    Frame frame;
    EXPECT_THROW(readFrame(pair.fds[1], frame), ProtocolError);
}

TEST(WireRobustness, GarbageTypeByteRejected)
{
    // The regression this PR fixes: a one-byte frame whose type is
    // not in the message set must throw at the validation funnel,
    // not flow into dispatch as an out-of-enum MsgType.
    SocketPair pair;
    pair.sendRaw(header(1));
    pair.sendRaw({0x42});
    Frame frame;
    EXPECT_THROW(readFrame(pair.fds[1], frame), ProtocolError);
}

// ---------------------------------------------------------------
// Resume codec pair.
// ---------------------------------------------------------------

TEST(WireRobustness, ResumeRequestRoundTripsAndRejectsTruncation)
{
    ResumeRequest req;
    req.token = 0xfeedfacecafebeef;
    req.last_acked_generation = 41;
    WireWriter w;
    encodeResumeRequest(w, req);
    WireReader r(w.bytes());
    const ResumeRequest back = decodeResumeRequest(r);
    r.expectEnd();
    EXPECT_EQ(back.token, req.token);
    EXPECT_EQ(back.last_acked_generation, req.last_acked_generation);

    for (std::size_t cut = 0; cut < w.bytes().size(); cut += 3) {
        WireReader t(w.bytes().data(), cut);
        EXPECT_THROW((void)decodeResumeRequest(t), ProtocolError)
            << "cut=" << cut;
    }
}

TEST(WireRobustness, ResumeReplyRoundTripsAndRejectsTruncation)
{
    ResumeReply reply;
    reply.id = 712;
    reply.platform = PlatformPreset::kAthlon;
    reply.generations_done = 99;
    WireWriter w;
    encodeResumeReply(w, reply);
    WireReader r(w.bytes());
    const ResumeReply back = decodeResumeReply(r);
    r.expectEnd();
    EXPECT_EQ(back.id, reply.id);
    EXPECT_EQ(back.platform, reply.platform);
    EXPECT_EQ(back.generations_done, reply.generations_done);

    for (std::size_t cut = 0; cut < w.bytes().size(); cut += 3) {
        WireReader t(w.bytes().data(), cut);
        EXPECT_THROW((void)decodeResumeReply(t), ProtocolError)
            << "cut=" << cut;
    }
}

// ---------------------------------------------------------------
// Protocol version 3: the evaluation-path byte is gone.
// ---------------------------------------------------------------

TEST(WireRobustness, VersionTwoSubmitBodyIsRejected)
{
    // A version-2 kSubmit body carried one more byte, right after
    // EvalSettings::active_cores (the retired streaming switch).
    // Read as version 3 it must fail closed, whichever value the
    // byte held, never decode as a shifted spec.
    JobSpec spec;
    spec.tenant = "v2-client";
    spec.ga.population = 12;
    spec.ga.generations = 4;
    WireWriter w;
    w.u64(0); // resume token
    encodeJobSpec(w, spec);
    // Fixed-width fields after active_cores: mode (1), six EMFI
    // fields (6 x 8), job class (1), deadline (8).
    constexpr std::size_t kTail = 1 + 6 * 8 + 1 + 8;
    ASSERT_GT(w.bytes().size(), kTail);
    {
        WireReader v3(w.bytes());
        (void)v3.u64();
        EXPECT_EQ(decodeJobSpec(v3).ga.population, 12u);
        v3.expectEnd();
    }
    for (const std::uint8_t streaming : {std::uint8_t{0},
                                         std::uint8_t{1}}) {
        std::vector<std::uint8_t> v2 = w.bytes();
        v2.insert(v2.end() - static_cast<std::ptrdiff_t>(kTail),
                  streaming);
        WireReader r(v2);
        (void)r.u64();
        EXPECT_THROW(
            {
                (void)decodeJobSpec(r);
                r.expectEnd();
            },
            ProtocolError)
            << "streaming byte " << int{streaming};
    }
}

// ---------------------------------------------------------------
// Streaming reconnect/resume over real sockets.
// ---------------------------------------------------------------

/** Synthetic evaluator (mirrors test_service.cc): cheap, pure,
 *  cloneable, so socket tests finish in milliseconds per job. */
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

std::unique_ptr<ga::FitnessEvaluator>
syntheticFactory(const JobSpec &spec)
{
    return std::make_unique<SyntheticFitness>(
        presetPool(spec.platform));
}

JobSpec
streamSpec(std::uint64_t seed, std::size_t generations)
{
    JobSpec spec;
    spec.ga.population = 10;
    spec.ga.generations = generations;
    spec.ga.kernel_length = 12;
    spec.ga.elite = 2;
    spec.ga.seed = seed;
    return spec;
}

ga::GaResult
directRun(const JobSpec &spec)
{
    auto evaluator = syntheticFactory(spec);
    ga::GaEngine engine(presetPool(spec.platform), spec.ga);
    return engine.run(*evaluator);
}

void
expectBitIdentical(const ga::GaResult &a, const ga::GaResult &b,
                   const isa::InstructionPool &pool)
{
    EXPECT_EQ(bits(a.best_fitness), bits(b.best_fitness));
    EXPECT_EQ(a.best.serialize(pool), b.best.serialize(pool));
    EXPECT_EQ(bits(a.estimated_lab_seconds),
              bits(b.estimated_lab_seconds));
    EXPECT_EQ(a.eval_stats.evals, b.eval_stats.evals);
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t i = 0; i < a.history.size(); ++i) {
        EXPECT_EQ(bits(a.history[i].best_fitness),
                  bits(b.history[i].best_fitness));
        EXPECT_EQ(a.history[i].best.serialize(pool),
                  b.history[i].best.serialize(pool));
    }
}

/**
 * Lets the first `free_evals` evaluations through, then parks every
 * later one until open(): holds a job mid-search for as long as a
 * test needs it.
 */
class EvalGate
{
  public:
    explicit EvalGate(std::size_t free_evals) : free_(free_evals) {}

    void
    pass()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (free_ > 0) {
            --free_;
            return;
        }
        cv_.wait(lock, [this] { return open_; });
    }

    void
    open()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            open_ = true;
        }
        cv_.notify_all();
    }

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    std::size_t free_;  // guards: mutex_
    bool open_ = false; // guards: mutex_
};

/** SyntheticFitness behind an EvalGate shared by every clone. */
class GatedFitness : public SyntheticFitness
{
  public:
    GatedFitness(const isa::InstructionPool &pool,
                 std::shared_ptr<EvalGate> gate)
        : SyntheticFitness(pool), pool_(pool), gate_(std::move(gate))
    {}

    double
    evaluate(const isa::Kernel &kernel,
             ga::EvalDetail *detail) override
    {
        gate_->pass();
        return SyntheticFitness::evaluate(kernel, detail);
    }

    std::unique_ptr<ga::FitnessEvaluator>
    clone() const override
    {
        return std::make_unique<GatedFitness>(pool_, gate_);
    }

  private:
    const isa::InstructionPool &pool_;
    std::shared_ptr<EvalGate> gate_;
};

/** A running daemon: service + socket server + accept thread. */
struct Daemon
{
    std::unique_ptr<SearchService> service;
    std::unique_ptr<SocketServer> server;
    std::thread accept_thread;
    /// Opened by stop() once the server is down, so a gated job can
    /// finish its step and the service can shut down.
    std::shared_ptr<EvalGate> gate;

    explicit Daemon(const ServiceConfig &config,
                    std::shared_ptr<EvalGate> eval_gate = nullptr)
        : service(std::make_unique<SearchService>(config)),
          gate(std::move(eval_gate))
    {
        server = std::make_unique<SocketServer>(
            *service, SocketServer::Options{});
        accept_thread =
            std::thread([this] { server->serve(); });
    }

    ~Daemon() { stop(); }

    std::uint16_t port() const { return server->port(); }

    void
    stop()
    {
        if (server)
            server->requestStop();
        if (accept_thread.joinable())
            accept_thread.join();
        server.reset();
        if (gate)
            gate->open();
        service.reset();
    }
};

ServiceConfig
daemonConfig(std::size_t fleet_threads,
             const std::string &spill_dir = "")
{
    ServiceConfig config;
    config.fleet_threads = fleet_threads;
    config.runners = 2;
    config.evaluator_factory = &syntheticFactory;
    config.artifacts.spill_dir = spill_dir;
    return config;
}

RetryPolicy
fastRetry()
{
    RetryPolicy retry;
    retry.max_attempts = 20;
    retry.backoff_s = 0.05;
    retry.backoff_factor = 1.3;
    retry.backoff_cap_s = 0.25;
    return retry;
}

/**
 * Drive one crash-tolerant stream to completion, severing the
 * connection after `drop_after` progress events. Asserts each
 * generation arrives exactly once and returns the final result.
 */
std::shared_ptr<const JobResult>
streamWithDrop(ReconnectingClient &client, const JobSpec &spec,
               std::size_t drop_after)
{
    const Submission sub = client.submit(spec);
    EXPECT_TRUE(sub.accepted);

    std::set<std::size_t> seen;
    std::shared_ptr<const JobResult> result;
    for (;;) {
        const JobEvent ev = client.nextEvent();
        if (ev.type == JobEventType::kProgress) {
            EXPECT_TRUE(
                seen.insert(ev.progress.generations_done).second)
                << "generation "
                << ev.progress.generations_done
                << " delivered twice";
            if (seen.size() == drop_after)
                client.dropConnection();
            continue;
        }
        EXPECT_EQ(ev.type, JobEventType::kCompleted);
        result = ev.result;
        break;
    }
    EXPECT_EQ(seen.size(), spec.ga.generations);
    return result;
}

TEST(StreamingResume, DroppedConnectionResumesBitIdentical)
{
    // The ISSUE acceptance criterion: resumed streams at fleet
    // widths 1, 2 and 8 deliver every generation exactly once and a
    // final result bit-identical to a direct run.
    const JobSpec spec = streamSpec(501, 30);
    const ga::GaResult direct = directRun(spec);

    for (const std::size_t fleet : {1u, 2u, 8u}) {
        Daemon daemon(daemonConfig(fleet));
        ReconnectingClient::Options options;
        options.port = daemon.port();
        options.resume_token = 0xab00 + fleet;
        options.retry = fastRetry();
        ReconnectingClient client(std::move(options));

        const auto result = streamWithDrop(client, spec, 2);
        ASSERT_NE(result, nullptr) << "fleet=" << fleet;
        expectBitIdentical(result->ga, direct,
                           presetPool(spec.platform));
        EXPECT_GE(client.resumes(), 1u) << "fleet=" << fleet;
        EXPECT_EQ(client.resubmits(), 0u) << "fleet=" << fleet;
    }
}

TEST(StreamingResume, DaemonRestartFallsBackToResubmit)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(::testing::TempDir())
                         / "emstress_restart_stream";
    fs::remove_all(dir);

    const JobSpec spec = streamSpec(611, 12);
    const ga::GaResult direct = directRun(spec);
    std::atomic<std::uint16_t> port{0};

    // The first daemon's job parks once it has made at most the
    // fresh evaluations of its initial population and three bred
    // generations: past generation 2, so the progress events below
    // arrive, yet short of the end, so the job cannot complete (and
    // its kCompleted reach the old socket) before the daemon dies.
    const std::size_t free_evals =
        spec.ga.population + 3 * (spec.ga.population - spec.ga.elite);
    ASSERT_LT(free_evals, direct.eval_stats.evals);
    ServiceConfig gated = daemonConfig(2, dir.string());
    auto gate = std::make_shared<EvalGate>(free_evals);
    gated.evaluator_factory = [gate](const JobSpec &s) {
        return std::make_unique<GatedFitness>(presetPool(s.platform),
                                              gate);
    };
    auto daemon = std::make_unique<Daemon>(gated, gate);
    port.store(daemon->port());

    ReconnectingClient::Options options;
    options.resume_token = 0x77;
    options.retry = fastRetry();
    options.port_provider = [&port] { return port.load(); };
    ReconnectingClient client(std::move(options));
    const Submission sub = client.submit(spec);
    ASSERT_TRUE(sub.accepted);

    // Take a couple of progress events, then kill the daemon whole —
    // in-memory streams, token registry, scheduler, everything.
    std::size_t last_gen = 0;
    while (last_gen < 2) {
        const JobEvent ev = client.nextEvent();
        ASSERT_EQ(ev.type, JobEventType::kProgress);
        last_gen = ev.progress.generations_done;
    }
    daemon->stop();

    // Restart on a fresh port over the same spill directory.
    daemon = std::make_unique<Daemon>(daemonConfig(2, dir.string()));
    port.store(daemon->port());

    // The next read enters the recovery ladder: reconnect, kResume
    // rejected (token died with the old daemon), re-submit under the
    // same token. Progress never regresses or repeats, and the final
    // bits match the direct run regardless of whether the restarted
    // daemon re-ran the search or served the spilled artifact.
    std::shared_ptr<const JobResult> result;
    for (;;) {
        const JobEvent ev = client.nextEvent();
        if (ev.type == JobEventType::kProgress) {
            EXPECT_GT(ev.progress.generations_done, last_gen);
            last_gen = ev.progress.generations_done;
            continue;
        }
        ASSERT_EQ(ev.type, JobEventType::kCompleted);
        result = ev.result;
        break;
    }
    ASSERT_NE(result, nullptr);
    expectBitIdentical(result->ga, direct,
                       presetPool(spec.platform));
    EXPECT_EQ(client.resubmits(), 1u);

    daemon->stop();
    fs::remove_all(dir);
}

TEST(StreamingResume, RestartServesSpilledArtifactsOverSocket)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(::testing::TempDir())
                         / "emstress_restart_disk";
    fs::remove_all(dir);

    const JobSpec spec = streamSpec(701, 8);
    const ga::GaResult direct = directRun(spec);

    // First daemon lifetime: run the job to completion so the
    // artifact spills.
    {
        Daemon daemon(daemonConfig(2, dir.string()));
        SocketClient client("127.0.0.1", daemon.port());
        const Submission sub = client.submit(spec);
        ASSERT_TRUE(sub.accepted);
        for (;;) {
            const JobEvent ev = client.nextEvent(sub.id);
            if (ev.type == JobEventType::kCompleted) {
                EXPECT_FALSE(ev.result->from_artifact_store);
                break;
            }
            ASSERT_EQ(ev.type, JobEventType::kProgress);
        }
        EXPECT_GE(daemon.service->artifacts().stats().spill_writes,
                  1u);
    }

    // Second lifetime: the same spec over a fresh socket completes
    // from the disk tier — no search, bit-identical payload, and the
    // disk-hit counter proves where the bytes came from.
    {
        Daemon daemon(daemonConfig(2, dir.string()));
        EXPECT_GE(daemon.service->artifacts().stats().spill_indexed,
                  1u);
        SocketClient client("127.0.0.1", daemon.port());
        const Submission sub = client.submit(spec);
        ASSERT_TRUE(sub.accepted);
        for (;;) {
            const JobEvent ev = client.nextEvent(sub.id);
            if (ev.type == JobEventType::kCompleted) {
                EXPECT_TRUE(ev.result->from_artifact_store);
                expectBitIdentical(ev.result->ga, direct,
                                   presetPool(spec.platform));
                break;
            }
            ASSERT_EQ(ev.type, JobEventType::kProgress);
        }
        EXPECT_GE(daemon.service->artifacts().stats().disk_hits, 1u);
    }
    fs::remove_all(dir);
}

} // namespace
} // namespace service
} // namespace emstress
