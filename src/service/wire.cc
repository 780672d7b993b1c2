/**
 * @file
 * Framing and the public body codecs of the wire protocol. Each codec
 * walks its record's field list (wire.h), so every field of a JobSpec
 * crosses the wire and every field of a JobResult crosses back —
 * doubles as IEEE-754 bit patterns — and a client-side decode is
 * bit-identical to the server-side value.
 */

#include "service/wire.h"

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

void
encodeJobSpec(WireWriter &w, const JobSpec &spec)
{
    w(spec);
}

JobSpec
decodeJobSpec(WireReader &r)
{
    return r.read<JobSpec>();
}

void
encodeResumeRequest(WireWriter &w, const ResumeRequest &req)
{
    w(req);
}

ResumeRequest
decodeResumeRequest(WireReader &r)
{
    return r.read<ResumeRequest>();
}

void
encodeResumeReply(WireWriter &w, const ResumeReply &reply)
{
    w(reply);
}

ResumeReply
decodeResumeReply(WireReader &r)
{
    return r.read<ResumeReply>();
}

void
encodeProgress(WireWriter &w, const JobProgress &p)
{
    w(p);
}

JobProgress
decodeProgress(WireReader &r)
{
    return r.read<JobProgress>();
}

void
encodeJobResult(WireWriter &w, const JobResult &result,
                const isa::InstructionPool &pool)
{
    w.kernelPool(pool)(result);
}

JobResult
decodeJobResult(WireReader &r, const isa::InstructionPool &pool)
{
    return r.kernelPool(pool).read<JobResult>();
}

} // namespace service
} // namespace emstress
