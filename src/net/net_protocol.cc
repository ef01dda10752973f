#include "net/net_protocol.h"

#include <cstring>

#include "net/socket_util.h"

namespace jxp {
namespace net {

namespace {

using wire::ByteReader;
using wire::ByteWriter;

void Seal(NetMessageType type, std::vector<uint8_t>& payload,
          std::vector<uint8_t>& out) {
  wire::AppendFrameRaw(static_cast<uint8_t>(type), payload, out);
}

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed ") + what);
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsDouble(uint64_t bits) {
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

std::span<const NetStatsField> NetStatsFields() {
  using M = NetStatsReplyMessage;
  static constexpr NetStatsField kFields[] = {
      {"peer_id", &M::peer_id},
      {"num_meetings", &M::num_meetings},
      {"local_pages", &M::local_pages},
      {"world_entries", &M::world_entries},
      {"directory_size", &M::directory_size},
      {"quiesced", &M::quiesced},
      {"accepts", &M::accepts},
      {"dials", &M::dials},
      {"dial_failures", &M::dial_failures},
      {"meetings_initiated", &M::meetings_initiated},
      {"meetings_accepted", &M::meetings_accepted},
      {"meetings_declined", &M::meetings_declined},
      {"meeting_failures", &M::meeting_failures},
      {"truncations_detected", &M::truncations_detected},
      {"corruptions_detected", &M::corruptions_detected},
      {"bytes_sent", &M::bytes_sent},
      {"bytes_received", &M::bytes_received},
      {"wasted_bytes", &M::wasted_bytes},
      {"gossip_exchanges", &M::gossip_exchanges},
      {"directory_evictions", &M::directory_evictions},
      {"checkpoints", &M::checkpoints},
      {"protocol_errors", &M::protocol_errors},
      {"pool_reuses", &M::pool_reuses},
      {"pool_half_open", &M::pool_half_open},
      {"pool_redials", &M::pool_redials},
      {"pool_evictions_idle", &M::pool_evictions_idle},
      {"pool_evictions_lru", &M::pool_evictions_lru},
      {"pool_released_broken", &M::pool_released_broken},
      {"pool_open_connections", &M::pool_open_connections},
      {"scheduler_state", &M::scheduler_state},
      {"sched_ticks", &M::sched_ticks},
      {"sched_meetings_started", &M::sched_meetings_started},
      {"sched_meetings_applied", &M::sched_meetings_applied},
      {"sched_declines", &M::sched_declines},
      {"sched_failures", &M::sched_failures},
      {"sched_skips_no_partner", &M::sched_skips_no_partner},
      {"sched_skips_backoff", &M::sched_skips_backoff},
      {"sched_backoffs_armed", &M::sched_backoffs_armed},
  };
  return kFields;
}

void AppendHello(const HelloMessage& msg, std::vector<uint8_t>& out) {
  std::vector<uint8_t> payload;
  ByteWriter writer(payload);
  writer.PutVarint32(msg.peer_id);
  writer.PutVarint32(msg.listen_port);
  Seal(NetMessageType::kHello, payload, out);
}

void AppendPeerExchange(const PeerExchangeMessage& msg, std::vector<uint8_t>& out) {
  std::vector<uint8_t> payload;
  ByteWriter writer(payload);
  writer.PutVarint32(static_cast<uint32_t>(msg.entries.size()));
  for (const GossipEntry& entry : msg.entries) {
    writer.PutVarint32(entry.peer_id);
    writer.PutVarint32(entry.port);
    writer.PutVarint32(entry.age_ms);
    writer.PutU8(entry.departed ? 1 : 0);
  }
  Seal(NetMessageType::kPeerExchange, payload, out);
}

void AppendMeetingHeader(NetMessageType type, const MeetingHeader& msg,
                         std::vector<uint8_t>& out) {
  std::vector<uint8_t> payload;
  ByteWriter writer(payload);
  writer.PutVarint32(msg.sender_id);
  writer.PutU32(msg.payload_bytes);
  Seal(type, payload, out);
}

void AppendMeetingDecline(uint32_t sender_id, std::vector<uint8_t>& out) {
  std::vector<uint8_t> payload;
  ByteWriter writer(payload);
  writer.PutVarint32(sender_id);
  Seal(NetMessageType::kMeetingDecline, payload, out);
}

void AppendGoodbye(uint32_t sender_id, std::vector<uint8_t>& out) {
  std::vector<uint8_t> payload;
  ByteWriter writer(payload);
  writer.PutVarint32(sender_id);
  Seal(NetMessageType::kGoodbye, payload, out);
}

void AppendEmpty(NetMessageType type, std::vector<uint8_t>& out) {
  std::vector<uint8_t> payload;
  Seal(type, payload, out);
}

void AppendMeetCommand(const MeetCommandMessage& msg, std::vector<uint8_t>& out) {
  std::vector<uint8_t> payload;
  ByteWriter writer(payload);
  writer.PutVarint32(msg.partner_id);
  writer.PutVarint32(msg.port);
  Seal(NetMessageType::kMeetCommand, payload, out);
}

void AppendMeetResult(const MeetResultMessage& msg, std::vector<uint8_t>& out) {
  std::vector<uint8_t> payload;
  ByteWriter writer(payload);
  writer.PutU8(static_cast<uint8_t>((msg.applied ? 1 : 0) | (msg.salvaged ? 2 : 0) |
                                    (msg.declined ? 4 : 0)));
  Seal(NetMessageType::kMeetResult, payload, out);
}

void AppendScoresReply(const ScoresReplyMessage& msg, std::vector<uint8_t>& out) {
  std::vector<uint8_t> payload;
  ByteWriter writer(payload);
  writer.PutVarint32(static_cast<uint32_t>(msg.entries.size()));
  for (const ScoreEntry& entry : msg.entries) {
    writer.PutVarint32(entry.page);
    writer.PutU64(DoubleBits(entry.score));
  }
  writer.PutU64(DoubleBits(msg.world_score));
  Seal(NetMessageType::kScoresReply, payload, out);
}

void AppendAck(NetMessageType type, const AckMessage& msg, std::vector<uint8_t>& out) {
  std::vector<uint8_t> payload;
  ByteWriter writer(payload);
  writer.PutU8(msg.ok ? 1 : 0);
  writer.PutVarint32(static_cast<uint32_t>(msg.detail.size()));
  for (const char c : msg.detail) payload.push_back(static_cast<uint8_t>(c));
  Seal(type, payload, out);
}

void AppendNetStatsReply(const NetStatsReplyMessage& msg, std::vector<uint8_t>& out) {
  std::vector<uint8_t> payload;
  ByteWriter writer(payload);
  for (const NetStatsField& field : NetStatsFields()) {
    writer.PutVarint64(msg.*field.member);
  }
  Seal(NetMessageType::kNetStatsReply, payload, out);
}

Status ParseHello(std::span<const uint8_t> payload, HelloMessage* out) {
  ByteReader reader(payload);
  uint32_t port = 0;
  if (!reader.GetVarint32(&out->peer_id) || !reader.GetVarint32(&port) ||
      port > 0xffff || !reader.AtEnd()) {
    return Malformed("hello");
  }
  out->listen_port = static_cast<uint16_t>(port);
  return Status::OK();
}

Status ParsePeerExchange(std::span<const uint8_t> payload, PeerExchangeMessage* out) {
  ByteReader reader(payload);
  uint32_t count = 0;
  if (!reader.GetVarint32(&count)) return Malformed("peer exchange");
  // Each entry is >= 4 bytes; reject counts the payload cannot hold.
  if (count > payload.size() / 4) return Malformed("peer exchange count");
  out->entries.clear();
  out->entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    GossipEntry entry;
    uint32_t port = 0;
    uint8_t departed = 0;
    if (!reader.GetVarint32(&entry.peer_id) || !reader.GetVarint32(&port) ||
        port > 0xffff || !reader.GetVarint32(&entry.age_ms) ||
        !reader.GetU8(&departed)) {
      return Malformed("peer exchange entry");
    }
    entry.port = static_cast<uint16_t>(port);
    entry.departed = departed != 0;
    out->entries.push_back(entry);
  }
  if (!reader.AtEnd()) return Malformed("peer exchange trailer");
  return Status::OK();
}

Status ParseMeetingHeader(std::span<const uint8_t> payload, MeetingHeader* out) {
  ByteReader reader(payload);
  if (!reader.GetVarint32(&out->sender_id) || !reader.GetU32(&out->payload_bytes) ||
      !reader.AtEnd()) {
    return Malformed("meeting header");
  }
  // The receiver buffers the announced blob, so the size is the partner's
  // claim on this process's memory: cap it like any frame payload.
  if (out->payload_bytes > wire::kMaxFramePayloadBytes) {
    return Malformed("meeting header blob size");
  }
  return Status::OK();
}

Status ParseSenderId(std::span<const uint8_t> payload, uint32_t* out) {
  ByteReader reader(payload);
  if (!reader.GetVarint32(out) || !reader.AtEnd()) return Malformed("sender id");
  return Status::OK();
}

Status ParseMeetCommand(std::span<const uint8_t> payload, MeetCommandMessage* out) {
  ByteReader reader(payload);
  uint32_t port = 0;
  if (!reader.GetVarint32(&out->partner_id) || !reader.GetVarint32(&port) ||
      port > 0xffff || !reader.AtEnd()) {
    return Malformed("meet command");
  }
  out->port = static_cast<uint16_t>(port);
  return Status::OK();
}

Status ParseMeetResult(std::span<const uint8_t> payload, MeetResultMessage* out) {
  ByteReader reader(payload);
  uint8_t flags = 0;
  if (!reader.GetU8(&flags) || !reader.AtEnd()) {
    return Malformed("meet result");
  }
  out->applied = (flags & 1) != 0;
  out->salvaged = (flags & 2) != 0;
  out->declined = (flags & 4) != 0;
  return Status::OK();
}

Status ParseScoresReply(std::span<const uint8_t> payload, ScoresReplyMessage* out) {
  ByteReader reader(payload);
  uint32_t count = 0;
  if (!reader.GetVarint32(&count)) return Malformed("scores reply");
  if (count > payload.size() / 9) return Malformed("scores reply count");
  out->entries.clear();
  out->entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ScoreEntry entry;
    uint64_t bits = 0;
    if (!reader.GetVarint32(&entry.page) || !reader.GetU64(&bits)) {
      return Malformed("scores reply entry");
    }
    entry.score = BitsDouble(bits);
    out->entries.push_back(entry);
  }
  uint64_t world_bits = 0;
  if (!reader.GetU64(&world_bits) || !reader.AtEnd()) {
    return Malformed("scores reply trailer");
  }
  out->world_score = BitsDouble(world_bits);
  return Status::OK();
}

Status ParseAck(std::span<const uint8_t> payload, AckMessage* out) {
  ByteReader reader(payload);
  uint8_t ok = 0;
  uint32_t len = 0;
  if (!reader.GetU8(&ok) || !reader.GetVarint32(&len) || reader.remaining() != len) {
    return Malformed("ack");
  }
  out->ok = ok != 0;
  out->detail.assign(reinterpret_cast<const char*>(payload.data()) + reader.position(),
                     len);
  return Status::OK();
}

Status ParseNetStatsReply(std::span<const uint8_t> payload, NetStatsReplyMessage* out) {
  ByteReader reader(payload);
  for (const NetStatsField& field : NetStatsFields()) {
    if (!reader.GetVarint64(&(out->*field.member))) return Malformed("net stats reply");
  }
  if (!reader.AtEnd()) return Malformed("net stats reply trailer");
  return Status::OK();
}

Status ReadFrameBlocking(int fd, uint8_t* type, std::vector<uint8_t>* payload) {
  uint8_t header[wire::kFrameHeaderBytes];
  if (Status status = ReadExact(fd, header, sizeof(header)); !status.ok()) {
    return status;
  }
  wire::FrameHeader decoded;
  if (Status status = wire::DecodeFrameHeader(header, &decoded); !status.ok()) {
    return status;
  }
  payload->assign(decoded.payload_len, 0);
  if (Status status = ReadExact(fd, payload->data(), payload->size()); !status.ok()) {
    return status;
  }
  if (Status status = wire::VerifyFrameChecksum(header, decoded, *payload);
      !status.ok()) {
    return status;
  }
  *type = decoded.type;
  return Status::OK();
}

}  // namespace net
}  // namespace jxp
