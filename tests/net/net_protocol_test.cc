#include "net/net_protocol.h"

#include <cmath>
#include <cstring>
#include <set>
#include <string>

#include <sys/socket.h>

#include <gtest/gtest.h>

#include "net/socket_util.h"
#include "wire/frame_assembler.h"
#include "wire/meeting_codec.h"
#include "wire/wire_format.h"

namespace jxp {
namespace net {
namespace {

/// Feeds one encoded frame through a FrameAssembler and returns its payload
/// (the same path the daemon uses), checking the type byte.
std::vector<uint8_t> PayloadOf(const std::vector<uint8_t>& frame, NetMessageType type) {
  wire::FrameAssembler assembler;
  EXPECT_EQ(assembler.Feed(frame), frame.size());
  EXPECT_TRUE(assembler.HasFrame()) << assembler.error().ToString();
  EXPECT_EQ(assembler.frame_type(), static_cast<uint8_t>(type));
  return std::vector<uint8_t>(assembler.frame_payload().begin(),
                              assembler.frame_payload().end());
}

TEST(NetProtocolTest, HelloRoundTrip) {
  HelloMessage in;
  in.peer_id = 42;
  in.listen_port = 65535;
  std::vector<uint8_t> frame;
  AppendHello(in, frame);
  HelloMessage out;
  ASSERT_TRUE(ParseHello(PayloadOf(frame, NetMessageType::kHello), &out).ok());
  EXPECT_EQ(out.peer_id, 42u);
  EXPECT_EQ(out.listen_port, 65535);
}

TEST(NetProtocolTest, PeerExchangeRoundTrip) {
  PeerExchangeMessage in;
  in.entries.push_back({1, 1000, 0, false});
  in.entries.push_back({2, 2000, 12345, true});
  in.entries.push_back({0xffffffff, 1, 0xfffffffe, false});
  std::vector<uint8_t> frame;
  AppendPeerExchange(in, frame);
  PeerExchangeMessage out;
  ASSERT_TRUE(
      ParsePeerExchange(PayloadOf(frame, NetMessageType::kPeerExchange), &out).ok());
  ASSERT_EQ(out.entries.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out.entries[i].peer_id, in.entries[i].peer_id);
    EXPECT_EQ(out.entries[i].port, in.entries[i].port);
    EXPECT_EQ(out.entries[i].age_ms, in.entries[i].age_ms);
    EXPECT_EQ(out.entries[i].departed, in.entries[i].departed);
  }
}

TEST(NetProtocolTest, MeetingHeaderRoundTripBothTypes) {
  MeetingHeader in;
  in.sender_id = 7;
  in.payload_bytes = 12345678;  // Under the 64 MiB blob cap.
  for (const NetMessageType type :
       {NetMessageType::kMeetingOffer, NetMessageType::kMeetingReply}) {
    std::vector<uint8_t> frame;
    AppendMeetingHeader(type, in, frame);
    MeetingHeader out;
    ASSERT_TRUE(ParseMeetingHeader(PayloadOf(frame, type), &out).ok());
    EXPECT_EQ(out.sender_id, 7u);
    EXPECT_EQ(out.payload_bytes, 12345678u);
  }
}

TEST(NetProtocolTest, MeetingHeaderRejectsOversizedBlob) {
  // The receiver buffers the announced blob, so the announcement is capped
  // like any frame payload.
  MeetingHeader in;
  in.sender_id = 7;
  in.payload_bytes = wire::kMaxFramePayloadBytes;
  std::vector<uint8_t> frame;
  AppendMeetingHeader(NetMessageType::kMeetingOffer, in, frame);
  MeetingHeader out;
  EXPECT_TRUE(
      ParseMeetingHeader(PayloadOf(frame, NetMessageType::kMeetingOffer), &out).ok());

  for (const uint32_t oversized :
       {static_cast<uint32_t>(wire::kMaxFramePayloadBytes + 1),
        0xffffffffu}) {
    in.payload_bytes = oversized;
    frame.clear();
    AppendMeetingHeader(NetMessageType::kMeetingReply, in, frame);
    EXPECT_FALSE(
        ParseMeetingHeader(PayloadOf(frame, NetMessageType::kMeetingReply), &out).ok())
        << oversized;
  }
}

TEST(NetProtocolTest, MeetCommandAndResultRoundTrip) {
  MeetCommandMessage command;
  command.partner_id = 3;
  command.port = 40123;
  std::vector<uint8_t> frame;
  AppendMeetCommand(command, frame);
  MeetCommandMessage command_out;
  ASSERT_TRUE(
      ParseMeetCommand(PayloadOf(frame, NetMessageType::kMeetCommand), &command_out)
          .ok());
  EXPECT_EQ(command_out.partner_id, 3u);
  EXPECT_EQ(command_out.port, 40123);

  MeetResultMessage result;
  result.applied = true;
  result.salvaged = true;
  result.declined = false;
  frame.clear();
  AppendMeetResult(result, frame);
  MeetResultMessage result_out;
  ASSERT_TRUE(
      ParseMeetResult(PayloadOf(frame, NetMessageType::kMeetResult), &result_out).ok());
  EXPECT_TRUE(result_out.applied);
  EXPECT_TRUE(result_out.salvaged);
  EXPECT_FALSE(result_out.declined);

  // The payload is the flags byte alone: the older layout, which trailed
  // it with three byte-count varints (here 2^40, 77 and 33), no longer
  // parses.
  const std::vector<uint8_t> with_byte_counts = {0x03, 0x80, 0x80, 0x80, 0x80, 0x80,
                                                 0x20, 77, 33};
  EXPECT_FALSE(ParseMeetResult(with_byte_counts, &result_out).ok());
}

TEST(NetProtocolTest, ScoresReplyRoundTripsDoublesBitExactly) {
  ScoresReplyMessage in;
  in.entries.push_back({0, 0.15234567891234567});
  in.entries.push_back({1, 5e-324});            // Smallest subnormal.
  in.entries.push_back({2, 0.9999999999999999});
  in.world_score = 1.0 / 3.0;
  std::vector<uint8_t> frame;
  AppendScoresReply(in, frame);
  ScoresReplyMessage out;
  ASSERT_TRUE(
      ParseScoresReply(PayloadOf(frame, NetMessageType::kScoresReply), &out).ok());
  ASSERT_EQ(out.entries.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out.entries[i].page, in.entries[i].page);
    uint64_t in_bits = 0, out_bits = 0;
    std::memcpy(&in_bits, &in.entries[i].score, sizeof(in_bits));
    std::memcpy(&out_bits, &out.entries[i].score, sizeof(out_bits));
    EXPECT_EQ(out_bits, in_bits);
  }
  EXPECT_EQ(out.world_score, 1.0 / 3.0);
}

TEST(NetProtocolTest, AckRoundTrip) {
  AckMessage in;
  in.ok = false;
  in.detail = "disk full";
  std::vector<uint8_t> frame;
  AppendAck(NetMessageType::kDrainReply, in, frame);
  AckMessage out;
  ASSERT_TRUE(ParseAck(PayloadOf(frame, NetMessageType::kDrainReply), &out).ok());
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.detail, "disk full");
}

TEST(NetProtocolTest, GoodbyeAndDeclineCarrySenderId) {
  std::vector<uint8_t> frame;
  AppendGoodbye(11, frame);
  uint32_t sender = 0;
  ASSERT_TRUE(ParseSenderId(PayloadOf(frame, NetMessageType::kGoodbye), &sender).ok());
  EXPECT_EQ(sender, 11u);

  frame.clear();
  AppendMeetingDecline(12, frame);
  ASSERT_TRUE(
      ParseSenderId(PayloadOf(frame, NetMessageType::kMeetingDecline), &sender).ok());
  EXPECT_EQ(sender, 12u);
}

TEST(NetProtocolTest, ParsersRejectTruncatedPayloads) {
  PeerExchangeMessage exchange;
  exchange.entries.push_back({1, 2, 3, false});
  std::vector<uint8_t> frame;
  AppendPeerExchange(exchange, frame);
  std::vector<uint8_t> payload = PayloadOf(frame, NetMessageType::kPeerExchange);
  ASSERT_FALSE(payload.empty());
  payload.pop_back();
  PeerExchangeMessage out;
  EXPECT_FALSE(ParsePeerExchange(payload, &out).ok());

  ScoresReplyMessage scores;
  scores.entries.push_back({3, 0.25});
  frame.clear();
  AppendScoresReply(scores, frame);
  payload = PayloadOf(frame, NetMessageType::kScoresReply);
  payload.resize(payload.size() / 2);
  ScoresReplyMessage scores_out;
  EXPECT_FALSE(ParseScoresReply(payload, &scores_out).ok());
}

TEST(NetProtocolTest, NetStatsReplyRoundTripsEveryField) {
  const std::span<const NetStatsField> fields = NetStatsFields();
  // The table names every member exactly once.
  ASSERT_EQ(fields.size() * sizeof(uint64_t), sizeof(NetStatsReplyMessage));
  NetStatsReplyMessage probe;
  std::set<std::string> names;
  std::set<const uint64_t*> members;
  for (const NetStatsField& field : fields) {
    EXPECT_TRUE(names.insert(field.name).second) << field.name;
    EXPECT_TRUE(members.insert(&(probe.*field.member)).second) << field.name;
  }

  NetStatsReplyMessage in;
  for (size_t i = 0; i < fields.size(); ++i) {
    // Distinct values of every varint width, so a swapped or dropped field
    // cannot round-trip by accident.
    in.*fields[i].member = (uint64_t{1} << (2 * i % 63)) + i;
  }
  std::vector<uint8_t> frame;
  AppendNetStatsReply(in, frame);
  const std::vector<uint8_t> payload = PayloadOf(frame, NetMessageType::kNetStatsReply);
  NetStatsReplyMessage out;
  ASSERT_TRUE(ParseNetStatsReply(payload, &out).ok());
  for (const NetStatsField& field : fields) {
    EXPECT_EQ(out.*field.member, in.*field.member) << field.name;
  }

  for (size_t size = 0; size < payload.size(); ++size) {
    const std::span<const uint8_t> prefix(payload.data(), size);
    EXPECT_FALSE(ParseNetStatsReply(prefix, &out).ok()) << "prefix of " << size;
  }
  std::vector<uint8_t> trailing = payload;
  trailing.push_back(0);
  EXPECT_FALSE(ParseNetStatsReply(trailing, &out).ok());
}

TEST(NetProtocolTest, NetTypesAreDisjointFromMeetingPayloadTypes) {
  // The frozen meeting types are 1..3; every net type must be >= 0x10 so a
  // net frame can never be mistaken for meeting content.
  for (const NetMessageType type :
       {NetMessageType::kHello, NetMessageType::kPeerExchange,
        NetMessageType::kMeetingOffer, NetMessageType::kMeetingReply,
        NetMessageType::kMeetingDecline, NetMessageType::kGoodbye,
        NetMessageType::kMeetCommand, NetMessageType::kMeetResult,
        NetMessageType::kScoresRequest, NetMessageType::kScoresReply,
        NetMessageType::kStartRequest, NetMessageType::kStartReply,
        NetMessageType::kDrainRequest, NetMessageType::kDrainReply,
        NetMessageType::kNetStatsRequest, NetMessageType::kNetStatsReply}) {
    EXPECT_GE(static_cast<uint8_t>(type), 0x10);
  }
}

/// What one frame reader made of a byte stream: its status code and, on
/// success, the frame's payload.
struct ReadOutcome {
  StatusCode code = StatusCode::kOk;
  std::vector<uint8_t> payload;
  bool operator==(const ReadOutcome&) const = default;
};

ReadOutcome ViaParseFrame(const std::vector<uint8_t>& bytes) {
  size_t offset = 0;
  wire::FrameView frame;
  const Status status = wire::ParseFrame(bytes, offset, frame);
  if (!status.ok()) return {status.code(), {}};
  return {StatusCode::kOk, {frame.payload.begin(), frame.payload.end()}};
}

ReadOutcome ViaAssembler(const std::vector<uint8_t>& bytes) {
  wire::FrameAssembler assembler;
  assembler.Feed(bytes);
  if (!assembler.HasFrame()) return {assembler.error().code(), {}};
  return {StatusCode::kOk,
          {assembler.frame_payload().begin(), assembler.frame_payload().end()}};
}

ReadOutcome ViaReadFrameBlocking(const std::vector<uint8_t>& bytes) {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  UniqueFd reader(fds[0]);
  UniqueFd writer(fds[1]);
  EXPECT_TRUE(WriteAll(writer.get(), bytes).ok());
  writer.reset();  // EOF after the bytes.
  uint8_t type = 0;
  std::vector<uint8_t> payload;
  const Status status = ReadFrameBlocking(reader.get(), &type, &payload);
  if (!status.ok()) return {status.code(), {}};
  return {StatusCode::kOk, payload};
}

TEST(NetProtocolTest, AllThreeFrameReadersAgree) {
  // The batch parser, the incremental assembler and the blocking socket
  // reader share one header check and one checksum verify, so every input
  // gets the same verdict from all three.
  const std::vector<uint8_t> payload = {1, 2, 3, 0x80, 0xff, 42};
  std::vector<uint8_t> valid;
  wire::AppendFrame(wire::MessageType::kScoreChunk, payload, valid);

  std::vector<uint8_t> bad_magic = valid;
  bad_magic[0] ^= 0xff;
  std::vector<uint8_t> bad_version = valid;
  bad_version[2] = wire::kVersion + 1;
  // A header alone, announcing one byte over the cap.
  std::vector<uint8_t> over_cap(valid.begin(), valid.begin() + wire::kFrameHeaderBytes);
  const uint32_t oversized = static_cast<uint32_t>(wire::kMaxFramePayloadBytes + 1);
  for (int i = 0; i < 4; ++i) over_cap[4 + i] = static_cast<uint8_t>(oversized >> (8 * i));
  std::vector<uint8_t> bad_checksum = valid;
  bad_checksum[wire::kChecksumOffset + 3] ^= 0x10;
  std::vector<uint8_t> bad_payload = valid;
  bad_payload.back() ^= 0x01;

  const struct {
    const char* name;
    const std::vector<uint8_t>& bytes;
    ReadOutcome expected;
  } cases[] = {
      {"valid frame", valid, {StatusCode::kOk, payload}},
      {"bad magic", bad_magic, {StatusCode::kCorruption, {}}},
      {"bad version", bad_version, {StatusCode::kCorruption, {}}},
      {"length one over the cap", over_cap, {StatusCode::kOutOfRange, {}}},
      {"flipped checksum byte", bad_checksum, {StatusCode::kCorruption, {}}},
      {"flipped payload byte", bad_payload, {StatusCode::kCorruption, {}}},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(ViaParseFrame(c.bytes), c.expected) << "ParseFrame: " << c.name;
    EXPECT_EQ(ViaAssembler(c.bytes), c.expected) << "FrameAssembler: " << c.name;
    EXPECT_EQ(ViaReadFrameBlocking(c.bytes), c.expected)
        << "ReadFrameBlocking: " << c.name;
  }
}

TEST(NetProtocolTest, VersionOneFramesFailOnTheVersionByte) {
  // The golden meeting message of wire version 1 (FNV-1a checksums), byte for
  // byte. Every reader must turn it away on the version field, not by a
  // checksum mismatch and not with a crash.
  const std::vector<uint8_t> version_one = {
      0x4a, 0x58, 0x01, 0x01, 0x19, 0x00, 0x00, 0x00, 0x42, 0xc5, 0x81, 0xf5,
      0x80, 0x70, 0x86, 0x84, 0x00, 0x03, 0x03, 0x00, 0x00, 0x00, 0x3e, 0x02,
      0x07, 0x21, 0x04, 0x00, 0x00, 0x80, 0x3d, 0x00, 0x05, 0x00, 0x00, 0x80,
      0x3e, 0x03, 0x03, 0x04, 0x5c, 0x4a, 0x58, 0x01, 0x02, 0x18, 0x00, 0x00,
      0x00, 0x3c, 0xad, 0x33, 0x10, 0xda, 0xe2, 0x31, 0x49, 0x02, 0x14, 0x0a,
      0xd7, 0x23, 0x3c, 0x03, 0x02, 0x03, 0x09, 0x15, 0x0a, 0xd7, 0xa3, 0x3b,
      0x01, 0x01, 0x07, 0x01, 0x32, 0x6e, 0x12, 0x03, 0x3b};
  const Status expected = Status::Corruption("unsupported wire version 1");

  const wire::DecodedMeeting decoded = wire::DecodeMeeting(version_one);
  EXPECT_EQ(decoded.error, expected);
  EXPECT_EQ(decoded.frames_decoded, 0u);
  EXPECT_TRUE(decoded.page_table.pages.empty());

  wire::FrameAssembler assembler;
  assembler.Feed(version_one);
  EXPECT_FALSE(assembler.HasFrame());
  EXPECT_EQ(assembler.error(), expected);

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  UniqueFd reader(fds[0]);
  UniqueFd writer(fds[1]);
  ASSERT_TRUE(WriteAll(writer.get(), version_one).ok());
  writer.reset();
  uint8_t type = 0;
  std::vector<uint8_t> payload;
  EXPECT_EQ(ReadFrameBlocking(reader.get(), &type, &payload), expected);
}

}  // namespace
}  // namespace net
}  // namespace jxp
