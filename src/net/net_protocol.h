#ifndef JXP_NET_NET_PROTOCOL_H_
#define JXP_NET_NET_PROTOCOL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "wire/wire_format.h"

namespace jxp {
namespace net {

/// The networked runtime's message vocabulary (DESIGN.md §6k). Every
/// message is one frame with the frozen 16-byte wire header
/// (wire/wire_format.h) and a type byte from the ranges below — disjoint
/// from the meeting payload types 1..3, so a net frame can never be
/// mistaken for meeting content and vice versa.
///
/// Peer-to-peer types (0x10..0x1f) flow between daemons; control types
/// (0x26..0x31) flow between the cluster driver and a daemon. A meeting
/// transfer itself is NOT framed per chunk on the socket: a kMeetingOffer /
/// kMeetingReply frame announces `payload_bytes`, then exactly that many
/// raw bytes of encoded meeting message follow. The receiver buffers the
/// blob and runs the fault-tolerant DecodeMeeting salvage over it, so a
/// torn or bit-flipped transfer degrades exactly like the simulation's
/// fault model instead of wedging the framing layer.
enum class NetMessageType : uint8_t {
  // Peer <-> peer.
  kHello = 0x10,          // First frame on any daemon connection.
  kPeerExchange = 0x11,   // Gossip: a sample of the sender's directory.
  kMeetingOffer = 0x12,   // Initiator -> responder; blob of payload_bytes follows.
  kMeetingReply = 0x13,   // Responder -> initiator; blob of payload_bytes follows.
  kMeetingDecline = 0x14, // Responder is quiesced; no blob.
  kGoodbye = 0x15,        // Sender is departing; directory tombstone.

  // Driver <-> daemon control: the five request/reply pairs the drivers
  // send. The gaps (0x20..0x25, 0x2c..0x2d) are retired type bytes; values
  // never move, so a stale driver's frame is rejected, not misread.
  kMeetCommand = 0x26,      // Initiate one meeting with the given peer now.
  kMeetResult = 0x27,       // One flags byte: applied, salvaged, declined.
  kScoresRequest = 0x28,    // Dump local scores (exact doubles).
  kScoresReply = 0x29,
  // Autonomous-mode control (DESIGN.md §6l). Start arms the meeting
  // scheduler; drain is terminal: scheduler drained, daemon quiesced,
  // pooled connections closed — the daemon keeps answering control traffic
  // but will never meet again.
  kStartRequest = 0x2a,
  kStartReply = 0x2b,
  kDrainRequest = 0x2e,
  kDrainReply = 0x2f,
  kNetStatsRequest = 0x30,  // Dump the daemon's net-stats (NetStatsReplyMessage).
  kNetStatsReply = 0x31,
};

/// First frame each side sends on a daemon<->daemon connection.
struct HelloMessage {
  uint32_t peer_id = 0;
  /// Port the sender's daemon accepts connections on (advertised port —
  /// under the chaos proxy this is the proxy's port).
  uint16_t listen_port = 0;
};

/// One gossiped directory record. Times travel as *ages* relative to the
/// sender's send instant — the two processes share no clock.
struct GossipEntry {
  uint32_t peer_id = 0;
  uint16_t port = 0;
  /// How long ago the sender last heard from this peer.
  uint32_t age_ms = 0;
  /// Tombstone: the peer said Goodbye (or was reported departed).
  bool departed = false;
};

struct PeerExchangeMessage {
  std::vector<GossipEntry> entries;
};

/// Announces a meeting blob: `payload_bytes` raw bytes of encoded meeting
/// message follow this frame on the stream. Shared by offer and reply.
struct MeetingHeader {
  uint32_t sender_id = 0;
  /// At most wire::kMaxFramePayloadBytes: the parser rejects larger
  /// announcements before anyone buffers for them.
  uint32_t payload_bytes = 0;
};

/// Driver command: meet the given peer (dialed at `port`) once, now.
struct MeetCommandMessage {
  uint32_t partner_id = 0;
  uint16_t port = 0;
};

/// Outcome of one commanded (or scheduled) meeting, from the initiator's
/// point of view.
struct MeetResultMessage {
  /// The partner's message was decoded and applied (possibly salvaged).
  bool applied = false;
  /// The reply blob was truncated or corrupted and only a prefix applied.
  bool salvaged = false;
  /// The partner declined (quiesced).
  bool declined = false;
};

/// One local page's exact score. Doubles cross as raw IEEE-754 bits so the
/// driver's oracle comparison is exact, not quantized.
struct ScoreEntry {
  uint32_t page = 0;
  double score = 0;
};

struct ScoresReplyMessage {
  std::vector<ScoreEntry> entries;
  /// The peer's current world-node total (world score diagnostics).
  double world_score = 0;
};

/// Generic ack payload for the start and drain replies.
struct AckMessage {
  bool ok = false;
  std::string detail;
};

/// One daemon's status and full network-activity accounting: peer state,
/// connection, meeting, pool, and scheduler counters. This is the daemon's
/// only status surface: the control protocol serves it, and the cluster
/// driver's per-peer JSONL writes it. Every field is a uint64 so
/// NetStatsFields() can name them all with one member-pointer type.
struct NetStatsReplyMessage {
  uint64_t peer_id = 0;
  // Peer state. num_meetings counts meetings applied on either side;
  // quiesced is 1 once the daemon drained or began shutdown.
  uint64_t num_meetings = 0;
  uint64_t local_pages = 0;
  uint64_t world_entries = 0;
  uint64_t directory_size = 0;
  uint64_t quiesced = 0;
  // DaemonStats.
  uint64_t accepts = 0;
  uint64_t dials = 0;
  uint64_t dial_failures = 0;
  uint64_t meetings_initiated = 0;
  uint64_t meetings_accepted = 0;
  uint64_t meetings_declined = 0;
  uint64_t meeting_failures = 0;
  uint64_t truncations_detected = 0;
  uint64_t corruptions_detected = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t wasted_bytes = 0;
  uint64_t gossip_exchanges = 0;
  uint64_t directory_evictions = 0;
  uint64_t checkpoints = 0;
  uint64_t protocol_errors = 0;
  // ConnectionPoolStats.
  uint64_t pool_reuses = 0;
  uint64_t pool_half_open = 0;
  uint64_t pool_redials = 0;
  uint64_t pool_evictions_idle = 0;
  uint64_t pool_evictions_lru = 0;
  uint64_t pool_released_broken = 0;
  uint64_t pool_open_connections = 0;
  // MeetingSchedulerStats (all zero when autonomous mode is off).
  uint64_t scheduler_state = 0;  // SchedulerState as its wire byte.
  uint64_t sched_ticks = 0;
  uint64_t sched_meetings_started = 0;
  uint64_t sched_meetings_applied = 0;
  uint64_t sched_declines = 0;
  uint64_t sched_failures = 0;
  uint64_t sched_skips_no_partner = 0;
  uint64_t sched_skips_backoff = 0;
  uint64_t sched_backoffs_armed = 0;
};

/// One net-stats field: its name (in docs/METRICS.md and the cluster
/// driver's JSONL) and its member.
struct NetStatsField {
  const char* name;
  uint64_t NetStatsReplyMessage::*member;
};

/// Every NetStatsReplyMessage field in declaration order, which is also the
/// wire order (each field rides as a varint64). The one field list: the
/// codec and every report iterate it, so a new field needs only its member
/// and its row in the table behind this function.
std::span<const NetStatsField> NetStatsFields();

/// Encoders append one complete frame (header + payload) to `out`.
void AppendHello(const HelloMessage& msg, std::vector<uint8_t>& out);
void AppendPeerExchange(const PeerExchangeMessage& msg, std::vector<uint8_t>& out);
void AppendMeetingHeader(NetMessageType type, const MeetingHeader& msg,
                         std::vector<uint8_t>& out);
void AppendMeetingDecline(uint32_t sender_id, std::vector<uint8_t>& out);
void AppendGoodbye(uint32_t sender_id, std::vector<uint8_t>& out);
void AppendEmpty(NetMessageType type, std::vector<uint8_t>& out);
void AppendMeetCommand(const MeetCommandMessage& msg, std::vector<uint8_t>& out);
void AppendMeetResult(const MeetResultMessage& msg, std::vector<uint8_t>& out);
void AppendScoresReply(const ScoresReplyMessage& msg, std::vector<uint8_t>& out);
void AppendAck(NetMessageType type, const AckMessage& msg, std::vector<uint8_t>& out);
void AppendNetStatsReply(const NetStatsReplyMessage& msg, std::vector<uint8_t>& out);

/// Decoders parse a frame *payload* (the frame layer already verified the
/// checksum). InvalidArgument on malformed payloads.
Status ParseHello(std::span<const uint8_t> payload, HelloMessage* out);
Status ParsePeerExchange(std::span<const uint8_t> payload, PeerExchangeMessage* out);
Status ParseMeetingHeader(std::span<const uint8_t> payload, MeetingHeader* out);
Status ParseSenderId(std::span<const uint8_t> payload, uint32_t* out);
Status ParseMeetCommand(std::span<const uint8_t> payload, MeetCommandMessage* out);
Status ParseMeetResult(std::span<const uint8_t> payload, MeetResultMessage* out);
Status ParseScoresReply(std::span<const uint8_t> payload, ScoresReplyMessage* out);
Status ParseAck(std::span<const uint8_t> payload, AckMessage* out);
Status ParseNetStatsReply(std::span<const uint8_t> payload, NetStatsReplyMessage* out);

/// Blocking request/response helpers for control clients (driver side).
/// ReadFrameBlocking reads one full frame off a blocking socket through
/// wire::DecodeFrameHeader and wire::VerifyFrameChecksum, and returns its
/// type byte + payload.
Status ReadFrameBlocking(int fd, uint8_t* type, std::vector<uint8_t>* payload);

}  // namespace net
}  // namespace jxp

#endif  // JXP_NET_NET_PROTOCOL_H_
