#ifndef JXP_WIRE_FRAME_ASSEMBLER_H_
#define JXP_WIRE_FRAME_ASSEMBLER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "wire/wire_format.h"

namespace jxp {
namespace wire {

/// Incremental reassembly of wire frames from a byte stream that arrives in
/// arbitrary pieces (partial socket reads). The assembler accumulates the
/// 16-byte header and runs DecodeFrameHeader on it as soon as it is
/// complete — an over-cap length is rejected *before* any payload
/// allocation, so a corrupt or hostile length field can never make the
/// receiver reserve memory — then accumulates the payload and runs
/// VerifyFrameChecksum when it is complete.
///
/// Unlike ParseFrame (which decodes a complete in-memory message and
/// restricts types to the meeting payload set), the assembler passes the
/// type byte through unvalidated: the net layer runs its own control types
/// over the same frame header, and each consumer rejects types it does not
/// understand.
///
/// Feed() deliberately stops consuming input as soon as one frame is
/// complete. This gives the caller byte-exact boundary control: a protocol
/// can switch the same stream into a raw-blob mode right after a header
/// frame (src/net's meeting transfer does), with no bytes trapped inside
/// the assembler.
///
/// Errors are sticky: once a header fails validation or a checksum
/// mismatches, the stream's frame boundaries cannot be trusted, so every
/// further Feed() consumes nothing; the owner closes the stream.
class FrameAssembler {
 public:
  /// Consumes bytes from `data` until a complete frame is assembled, an
  /// error is detected, or `data` is exhausted. Returns the number of bytes
  /// consumed (0 when a frame is already pending or the assembler is in the
  /// error state).
  size_t Feed(std::span<const uint8_t> data);

  /// True when a complete, checksum-verified frame is ready. Feed() will
  /// not consume further input until ConsumeFrame() releases it.
  bool HasFrame() const { return state_ == State::kFrameReady; }

  /// Type byte and payload of the pending frame. Valid only while
  /// HasFrame(); the payload view is invalidated by ConsumeFrame().
  uint8_t frame_type() const { return decoded_.type; }
  std::span<const uint8_t> frame_payload() const { return payload_; }

  /// Releases the pending frame and starts assembling the next one.
  void ConsumeFrame();

  /// Sticky error state; OK while the stream is healthy.
  const Status& error() const { return error_; }
  bool failed() const { return !error_.ok(); }

 private:
  enum class State { kHeader, kPayload, kFrameReady, kFailed };

  /// Validates the completed header; transitions to kPayload / kFrameReady
  /// (empty payload) or kFailed.
  void OnHeaderComplete();

  /// Verifies the checksum of the completed frame; kFrameReady or kFailed.
  void OnPayloadComplete();

  State state_ = State::kHeader;
  uint8_t header_[kFrameHeaderBytes] = {};
  size_t header_filled_ = 0;
  FrameHeader decoded_;
  std::vector<uint8_t> payload_;
  Status error_ = Status::OK();
};

}  // namespace wire
}  // namespace jxp

#endif  // JXP_WIRE_FRAME_ASSEMBLER_H_
