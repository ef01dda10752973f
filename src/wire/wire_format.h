#ifndef JXP_WIRE_WIRE_FORMAT_H_
#define JXP_WIRE_WIRE_FORMAT_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/varint.h"

namespace jxp {
namespace wire {

/// The binary framing of every meeting payload (DESIGN.md §6g). A meeting
/// message is a sequence of self-contained frames:
///
///   [0:2)   magic 0x4A 0x58 ("JX")
///   [2]     version (currently 1)
///   [3]     message type (MessageType)
///   [4:8)   payload length, uint32 little-endian
///   [8:16)  checksum, uint64 little-endian — HashString over the first 8
///           header bytes plus the payload, so a flip of *any* frame byte
///           except inside the checksum itself changes the hashed content
///           (and a flip inside the checksum mismatches trivially)
///   [16:16+len) payload
///
/// Versioning rules: the header layout is frozen; `version` is bumped when
/// any payload encoding changes incompatibly, and decoders reject frames
/// from versions they do not understand (Status, never a crash). New message
/// types may be added within a version; decoders reject unknown types.
///
/// Integers inside payloads are VByte varints (common/varint.h), id
/// sequences are delta-encoded (first absolute, then strictly positive
/// deltas), and scores are 4-byte little-endian floats quantized with
/// LowerBoundFloat so a decoded score never exceeds the sender's exact
/// double (JXP safety, Theorem 5.3).

/// Kinds of meeting payload frames.
enum class MessageType : uint8_t {
  /// A chunk of the sender's page table: (page id, score, successor list)
  /// records in local-index order. Chunking bounds the blast radius of a
  /// torn or corrupted transfer: every chunk frame that arrived intact
  /// still decodes, exactly like the analytic model's prefix truncation.
  kScoreChunk = 1,
  /// The sender's world-node knowledge (external in-link entries and
  /// dangling scores). Rides behind the score chunks, so a truncated
  /// transfer loses it first.
  kWorldKnowledge = 2,
  // Type byte 3 is retired; values never move, so a frame carrying it is
  // rejected, not misread.
};

inline constexpr uint8_t kMagic0 = 0x4a;  // 'J'
inline constexpr uint8_t kMagic1 = 0x58;  // 'X'
inline constexpr uint8_t kVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 16;
/// Offset of the checksum field within the header.
inline constexpr size_t kChecksumOffset = 8;
/// The largest payload length a header may announce. The length field is
/// untrusted input, so every reader rejects a larger one before it buffers
/// a single payload byte.
inline constexpr size_t kMaxFramePayloadBytes = size_t{1} << 26;  // 64 MiB

/// Little-endian byte sink for payloads. Appends to an external buffer so a
/// whole message (many frames) lives in one allocation.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>& out) : out_(out) {}

  void PutU8(uint8_t v) { out_.push_back(v); }
  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  void PutVarint32(uint32_t v) { VByteEncode32(v, out_); }
  void PutVarint64(uint64_t v) { VByteEncode64(v, out_); }
  void PutFloat(float v) {
    uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU32(bits);
  }

  size_t size() const { return out_.size(); }

 private:
  std::vector<uint8_t>& out_;
};

/// Bounds-checked little-endian reader over untrusted bytes. Every getter
/// returns false (leaving the cursor untouched) instead of reading past the
/// end, so decoders turn malformed input into an error Status, never UB.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  bool GetU8(uint8_t* v) {
    if (pos_ + 1 > data_.size()) return false;
    *v = data_[pos_++];
    return true;
  }
  bool GetU32(uint32_t* v) {
    if (pos_ + 4 > data_.size()) return false;
    uint32_t out = 0;
    for (int i = 0; i < 4; ++i) out |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    *v = out;
    return true;
  }
  bool GetU64(uint64_t* v) {
    if (pos_ + 8 > data_.size()) return false;
    uint64_t out = 0;
    for (int i = 0; i < 8; ++i) out |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    *v = out;
    return true;
  }
  /// Varint decode with strict bounds and width checks
  /// (VByteDecode32Checked / VByteDecode64Checked): rejects encodings that
  /// run off the buffer or carry more than 32/64 value bits.
  bool GetVarint32(uint32_t* v) {
    return VByteDecode32Checked(data_.data(), data_.size(), pos_, v);
  }
  bool GetVarint64(uint64_t* v) {
    return VByteDecode64Checked(data_.data(), data_.size(), pos_, v);
  }
  bool GetFloat(float* v) {
    uint32_t bits = 0;
    if (!GetU32(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

/// A parsed frame: its type and a view of its payload (into the caller's
/// buffer; valid while that buffer lives).
struct FrameView {
  MessageType type = MessageType::kScoreChunk;
  std::span<const uint8_t> payload;
};

/// The fields of a validated frame header.
struct FrameHeader {
  uint8_t type = 0;
  uint32_t payload_len = 0;
  uint64_t checksum = 0;  // As stored; see VerifyFrameChecksum.
};

/// The one header check every frame reader runs (ParseFrame, FrameAssembler,
/// net::ReadFrameBlocking, the chaos proxy): validates the 16 bytes at
/// `header` — magic, version (Corruption otherwise) and a payload length of
/// at most kMaxFramePayloadBytes (OutOfRange otherwise) — and decodes them
/// into `out`. The type byte is passed through; each consumer checks it
/// against its own type space.
Status DecodeFrameHeader(const uint8_t* header, FrameHeader* out);

/// The frame checksum: common FNV-1a/Mix64 over the 8 pre-checksum header
/// bytes plus the payload.
uint64_t ComputeFrameChecksum(const uint8_t* header8, std::span<const uint8_t> payload);

/// Corruption unless `payload` matches the checksum stored in `header`
/// (already decoded by DecodeFrameHeader).
Status VerifyFrameChecksum(const uint8_t* header, const FrameHeader& decoded,
                           std::span<const uint8_t> payload);

/// Appends one frame (header + `payload`) to `out`.
void AppendFrame(MessageType type, std::span<const uint8_t> payload,
                 std::vector<uint8_t>& out);

/// Same framing with an arbitrary type byte. The meeting decoder rejects
/// types outside MessageType; this overload exists for layers that define
/// their own type space over the same frame header (src/net's control
/// protocol uses 0x10+).
void AppendFrameRaw(uint8_t type, std::span<const uint8_t> payload,
                    std::vector<uint8_t>& out);

/// Convenience: frames the bytes `out[payload_start:]` in place, i.e. the
/// payload was written directly into `out` and the 16 header bytes are
/// inserted before it. Avoids a payload copy per frame.
void SealFrame(MessageType type, size_t payload_start, std::vector<uint8_t>& out);

/// Parses the frame starting at `data[offset]`. On success advances
/// `offset` past the frame and fills `frame`. On failure (truncated header,
/// bad magic/version/type, payload running past the buffer, checksum
/// mismatch) returns a Corruption Status — OutOfRange for a length over
/// kMaxFramePayloadBytes or an offset past the buffer — and leaves `offset`
/// untouched.
Status ParseFrame(std::span<const uint8_t> data, size_t& offset, FrameView& frame);

}  // namespace wire
}  // namespace jxp

#endif  // JXP_WIRE_WIRE_FORMAT_H_
