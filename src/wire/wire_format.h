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
///   [2]     version (currently 2)
///   [3]     message type (MessageType)
///   [4:8)   payload length, uint32 little-endian
///   [8:16)  checksum, uint64 little-endian — ComputeFrameChecksum over the
///           first 8 header bytes followed by the payload
///   [16:16+len) payload
///
/// The checksum is certain to catch damage confined to one 8-byte word of
/// the hashed bytes that leaves the length field intact (so every
/// single-bit flip outside it), and any damage to the checksum field
/// itself. A damaged length either runs the frame past the buffer or makes
/// it cover other bytes; that, and damage spanning words, passes only by a
/// 64-bit hash collision.
///
/// Versioning rules: the header layout is frozen; `version` is bumped when
/// any payload encoding or the checksum changes incompatibly, and decoders
/// reject frames from versions they do not understand (Status, never a
/// crash). Version 1 frames carried an FNV-1a checksum. New message types
/// may be added within a version; decoders reject unknown types.
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
inline constexpr uint8_t kVersion = 2;
inline constexpr size_t kFrameHeaderBytes = 16;
/// Offset of the checksum field within the header.
inline constexpr size_t kChecksumOffset = 8;
/// The largest payload length a header may announce. The length field is
/// untrusted input, so every reader rejects a larger one before it buffers
/// a single payload byte.
inline constexpr size_t kMaxFramePayloadBytes = size_t{1} << 26;  // 64 MiB

/// Little-endian byte sink for payloads. Appends to an external buffer so a
/// whole message (many frames) lives in one allocation, and writes through a
/// raw cursor: room is checked once per record (at most 5 bytes per 32-bit
/// varint, 10 per 64-bit one, 4 per float), never once per byte.
///
/// A writer given `max_bytes` sizes `out` once for that many more bytes and
/// trims it to what was written in Finish() (or its destructor); until then
/// `out` holds unwritten slack. A put past the bound fails a JXP_CHECK, so
/// an encoder that outgrows its computed bound aborts instead of writing out
/// of bounds. Without a bound, `out` grows by exactly what each put writes
/// and is whole after every call (the form for small control payloads).
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>& out)
      : out_(out), cursor_(out.data() + out.size()), end_(cursor_) {}
  ByteWriter(std::vector<uint8_t>& out, size_t max_bytes);
  ~ByteWriter() { Finish(); }
  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;

  void PutU8(uint8_t v) {
    uint8_t* p = Room(1);
    *p = v;
    Commit(p + 1);
  }
  void PutU32(uint32_t v) {
    // Spelled out, so compilers merge the stores into one on little-endian
    // targets (a loop is not unrolled at -O2).
    uint8_t* p = Room(4);
    p[0] = static_cast<uint8_t>(v);
    p[1] = static_cast<uint8_t>(v >> 8);
    p[2] = static_cast<uint8_t>(v >> 16);
    p[3] = static_cast<uint8_t>(v >> 24);
    Commit(p + 4);
  }
  void PutU64(uint64_t v) {
    PutU32(static_cast<uint32_t>(v));
    PutU32(static_cast<uint32_t>(v >> 32));
  }
  void PutVarint32(uint32_t v) { PutVarint<5>(v); }
  void PutVarint64(uint64_t v) { PutVarint<10>(v); }
  void PutFloat(float v) {
    uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU32(bits);
  }
  /// Leaves `n` bytes, zero until written in place (a frame header; see
  /// SealFrame).
  void Skip(size_t n) { Commit(Room(n) + n); }

  /// Trims `out` to what a bounded writer wrote; it takes no puts after
  /// this and no longer touches `out`, which its owner may then extend.
  /// Idempotent, and a no-op without a bound.
  void Finish() {
    if (bounded_ && cursor_ != end_) Trim();
  }

 private:
  /// A cursor with at least `n` writable bytes ahead of it.
  uint8_t* Room(size_t n) {
    if (static_cast<size_t>(end_ - cursor_) < n) [[unlikely]] Grow(n);
    return cursor_;
  }
  void Commit(uint8_t* p) {
    cursor_ = p;
    if (!bounded_) Trim();
  }
  /// Unbounded: resizes `out` for `n` more bytes. Bounded: fails.
  void Grow(size_t n);
  void Trim();
  /// VByte (common/varint.h) of a value that takes at most kMaxBytes.
  template <size_t kMaxBytes>
  void PutVarint(uint64_t v) {
    uint8_t* p = Room(kMaxBytes);
    while (v >= 0x80u) {
      *p++ = static_cast<uint8_t>((v & 0x7fu) | 0x80u);
      v >>= 7;
    }
    *p++ = static_cast<uint8_t>(v);
    Commit(p);
  }

  std::vector<uint8_t>& out_;
  uint8_t* cursor_;
  uint8_t* end_;
  bool bounded_ = false;
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
    // Spelled out, so compilers merge the loads into one (see PutU32).
    const uint8_t* p = data_.data() + pos_;
    *v = static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
    pos_ += 4;
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
  ///
  /// With at least 5 bytes left, no encoding can run off the buffer, so the
  /// 32-bit decode skips the per-byte bounds tests; it accepts and rejects
  /// exactly what VByteDecode32Checked does (a 5th byte must be < 0x10).
  bool GetVarint32(uint32_t* v) {
    if (data_.size() - pos_ < 5) [[unlikely]] {
      return VByteDecode32Checked(data_.data(), data_.size(), pos_, v);
    }
    const uint8_t* p = data_.data() + pos_;
    uint32_t out = p[0];
    if (out < 0x80u) {
      pos_ += 1;
    } else {
      out &= 0x7fu;
      uint32_t byte = p[1];
      out |= (byte & 0x7fu) << 7;
      if (byte < 0x80u) {
        pos_ += 2;
      } else {
        byte = p[2];
        out |= (byte & 0x7fu) << 14;
        if (byte < 0x80u) {
          pos_ += 3;
        } else {
          byte = p[3];
          out |= (byte & 0x7fu) << 21;
          if (byte < 0x80u) {
            pos_ += 4;
          } else {
            byte = p[4];
            // A continuation bit, or more than the 4 value bits left.
            if (byte >= 0x10u) return false;
            out |= byte << 28;
            pos_ += 5;
          }
        }
      }
    }
    *v = out;
    return true;
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

/// The frame checksum over the 8 pre-checksum header bytes followed by the
/// payload, taken as little-endian 8-byte words (the header is the first;
/// a final partial word is zero-padded). Each word w updates the state as
/// h = rotl(h + w * P2, 31) * P1 — the xxHash64 round and primes, in one
/// lane from the seed P5 — then the byte length is xored in and Mix64
/// finishes. Every step is a bijection in h and in w, so two byte strings of
/// one length that differ in a single word always hash apart.
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

/// Frames `out[frame_start:]` in place: the caller left the 16 header bytes
/// at `frame_start` (ByteWriter::Skip) and wrote the payload straight after
/// them; the header is written over them. No payload byte moves.
void SealFrame(MessageType type, size_t frame_start, std::vector<uint8_t>& out);

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
