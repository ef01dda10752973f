#include "wire/wire_format.h"

#include <bit>

#include "common/check.h"
#include "common/hash.h"

namespace jxp {
namespace wire {

ByteWriter::ByteWriter(std::vector<uint8_t>& out, size_t max_bytes)
    : out_(out), bounded_(true) {
  const size_t start = out.size();
  out.resize(start + max_bytes);
  cursor_ = out.data() + start;
  end_ = out.data() + out.size();
}

void ByteWriter::Grow(size_t n) {
  JXP_CHECK(!bounded_) << "encoder wrote past its computed bound";
  const size_t start = out_.size();
  out_.resize(start + n);
  cursor_ = out_.data() + start;
  end_ = cursor_ + n;
}

void ByteWriter::Trim() {
  out_.resize(static_cast<size_t>(cursor_ - out_.data()));
  end_ = cursor_;
}

namespace {

// xxHash64's public primes.
constexpr uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
constexpr uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
constexpr uint64_t kPrime5 = 0x27d4eb2f165667c5ULL;

uint64_t LoadLe64(const uint8_t* p) {
  // Spelled out, so compilers merge the byte loads into one on
  // little-endian targets (an 8-step loop is not unrolled at -O2).
  return static_cast<uint64_t>(p[0]) | static_cast<uint64_t>(p[1]) << 8 |
         static_cast<uint64_t>(p[2]) << 16 | static_cast<uint64_t>(p[3]) << 24 |
         static_cast<uint64_t>(p[4]) << 32 | static_cast<uint64_t>(p[5]) << 40 |
         static_cast<uint64_t>(p[6]) << 48 | static_cast<uint64_t>(p[7]) << 56;
}

uint64_t HashRound(uint64_t h, uint64_t w) {
  return std::rotl(h + w * kPrime2, 31) * kPrime1;
}

}  // namespace

uint64_t ComputeFrameChecksum(const uint8_t* header8, std::span<const uint8_t> payload) {
  static_assert(kChecksumOffset == 8, "the header is exactly the first word");
  uint64_t h = HashRound(kPrime5, LoadLe64(header8));
  const uint8_t* p = payload.data();
  size_t left = payload.size();
  for (; left >= 8; p += 8, left -= 8) h = HashRound(h, LoadLe64(p));
  if (left > 0) {
    uint8_t tail[8] = {};
    std::memcpy(tail, p, left);
    h = HashRound(h, LoadLe64(tail));
  }
  return Mix64(h ^ (kChecksumOffset + payload.size()));
}

Status DecodeFrameHeader(const uint8_t* header, FrameHeader* out) {
  if (header[0] != kMagic0 || header[1] != kMagic1) {
    return Status::Corruption("bad frame magic");
  }
  if (header[2] != kVersion) {
    return Status::Corruption("unsupported wire version " + std::to_string(header[2]));
  }
  uint32_t payload_len = 0;
  for (int i = 0; i < 4; ++i) {
    payload_len |= static_cast<uint32_t>(header[4 + i]) << (8 * i);
  }
  if (payload_len > kMaxFramePayloadBytes) {
    return Status::OutOfRange("frame payload length " + std::to_string(payload_len) +
                              " exceeds cap " + std::to_string(kMaxFramePayloadBytes));
  }
  uint64_t checksum = 0;
  for (int i = 0; i < 8; ++i) {
    checksum |= static_cast<uint64_t>(header[kChecksumOffset + i]) << (8 * i);
  }
  out->type = header[3];
  out->payload_len = payload_len;
  out->checksum = checksum;
  return Status::OK();
}

Status VerifyFrameChecksum(const uint8_t* header, const FrameHeader& decoded,
                           std::span<const uint8_t> payload) {
  if (decoded.checksum != ComputeFrameChecksum(header, payload)) {
    return Status::Corruption("frame checksum mismatch");
  }
  return Status::OK();
}

namespace {

bool ValidType(uint8_t type) {
  return type == static_cast<uint8_t>(MessageType::kScoreChunk) ||
         type == static_cast<uint8_t>(MessageType::kWorldKnowledge);
}

void WriteHeader(uint8_t type, std::span<const uint8_t> payload, uint8_t* header) {
  header[0] = kMagic0;
  header[1] = kMagic1;
  header[2] = kVersion;
  header[3] = type;
  const uint32_t len = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) header[4 + i] = static_cast<uint8_t>(len >> (8 * i));
  const uint64_t checksum = ComputeFrameChecksum(header, payload);
  for (int i = 0; i < 8; ++i) {
    header[kChecksumOffset + i] = static_cast<uint8_t>(checksum >> (8 * i));
  }
}

}  // namespace

void AppendFrame(MessageType type, std::span<const uint8_t> payload,
                 std::vector<uint8_t>& out) {
  AppendFrameRaw(static_cast<uint8_t>(type), payload, out);
}

void AppendFrameRaw(uint8_t type, std::span<const uint8_t> payload,
                    std::vector<uint8_t>& out) {
  uint8_t header[kFrameHeaderBytes];
  WriteHeader(type, payload, header);
  out.insert(out.end(), header, header + kFrameHeaderBytes);
  out.insert(out.end(), payload.begin(), payload.end());
}

void SealFrame(MessageType type, size_t frame_start, std::vector<uint8_t>& out) {
  JXP_CHECK_LE(frame_start + kFrameHeaderBytes, out.size());
  uint8_t* header = out.data() + frame_start;
  WriteHeader(static_cast<uint8_t>(type),
              std::span<const uint8_t>(header + kFrameHeaderBytes,
                                       out.size() - frame_start - kFrameHeaderBytes),
              header);
}

Status ParseFrame(std::span<const uint8_t> data, size_t& offset, FrameView& frame) {
  if (offset > data.size()) return Status::OutOfRange("frame offset past buffer");
  const size_t available = data.size() - offset;
  if (available < kFrameHeaderBytes) {
    return Status::Corruption("truncated frame header (" + std::to_string(available) +
                              " of " + std::to_string(kFrameHeaderBytes) + " bytes)");
  }
  const uint8_t* header = data.data() + offset;
  FrameHeader decoded;
  if (Status status = DecodeFrameHeader(header, &decoded); !status.ok()) return status;
  if (!ValidType(decoded.type)) {
    return Status::Corruption("unknown message type " + std::to_string(decoded.type));
  }
  if (decoded.payload_len > available - kFrameHeaderBytes) {
    return Status::Corruption("frame payload runs past buffer (" +
                              std::to_string(decoded.payload_len) + " > " +
                              std::to_string(available - kFrameHeaderBytes) + ")");
  }
  const std::span<const uint8_t> payload(header + kFrameHeaderBytes, decoded.payload_len);
  if (Status status = VerifyFrameChecksum(header, decoded, payload); !status.ok()) {
    return status;
  }
  frame.type = static_cast<MessageType>(decoded.type);
  frame.payload = payload;
  offset += kFrameHeaderBytes + decoded.payload_len;
  return Status::OK();
}

}  // namespace wire
}  // namespace jxp
