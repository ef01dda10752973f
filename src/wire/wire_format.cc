#include "wire/wire_format.h"

#include "common/check.h"
#include "common/hash.h"

namespace jxp {
namespace wire {

uint64_t ComputeFrameChecksum(const uint8_t* header8, std::span<const uint8_t> payload) {
  // HashString over header8 + payload, streamed without concatenating.
  const uint64_t h = Fnv1aUpdate(kFnv1aOffset, header8, kChecksumOffset);
  return Mix64(Fnv1aUpdate(h, payload.data(), payload.size()));
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

void SealFrame(MessageType type, size_t payload_start, std::vector<uint8_t>& out) {
  JXP_CHECK_LE(payload_start, out.size());
  uint8_t header[kFrameHeaderBytes];
  // The header depends only on the payload bytes, which insert() may move;
  // compute it first, from the payload at its pre-insert location.
  WriteHeader(static_cast<uint8_t>(type),
              std::span<const uint8_t>(out.data() + payload_start,
                                       out.size() - payload_start),
              header);
  out.insert(out.begin() + static_cast<ptrdiff_t>(payload_start), header,
             header + kFrameHeaderBytes);
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
