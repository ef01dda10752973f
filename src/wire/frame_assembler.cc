#include "wire/frame_assembler.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace jxp {
namespace wire {

size_t FrameAssembler::Feed(std::span<const uint8_t> data) {
  size_t consumed = 0;
  while (consumed < data.size()) {
    switch (state_) {
      case State::kFrameReady:
      case State::kFailed:
        return consumed;
      case State::kHeader: {
        const size_t want = kFrameHeaderBytes - header_filled_;
        const size_t take = std::min(want, data.size() - consumed);
        std::memcpy(header_ + header_filled_, data.data() + consumed, take);
        header_filled_ += take;
        consumed += take;
        if (header_filled_ == kFrameHeaderBytes) OnHeaderComplete();
        break;
      }
      case State::kPayload: {
        const size_t want = decoded_.payload_len - payload_.size();
        const size_t take = std::min(want, data.size() - consumed);
        payload_.insert(payload_.end(), data.data() + consumed,
                        data.data() + consumed + take);
        consumed += take;
        if (payload_.size() == decoded_.payload_len) OnPayloadComplete();
        break;
      }
    }
  }
  return consumed;
}

void FrameAssembler::OnHeaderComplete() {
  // Rejects an over-cap length before reserving: the length field is
  // untrusted input, and this is the only place it could turn into an
  // allocation.
  if (Status status = DecodeFrameHeader(header_, &decoded_); !status.ok()) {
    error_ = std::move(status);
    state_ = State::kFailed;
    return;
  }
  payload_.clear();
  if (decoded_.payload_len == 0) {
    OnPayloadComplete();
  } else {
    payload_.reserve(decoded_.payload_len);
    state_ = State::kPayload;
  }
}

void FrameAssembler::OnPayloadComplete() {
  if (Status status = VerifyFrameChecksum(header_, decoded_, payload_); !status.ok()) {
    error_ = std::move(status);
    state_ = State::kFailed;
    return;
  }
  state_ = State::kFrameReady;
}

void FrameAssembler::ConsumeFrame() {
  if (state_ != State::kFrameReady) return;
  payload_.clear();
  header_filled_ = 0;
  state_ = State::kHeader;
}

}  // namespace wire
}  // namespace jxp
