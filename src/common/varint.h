#ifndef JXP_COMMON_VARINT_H_
#define JXP_COMMON_VARINT_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

namespace jxp {

/// Compact-encoding primitives shared by the qp posting-list compression and
/// the meeting wire codec (DESIGN.md §6f / §6g): VByte variable-length
/// integers (7 data bits per byte, high bit set on all but the final byte)
/// and the never-narrowing float quantization used for per-block metadata
/// and wire scores.

/// Appends `value` VByte-encoded to `out`.
inline void VByteEncode32(uint32_t value, std::vector<uint8_t>& out) {
  while (value >= 0x80u) {
    out.push_back(static_cast<uint8_t>((value & 0x7fu) | 0x80u));
    value >>= 7;
  }
  out.push_back(static_cast<uint8_t>(value));
}

/// Decodes one VByte value starting at `data[offset]`, advancing `offset`.
/// Trusted-input variant (no bounds checking): the caller guarantees a
/// complete encoding is present, as qp's in-memory blocks do. Untrusted
/// input (wire frames) goes through wire::ByteReader instead.
inline uint32_t VByteDecode32(const uint8_t* data, size_t& offset) {
  uint32_t value = 0;
  int shift = 0;
  while (true) {
    const uint8_t byte = data[offset++];
    value |= static_cast<uint32_t>(byte & 0x7fu) << shift;
    if ((byte & 0x80u) == 0) return value;
    shift += 7;
  }
}

/// Bounds-checked decode of one VByte value from `data[offset..size)`.
/// Returns false — leaving `offset` untouched — when the encoding runs off
/// the buffer or carries more than 32 value bits (an overlong or truncated
/// final value must surface as an error, never as a read past the buffer).
inline bool VByteDecode32Checked(const uint8_t* data, size_t size, size_t& offset,
                                 uint32_t* value) {
  uint32_t v = 0;
  int shift = 0;
  size_t pos = offset;
  while (pos < size) {
    const uint8_t byte = data[pos++];
    v |= static_cast<uint32_t>(byte & 0x7fu) << shift;
    if ((byte & 0x80u) == 0) {
      // The final byte of a 5-byte encoding may only carry 4 data bits.
      if (shift == 28 && (byte & 0x70u) != 0) return false;
      *value = v;
      offset = pos;
      return true;
    }
    shift += 7;
    if (shift >= 35) return false;
  }
  return false;
}

inline bool VByteDecode64Checked(const uint8_t* data, size_t size, size_t& offset,
                                 uint64_t* value) {
  uint64_t v = 0;
  int shift = 0;
  size_t pos = offset;
  while (pos < size) {
    const uint8_t byte = data[pos++];
    v |= static_cast<uint64_t>(byte & 0x7fu) << shift;
    if ((byte & 0x80u) == 0) {
      if (shift == 63 && (byte & 0x7eu) != 0) return false;
      *value = v;
      offset = pos;
      return true;
    }
    shift += 7;
    if (shift >= 70) return false;
  }
  return false;
}

/// Decodes `count` consecutive VByte values from `data[offset..size)` into
/// `out`, advancing `offset`. Bounds-checked like VByteDecode32Checked, with
/// a branch-free fast path while nine values and ten bytes remain: one
/// 8-byte load emits every byte up to the first continuation bit as a
/// one-byte value (all eight when there is none — the common case for small
/// deltas and term frequencies), and a two-byte value right after them is
/// emitted too. The checked scalar decoder takes any longer value.
inline bool VByteDecodeArray32(const uint8_t* data, size_t size, size_t& offset,
                               size_t count, uint32_t* out) {
  size_t pos = offset;
  size_t i = 0;
  while (i < count) {
    if (i + 9 <= count && pos + 10 <= size) {
      uint64_t window;
      std::memcpy(&window, data + pos, sizeof(window));
      // All eight lanes and the lane after the one-byte prefix are written;
      // those past what is emitted are overwritten by the values that
      // follow.
      for (int b = 0; b < 8; ++b) out[i + b] = static_cast<uint8_t>(window >> (8 * b));
      const uint64_t continued = window & 0x8080808080808080ull;
      const size_t singles = continued == 0 ? 8 : std::countr_zero(continued) / 8;
      const uint32_t pair = data[pos + singles] | uint32_t{data[pos + singles + 1]} << 8;
      out[i + singles] = (pair & 0x7fu) | (pair >> 8 & 0x7fu) << 7;
      const size_t two = (singles < 8) & ((pair & 0x8000u) == 0);
      i += singles + two;
      pos += singles + 2 * two;
      if (singles == 8 || two == 1) continue;
    }
    if (!VByteDecode32Checked(data, size, pos, &out[i])) return false;
    ++i;
  }
  offset = pos;
  return true;
}

/// Smallest float f with (double)f >= v; the rounding direction that keeps a
/// quantized *upper bound* a true upper bound of the exact doubles it
/// summarizes (the qp pruning invariant).
inline float UpperBoundFloat(double v) {
  float f = static_cast<float>(v);
  if (static_cast<double>(f) < v) {
    f = std::nextafter(f, std::numeric_limits<float>::infinity());
  }
  return f;
}

/// Largest float f with (double)f <= v; the rounding direction for wire
/// scores, which must never *overestimate* the sender's exact value (JXP
/// safety, Theorem 5.3: reported scores are underestimates of the true
/// PageRank, and quantization must not break that).
///
/// The step down is std::nextafter(f, -inf) on the bits, and the choice a
/// select rather than a branch: rounding to nearest overshoots for about
/// half of all scores, at random, and the wire encodes thousands per
/// message. A positive float steps down by one ulp at bits − 1; zero and
/// negative floats step away from zero at (bits | sign) + 1 (so ±0 goes to
/// −denorm_min). NaN compares false and passes through.
inline float LowerBoundFloat(double v) {
  const float f = static_cast<float>(v);
  const uint32_t bits = std::bit_cast<uint32_t>(f);
  const uint32_t down = static_cast<int32_t>(bits) > 0 ? bits - 1 : (bits | 0x80000000u) + 1;
  return std::bit_cast<float>(static_cast<double>(f) > v ? down : bits);
}

}  // namespace jxp

#endif  // JXP_COMMON_VARINT_H_
