#ifndef JXP_COMMON_VARINT_H_
#define JXP_COMMON_VARINT_H_

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
/// an unrolled fast path: whenever the next eight bytes are all single-byte
/// encodings (no continuation bits — the common case for small deltas and
/// term frequencies), one 8-byte load and a mask test emit eight values with
/// no per-byte branching. Falls back to the checked scalar loop around any
/// multi-byte value and re-enters the wide path after it.
inline bool VByteDecodeArray32(const uint8_t* data, size_t size, size_t& offset,
                               size_t count, uint32_t* out) {
  size_t pos = offset;
  size_t i = 0;
  while (i < count) {
    if (i + 8 <= count && pos + 8 <= size) {
      uint64_t window;
      std::memcpy(&window, data + pos, sizeof(window));
      if ((window & 0x8080808080808080ull) == 0) {
        out[i + 0] = static_cast<uint8_t>(window);
        out[i + 1] = static_cast<uint8_t>(window >> 8);
        out[i + 2] = static_cast<uint8_t>(window >> 16);
        out[i + 3] = static_cast<uint8_t>(window >> 24);
        out[i + 4] = static_cast<uint8_t>(window >> 32);
        out[i + 5] = static_cast<uint8_t>(window >> 40);
        out[i + 6] = static_cast<uint8_t>(window >> 48);
        out[i + 7] = static_cast<uint8_t>(window >> 56);
        i += 8;
        pos += 8;
        continue;
      }
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
inline float LowerBoundFloat(double v) {
  float f = static_cast<float>(v);
  if (static_cast<double>(f) > v) {
    f = std::nextafter(f, -std::numeric_limits<float>::infinity());
  }
  return f;
}

}  // namespace jxp

#endif  // JXP_COMMON_VARINT_H_
