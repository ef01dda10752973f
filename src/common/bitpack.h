#ifndef JXP_COMMON_BITPACK_H_
#define JXP_COMMON_BITPACK_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/varint.h"

namespace jxp {

/// The one block codec for integer columns, shared by qp's posting lists
/// (DESIGN.md §6h) and the meeting wire payload (§6g). A column is split
/// into *areas* of up to kAreaValues values; an area does not store its
/// count (the reader knows it from block metadata or a column count). Each
/// area starts with one width byte:
///
///   1..32  every value occupies exactly `width` bits, little-endian within
///          the byte stream, so lane i lives at bit offset i*width
///          (ceil(count*width/8) bytes). Fixed lanes decode branch-free: one
///          unaligned 64-bit load, a shift and a mask per value, the layout
///          of PISA's blocked cursors (SNIPPETS.md, snippet 2).
///   0      the values as VByte (common/varint.h), taken when that is
///          smaller than the lanes (e.g. one huge gap among small ones).
///
/// The width is the bit width of the largest value, so the bytes are a pure
/// function of the values.

/// Values per area of a column (the last area may be short).
inline constexpr size_t kAreaValues = 128;

/// Bits needed to represent `v` (>= 1 even for 0, so a packed width byte is
/// never 0 — width 0 is the VByte-fallback marker).
inline uint32_t BitWidth32(uint32_t v) { return static_cast<uint32_t>(std::bit_width(v | 1u)); }

/// The most bytes an area of `count` values takes: the width byte and
/// 32-bit lanes (the VByte fallback is only taken when it is smaller).
inline constexpr size_t MaxAreaBytes(size_t count) { return 1 + 4 * count; }

namespace bitpack_internal {

/// Packs values[0..count) at `width` bits each: the lanes gather in a
/// 64-bit accumulator that is flushed four bytes at a time, and the last
/// partial bytes at the end.
[[gnu::always_inline]] inline uint8_t* PackRun(const uint32_t* values, size_t count,
                                               uint32_t width, uint8_t* out) {
  uint64_t acc = 0;
  uint32_t filled = 0;
#pragma GCC unroll 8
  for (size_t i = 0; i < count; ++i) {
    acc |= uint64_t{values[i]} << filled;
    filled += width;
    if (filled >= 32) {
      // Spelled out, so compilers merge the stores into one on
      // little-endian targets.
      out[0] = static_cast<uint8_t>(acc);
      out[1] = static_cast<uint8_t>(acc >> 8);
      out[2] = static_cast<uint8_t>(acc >> 16);
      out[3] = static_cast<uint8_t>(acc >> 24);
      out += 4;
      acc >>= 32;
      filled -= 32;
    }
  }
  for (; filled > 0; filled = filled > 8 ? filled - 8 : 0) {
    *out++ = static_cast<uint8_t>(acc);
    acc >>= 8;
  }
  return out;
}

/// The last count % 8 lanes of an area, for every width.
[[gnu::noinline]] inline uint8_t* PackTail(const uint32_t* values, size_t count, uint32_t width,
                                           uint8_t* out) {
  return PackRun(values, count, width, out);
}

/// Eight lanes fill exactly kWidth bytes, so each group of eight is a
/// PackRun of constant length and width: unrolled, it shifts and stores by
/// constants only.
template <uint32_t kWidth>
uint8_t* PackLanes(const uint32_t* values, size_t count, uint8_t* out) {
  size_t i = 0;
  for (; i + 8 <= count; i += 8) out = PackRun(values + i, 8, kWidth, out);
  return PackTail(values + i, count - i, kWidth, out);
}

/// Unpacks the values of whole groups of eight among the first `wide` of
/// an area at kWidth bits, each loaded as one unaligned 64-bit window (the
/// caller guarantees the windows of the first `wide` values are loadable),
/// and returns how many it wrote. A group is kWidth bytes, so its loads,
/// shifts and mask are constants.
template <uint32_t kWidth>
size_t UnpackGroups(const uint8_t* base, size_t wide, uint32_t* out) {
  constexpr uint64_t kMask = kWidth == 32 ? 0xffffffffu : (uint64_t{1} << kWidth) - 1;
  size_t k = 0;
  for (; k + 8 <= wide; k += 8) {
    const uint8_t* group = base + k / 8 * kWidth;
#pragma GCC unroll 8
    for (uint32_t j = 0; j < 8; ++j) {
      uint64_t window;
      std::memcpy(&window, group + j * kWidth / 8, 8);
      out[k + j] = static_cast<uint32_t>((window >> (j * kWidth % 8)) & kMask);
    }
  }
  return k;
}

using PackFn = uint8_t* (*)(const uint32_t*, size_t, uint8_t*);
using UnpackFn = size_t (*)(const uint8_t*, size_t, uint32_t*);

template <size_t... W>
constexpr std::array<PackFn, 32> MakePackTable(std::index_sequence<W...>) {
  return {&PackLanes<W + 1>...};
}

template <size_t... W>
constexpr std::array<UnpackFn, 32> MakeUnpackTable(std::index_sequence<W...>) {
  return {&UnpackGroups<W + 1>...};
}

inline constexpr std::array<PackFn, 32> kPackTable =
    MakePackTable(std::make_index_sequence<32>{});
inline constexpr std::array<UnpackFn, 32> kUnpackTable =
    MakeUnpackTable(std::make_index_sequence<32>{});

}  // namespace bitpack_internal

/// Writes `count` values at `width` (1..32) bits each to `out`, which has
/// room for ceil(count*width/8) bytes, and returns the end. Every value must
/// fit in `width` bits. Each width has its own unrolled packer.
inline uint8_t* PackBits(const uint32_t* values, size_t count, uint32_t width, uint8_t* out) {
  return bitpack_internal::kPackTable[width - 1](values, count, out);
}

/// Decodes `count` values of `width` bits starting at `data[byte_offset]`
/// into `out`. `readable` is the number of bytes that may be *loaded* (the
/// whole backing buffer), which can exceed the packed area itself: the fast
/// path reads an unaligned 64-bit window per value and masks the excess,
/// eight values at a time by the width's own unrolled loop, so mid-buffer
/// areas decode branch-free and only the last few values of the buffer drop
/// to the byte-at-a-time scalar tail. Returns false when the
/// packed area itself (ceil(count*width/8) bytes) does not fit in
/// `readable` — truncated input is an error, never an out-of-bounds read.
inline bool UnpackBits(const uint8_t* data, size_t readable, size_t byte_offset,
                       size_t count, uint32_t width, uint32_t* out) {
  if (width < 1 || width > 32) return false;
  const size_t total_bytes = (count * width + 7) / 8;
  if (byte_offset > readable || total_bytes > readable - byte_offset) return false;
  const uint8_t* base = data + byte_offset;
  const uint64_t mask = width == 32 ? ~uint64_t{0} >> 32 : (uint64_t{1} << width) - 1;
  // A value starting at bit b needs bytes [b/8, b/8 + 8) loadable: widths
  // <= 32 plus a bit phase <= 7 always fit in one 64-bit window.
  size_t i = 0;
  if (readable - byte_offset >= 8) {
    const size_t wide_bytes = readable - byte_offset - 8;
    size_t wide = count;
    while (wide > 0 && ((wide - 1) * width) / 8 > wide_bytes) --wide;
    size_t k = bitpack_internal::kUnpackTable[width - 1](base, wide, out);
    for (; k < wide; ++k) {
      const size_t bit = k * width;
      uint64_t window;
      std::memcpy(&window, base + (bit >> 3), 8);
      out[k] = static_cast<uint32_t>((window >> (bit & 7)) & mask);
    }
    i = wide;
  }
  // Scalar tail: assemble byte by byte, never loading past `readable`.
  for (; i < count; ++i) {
    const size_t bit = i * width;
    uint64_t acc = 0;
    uint32_t got = 0;
    size_t byte = bit >> 3;
    const uint32_t phase = static_cast<uint32_t>(bit & 7);
    while (got < phase + width) {
      acc |= static_cast<uint64_t>(base[byte]) << got;
      ++byte;
      got += 8;
    }
    out[i] = static_cast<uint32_t>((acc >> phase) & mask);
  }
  return true;
}

/// The OR of an area's values (its lane width) and the bytes of its VByte
/// encoding: one per value plus one per 7-bit group boundary it passes.
struct AreaSize {
  uint32_t any_bits = 0;
  size_t vbyte_bytes = 0;
};

/// Always inlined, so that a full area's loop has a constant trip count and
/// vectorizes.
[[gnu::always_inline]] inline AreaSize SizeArea(const uint32_t* values, size_t count) {
  AreaSize size{0, count};
  for (size_t i = 0; i < count; ++i) {
    const uint32_t v = values[i];
    size.any_bits |= v;
    size.vbyte_bytes += (v >= 1u << 7) + (v >= 1u << 14) + (v >= 1u << 21) + (v >= 1u << 28);
  }
  return size;
}

/// Writes one area holding values[0..count) to `out` and returns the end:
/// packed lanes, or the VByte fallback when that is strictly smaller. `out`
/// has room for the area and one spare byte, which MaxAreaBytes(count)
/// always covers.
inline uint8_t* WriteArea(const uint32_t* values, size_t count, uint8_t* out) {
  const AreaSize size =
      count == kAreaValues ? SizeArea(values, kAreaValues) : SizeArea(values, count);
  const uint32_t width = BitWidth32(size.any_bits);
  if (size.vbyte_bytes < (count * width + 7) / 8) {
    // A value below 2^14 stores two bytes and keeps one or two without a
    // branch; the spare byte covers the last value's second.
    *out++ = 0;
    for (size_t i = 0; i < count; ++i) {
      uint32_t v = values[i];
      if (v < 1u << 14) {
        const uint32_t two = v >= 0x80u;
        out[0] = static_cast<uint8_t>((v & 0x7fu) | two << 7);
        out[1] = static_cast<uint8_t>(v >> 7);
        out += 1 + two;
        continue;
      }
      while (v >= 0x80u) {
        *out++ = static_cast<uint8_t>((v & 0x7fu) | 0x80u);
        v >>= 7;
      }
      *out++ = static_cast<uint8_t>(v);
    }
    return out;
  }
  *out++ = static_cast<uint8_t>(width);
  return PackBits(values, count, width, out);
}

/// Appends one area holding values[0..count) to `out`. `out` grows by the
/// area's own size and the VByte writer's spare byte, not by
/// MaxAreaBytes, so that a short list's capacity follows its bytes.
inline void AppendArea(const uint32_t* values, size_t count, std::vector<uint8_t>& out) {
  const size_t begin = out.size();
  const AreaSize size = SizeArea(values, count);
  const size_t packed_bytes = (count * BitWidth32(size.any_bits) + 7) / 8;
  out.resize(begin + 2 + std::min(size.vbyte_bytes, packed_bytes));
  const uint8_t* end = WriteArea(values, count, out.data() + begin);
  out.resize(static_cast<size_t>(end - out.data()));
}

/// Reads the area of `count` values at `data[offset]` into `out` and moves
/// `offset` past it. The bytes are untrusted: a width above 32, or lanes or
/// a VByte tail that run past `size` (or an overlong VByte value) is
/// Corruption and leaves `offset` untouched. Packed lanes may load, never
/// use, bytes after the area up to `size`.
inline Status ReadArea(const uint8_t* data, size_t size, size_t& offset, size_t count,
                       uint32_t* out) {
  if (offset >= size) return Status::Corruption("truncated area");
  const uint32_t width = data[offset];
  size_t pos = offset + 1;
  if (width == 0) {
    if (!VByteDecodeArray32(data, size, pos, count, out)) {
      return Status::Corruption("truncated or overlong VByte area");
    }
  } else {
    if (width > 32) return Status::Corruption("area width above 32");
    if (!UnpackBits(data, size, pos, count, width, out)) {
      return Status::Corruption("truncated packed area");
    }
    pos += (count * width + 7) / 8;
  }
  offset = pos;
  return Status::OK();
}

}  // namespace jxp

#endif  // JXP_COMMON_BITPACK_H_
