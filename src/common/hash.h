#ifndef JXP_COMMON_HASH_H_
#define JXP_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace jxp {

/// Finalizing 64-bit mixer (the MurmurHash3 fmix64 function). Maps any
/// 64-bit key to a well-distributed 64-bit value; bijective.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Initial state of a streamed FNV-1a hash.
inline constexpr uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;

/// Folds `size` bytes into a streamed FNV-1a state: hashing a byte string
/// in pieces gives the same state as hashing it in one call.
inline uint64_t Fnv1aUpdate(uint64_t h, const unsigned char* data, size_t size) {
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// FNV-1a hash of a byte string, finalized with Mix64; checkpoint checksums
/// (core/state_io) and test digests use it.
inline uint64_t HashString(std::string_view s) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(s.data());
  return Mix64(Fnv1aUpdate(kFnv1aOffset, bytes, s.size()));
}

}  // namespace jxp

#endif  // JXP_COMMON_HASH_H_
