#ifndef JXP_QP_FLAT_U32_MAP_H_
#define JXP_QP_FLAT_U32_MAP_H_

#include <cstdint>
#include <vector>

#include "common/check.h"

namespace jxp {
namespace qp {

/// Open-addressing hash map from 4-byte keys (term ids, docids) to values:
/// the frozen index's term directory and static-prior table, probed once per
/// (peer, query term) and once per fully scored candidate. Linear probing
/// over a power-of-two slot array kept at most half full; keys sit in their
/// own array, so a probe reads 4 bytes per slot and touches the value array
/// only on a hit. The capacity is fixed at construction, because the
/// builder knows how many keys a table can receive.
template <typename V>
class FlatU32Map {
 public:
  /// The key value that marks an empty slot; it can never be inserted, and
  /// looking it up always misses.
  static constexpr uint32_t kEmptyKey = 0xffffffffu;

  /// An empty map that holds no keys.
  FlatU32Map() = default;

  /// A map with room for up to `max_keys` distinct keys.
  explicit FlatU32Map(size_t max_keys) {
    size_t slots = 8;
    int bits = 3;
    while (slots < 2 * max_keys) {
      slots *= 2;
      ++bits;
    }
    keys_.assign(slots, kEmptyKey);
    values_.resize(slots);
    shift_ = 64 - bits;
  }

  /// Inserts (key, value) unless `key` is already present; returns whether
  /// it inserted. Aborts past the construction-time key budget.
  bool TryInsert(uint32_t key, V value) {
    JXP_CHECK_NE(key, kEmptyKey);
    JXP_CHECK(!keys_.empty());
    const size_t mask = keys_.size() - 1;
    size_t slot = Home(key);
    while (keys_[slot] != kEmptyKey) {
      if (keys_[slot] == key) return false;
      slot = (slot + 1) & mask;
    }
    JXP_CHECK_LE(2 * (size_ + 1), keys_.size()) << "FlatU32Map key budget exceeded";
    keys_[slot] = key;
    values_[slot] = value;
    ++size_;
    return true;
  }

  /// The value stored under `key`, or nullptr.
  const V* Find(uint32_t key) const {
    if (keys_.empty()) return nullptr;
    const size_t mask = keys_.size() - 1;
    // The empty test comes first, so a lookup of kEmptyKey itself misses.
    for (size_t slot = Home(key);; slot = (slot + 1) & mask) {
      if (keys_[slot] == kEmptyKey) return nullptr;
      if (keys_[slot] == key) return &values_[slot];
    }
  }

  size_t size() const { return size_; }

 private:
  /// Fibonacci hashing: the top bits of key * 2^64/phi, which spreads the
  /// runs of consecutive ids a peer's fragment holds.
  size_t Home(uint32_t key) const {
    return static_cast<size_t>((uint64_t{key} * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  std::vector<uint32_t> keys_;
  std::vector<V> values_;
  int shift_ = 64;
  size_t size_ = 0;
};

}  // namespace qp
}  // namespace jxp

#endif  // JXP_QP_FLAT_U32_MAP_H_
