#ifndef JXP_P2P_FAULTS_H_
#define JXP_P2P_FAULTS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace jxp {
namespace p2p {

/// What one meeting blob suffers in transit under a FaultPlan.
struct BlobFault {
  enum class Kind { kNone, kDrop, kTruncate, kCorrupt };
  Kind kind = Kind::kNone;
  /// kTruncate: the bytes that still arrive, always a strict prefix.
  size_t kept_bytes = 0;
  /// kCorrupt: index of the flipped bit, in [0, 8 * blob size).
  uint64_t bit = 0;

  /// Applies the fault to `blob` in place: a drop empties it, a truncation
  /// cuts it to its prefix, a corruption flips the bit.
  void ApplyTo(std::vector<uint8_t>& blob) const;
};

/// The one byte-fault model of the meeting protocol (DESIGN.md §6e): each
/// meeting blob is independently dropped, truncated or corrupted. The chaos
/// proxy applies it to the daemons' sockets and the theorem proptests to
/// the bytes of EncodeMeetingBytes, so both exercise the receiver's
/// salvage decode. Every fault keeps the paper's safety theorem: nothing
/// usable arriving leaves the receiver's safe state alone, and a torn or
/// damaged blob decodes to its intact frame prefix, an honest message of a
/// peer with a smaller fragment.
struct FaultPlan {
  /// Per-blob probability that nothing of the blob arrives.
  double message_drop_probability = 0;
  /// Per-blob probability that the transfer aborts part-way.
  double truncation_probability = 0;
  /// Share of a truncated blob that still arrives (clamped to [0, 1]; the
  /// prefix is always strict).
  double truncation_keep_fraction = 0.5;
  /// Per-blob probability that one bit flips in transit; the frame
  /// checksum detects it and the receiver salvages the intact prefix.
  double corruption_probability = 0;
  /// Seed of the fault stream, independent of any meeting schedule's seed.
  uint64_t seed = 0xfa0175;

  /// Draws the fault of one `size`-byte blob: one NextDouble picks drop,
  /// truncate, corrupt or none (their probabilities stacked in that order),
  /// and a corruption then draws its bit with NextBounded(8 * size). A
  /// truncation keeps min(size - 1, floor(keep * size)) bytes. An empty blob
  /// draws nothing and stays clean.
  BlobFault Draw(size_t size, Random& rng) const;
};

}  // namespace p2p
}  // namespace jxp

#endif  // JXP_P2P_FAULTS_H_
