#include "p2p/faults.h"

#include <algorithm>
#include <cmath>

namespace jxp {
namespace p2p {

void BlobFault::ApplyTo(std::vector<uint8_t>& blob) const {
  switch (kind) {
    case Kind::kNone:
      break;
    case Kind::kDrop:
      blob.clear();
      break;
    case Kind::kTruncate:
      blob.resize(kept_bytes);
      break;
    case Kind::kCorrupt:
      blob[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      break;
  }
}

BlobFault FaultPlan::Draw(size_t size, Random& rng) const {
  BlobFault fault;
  if (size == 0) return fault;
  const double u = rng.NextDouble();
  double edge = message_drop_probability;
  if (u < edge) {
    fault.kind = BlobFault::Kind::kDrop;
    return fault;
  }
  edge += truncation_probability;
  if (u < edge) {
    fault.kind = BlobFault::Kind::kTruncate;
    const double keep = std::clamp(truncation_keep_fraction, 0.0, 1.0);
    fault.kept_bytes =
        std::min(size - 1, static_cast<size_t>(std::floor(keep * static_cast<double>(size))));
    return fault;
  }
  edge += corruption_probability;
  if (u < edge) {
    fault.kind = BlobFault::Kind::kCorrupt;
    fault.bit = rng.NextBounded(static_cast<uint64_t>(size) * 8);
  }
  return fault;
}

}  // namespace p2p
}  // namespace jxp
