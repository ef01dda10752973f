// Property tests of the meeting wire format (DESIGN.md §6g): random peer
// states encode -> decode -> re-encode bit-identically, any single-byte
// corruption of a message is rejected with an error Status — never a crash,
// never silent acceptance — and payload edits behind a valid checksum end
// as Corruption or as columns that keep every invariant.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/meeting_wire.h"
#include "core/world_node.h"
#include "graph/subgraph.h"
#include "proptest.h"
#include "wire/meeting_codec.h"
#include "wire/wire_format.h"

namespace jxp {
namespace proptest {
namespace {

/// One randomized wire case: sizes only; the fragment, scores and world
/// node are all derived from `seed` as a pure function.
struct WireCase {
  uint64_t seed = 0;
  size_t num_pages = 32;
  size_t max_degree = 6;
  size_t num_world = 8;
  size_t num_dangling = 2;

  std::string Describe() const {
    std::ostringstream os;
    os << "seed=" << seed << " pages=" << num_pages << " max_degree=" << max_degree
       << " world=" << num_world << " dangling=" << num_dangling;
    return os.str();
  }

  std::vector<WireCase> Shrink() const {
    std::vector<WireCase> candidates;
    const auto with = [this](auto mutate) {
      WireCase c = *this;
      mutate(c);
      return c;
    };
    if (num_pages > 4) {
      candidates.push_back(
          with([](WireCase& c) { c.num_pages = std::max<size_t>(4, c.num_pages / 2); }));
    }
    if (max_degree > 0) {
      candidates.push_back(with([](WireCase& c) { c.max_degree /= 2; }));
    }
    if (num_world > 0) {
      candidates.push_back(with([](WireCase& c) { c.num_world /= 2; }));
    }
    if (num_dangling > 0) {
      candidates.push_back(with([](WireCase& c) { c.num_dangling = 0; }));
    }
    return candidates;
  }
};

WireCase GenerateWireCase(uint64_t seed) {
  WireCase c;
  c.seed = seed;
  Random rng(seed ^ 0x31c0dec5ULL);
  c.num_pages = 4 + rng.NextBounded(180);    // 4..183
  c.max_degree = rng.NextBounded(9);         // 0..8
  c.num_world = rng.NextBounded(30);         // 0..29
  c.num_dangling = rng.NextBounded(5);       // 0..4
  return c;
}

/// Draws `count` distinct sorted ids from [0, universe).
std::vector<graph::PageId> SortedDistinctIds(Random& rng, size_t count,
                                             size_t universe) {
  std::vector<graph::PageId> ids;
  for (size_t index : rng.SampleWithoutReplacement(universe, count)) {
    ids.push_back(static_cast<graph::PageId>(index));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// The case's full peer-state snapshot, derived deterministically.
struct WireState {
  graph::Subgraph fragment;
  std::vector<double> scores;
  core::WorldNode world;
};

WireState BuildState(const WireCase& c) {
  WireState state;
  Random rng(c.seed ^ 0x57a7e5eedULL);
  const size_t universe = 4 * c.num_pages + 64;

  std::vector<graph::PageId> pages = SortedDistinctIds(rng, c.num_pages, universe);
  std::vector<std::vector<graph::PageId>> successors;
  for (size_t i = 0; i < pages.size(); ++i) {
    const size_t degree = rng.NextBounded(c.max_degree + 1);
    successors.push_back(SortedDistinctIds(rng, degree, universe));
  }
  state.fragment =
      graph::Subgraph::FromKnowledge(std::move(pages), std::move(successors));

  state.scores.resize(c.num_pages);
  for (double& s : state.scores) s = rng.NextDouble();

  // World entries point at pages outside the id universe used above, so they
  // never collide with fragment ids; targets come from the fragment.
  std::vector<graph::PageId> world_pages =
      SortedDistinctIds(rng, c.num_world + c.num_dangling, universe);
  for (auto& p : world_pages) p += static_cast<graph::PageId>(universe);
  for (size_t i = 0; i < c.num_world; ++i) {
    const size_t num_targets = 1 + rng.NextBounded(std::min<size_t>(4, c.num_pages));
    std::vector<graph::PageId> targets;
    for (size_t index : rng.SampleWithoutReplacement(c.num_pages, num_targets)) {
      targets.push_back(state.fragment.GlobalId(
          static_cast<graph::Subgraph::LocalIndex>(index)));
    }
    std::sort(targets.begin(), targets.end());
    const uint32_t out_degree =
        static_cast<uint32_t>(num_targets + rng.NextBounded(20));
    state.world.Append(world_pages[i], out_degree, rng.NextDouble(), targets);
  }
  for (size_t i = 0; i < c.num_dangling; ++i) {
    state.world.AppendDangling(world_pages[c.num_world + i], rng.NextDouble());
  }
  return state;
}

std::vector<uint8_t> Encode(const WireState& state) {
  return core::EncodeMeetingMessage(state.fragment.Table(), state.scores, state.world);
}

TEST(WireRoundTripProperty, EncodeDecodeReencodeIsBitIdentical) {
  ForAll<WireCase>(
      0x71e0aa01, 40, GenerateWireCase, [](const WireCase& c) -> CheckResult {
        const WireState state = BuildState(c);
        const std::vector<uint8_t> bytes = Encode(state);
        if (bytes.empty()) return "encoded message is empty";

        const core::DecodedMeetingMessage decoded = core::DecodeMeetingMessage(bytes);
        if (!decoded.error.ok()) {
          return "clean decode failed: " + decoded.error.ToString();
        }
        if (decoded.bytes_consumed != bytes.size()) {
          return "clean decode left trailing bytes";
        }
        const wire::PageTableColumns& table = decoded.page_table;
        if (table.pages.empty()) return "decode produced no page table";
        if (table.pages.size() != state.fragment.NumLocalPages()) {
          return "page count changed across the wire";
        }
        if (decoded.world.NumEntries() != state.world.NumEntries() ||
            decoded.world.NumLinks() != state.world.NumLinks() ||
            decoded.world.NumDangling() != state.world.NumDangling()) {
          return "world knowledge changed across the wire";
        }
        for (size_t i = 0; i < table.scores.size(); ++i) {
          if (table.scores[i] > state.scores[state.fragment.LocalIndexOf(table.pages[i])]) {
            return "a decoded score exceeds the sender's exact double";
          }
        }

        // Quantization happened once, on the first encode; a second trip
        // through the codec must be the identity on the bytes.
        const std::vector<uint8_t> again =
            core::EncodeMeetingMessage(table.View(), table.scores, decoded.world);
        if (again != bytes) return "re-encoded bytes differ from the original";
        return std::nullopt;
      });
}

TEST(WireRoundTripProperty, AnySingleByteCorruptionIsRejected) {
  ForAll<WireCase>(
      0xc0bb7e02, 30, GenerateWireCase, [](const WireCase& c) -> CheckResult {
        const WireState state = BuildState(c);
        const std::vector<uint8_t> bytes = Encode(state);
        if (bytes.empty()) return "encoded message is empty";

        // A handful of deterministic corruption positions per case; across
        // cases this covers headers, payloads and frame boundaries.
        Random rng(c.seed ^ 0xbadbeefULL);
        for (int trial = 0; trial < 16; ++trial) {
          std::vector<uint8_t> corrupt = bytes;
          const size_t at = rng.NextBounded(corrupt.size());
          const uint8_t flip = static_cast<uint8_t>(1u << rng.NextBounded(8));
          corrupt[at] ^= flip;

          if (wire::DecodeMeeting(corrupt).error.ok()) {
            std::ostringstream os;
            os << "corruption at byte " << at << " (bit "
               << static_cast<int>(flip) << ") was not detected";
            return os.str();
          }
          // The lenient decoder must stop before the damage, never crash,
          // and never consume past the corrupted byte's frame.
          const core::DecodedMeetingMessage lenient =
              core::DecodeMeetingMessage(corrupt);
          if (lenient.error.ok()) return "lenient decode missed the corruption";
          if (lenient.bytes_consumed > corrupt.size()) {
            return "lenient decode consumed past the buffer";
          }
        }
        return std::nullopt;
      });
}

/// Whether `ids[begin, end)` ascends strictly.
bool StrictlyAscending(const std::vector<graph::PageId>& ids, size_t begin, size_t end) {
  for (size_t i = begin + 1; i < end; ++i) {
    if (ids[i - 1] >= ids[i]) return false;
  }
  return true;
}

bool ValidScores(const std::vector<double>& scores) {
  return std::all_of(scores.begin(), scores.end(),
                     [](double s) { return std::isfinite(s) && s >= 0.0; });
}

/// The PageTableColumns invariants a decoded table must keep, whatever the
/// bytes were.
CheckResult CheckPageTable(const wire::PageTableColumns& table) {
  const size_t n = table.pages.size();
  if (table.scores.size() != n) return "page table: score column size";
  if (!ValidScores(table.scores)) return "page table: invalid score";
  if (!StrictlyAscending(table.pages, 0, n)) return "page table: pages not ascending";
  const std::vector<uint64_t>& offsets = table.successor_offsets;
  if (offsets.size() != n + 1 || offsets[0] != 0 || offsets[n] != table.successors.size()) {
    return "page table: successor offsets do not frame the successors";
  }
  for (size_t i = 0; i < n; ++i) {
    if (offsets[i] > offsets[i + 1]) return "page table: offsets not monotone";
    if (!StrictlyAscending(table.successors, offsets[i], offsets[i + 1])) {
      return "page table: successors not ascending";
    }
  }
  return std::nullopt;
}

/// The WorldColumns invariants a decoded world must keep.
CheckResult CheckWorld(const wire::WorldColumns& world) {
  const size_t n = world.NumEntries();
  if (world.out_degrees.size() != n || world.scores.size() != n) {
    return "world: entry column sizes";
  }
  if (world.dangling_scores.size() != world.dangling_pages.size()) {
    return "world: dangling column sizes";
  }
  if (!ValidScores(world.scores) || !ValidScores(world.dangling_scores)) {
    return "world: invalid score";
  }
  if (!StrictlyAscending(world.pages, 0, n)) return "world: pages not ascending";
  if (!StrictlyAscending(world.dangling_pages, 0, world.dangling_pages.size())) {
    return "world: dangling pages not ascending";
  }
  const std::vector<uint32_t>& offsets = world.target_offsets;
  if (offsets.size() != n + 1 || offsets[0] != 0 || offsets[n] != world.targets.size()) {
    return "world: target offsets do not frame the targets";
  }
  for (size_t e = 0; e < n; ++e) {
    if (offsets[e] >= offsets[e + 1]) return "world: empty or inverted target list";
    if (offsets[e + 1] - offsets[e] > world.out_degrees[e]) {
      return "world: more targets than the out-degree";
    }
    if (!StrictlyAscending(world.targets, offsets[e], offsets[e + 1])) {
      return "world: targets not ascending";
    }
  }
  return std::nullopt;
}

TEST(WireRoundTripProperty, ResealedPayloadEditsAreCorruptionOrValidColumns) {
  // Each trial edits the payload of one frame (overwrites or flips bytes,
  // cuts its tail or appends a byte) and re-seals the checksum, so the edit
  // reaches the column parser instead of dying on the frame check. The
  // decode must end as Corruption or as columns that keep every invariant;
  // either way, the frames it kept must keep them too.
  constexpr size_t kCases = 30;
  size_t accepted = 0;
  size_t rejected = 0;
  ForAll<WireCase>(
      0x3d17ed03, kCases, GenerateWireCase, [&](const WireCase& c) -> CheckResult {
        const std::vector<uint8_t> bytes = Encode(BuildState(c));
        std::vector<std::pair<wire::MessageType, std::span<const uint8_t>>> frames;
        for (size_t offset = 0; offset < bytes.size();) {
          wire::FrameView frame;
          if (!wire::ParseFrame(bytes, offset, frame).ok()) return "clean frame rejected";
          frames.emplace_back(frame.type, frame.payload);
        }
        Random rng(c.seed ^ 0xed17ULL);
        for (int trial = 0; trial < 24; ++trial) {
          const size_t victim = rng.NextBounded(frames.size());
          std::vector<uint8_t> payload(frames[victim].second.begin(),
                                       frames[victim].second.end());
          switch (rng.NextBounded(4)) {
            case 0:  // Overwrite 1..3 bytes.
              for (uint64_t k = 1 + rng.NextBounded(3); k > 0; --k) {
                payload[rng.NextBounded(payload.size())] =
                    static_cast<uint8_t>(rng.NextBounded(256));
              }
              break;
            case 1:  // Flip one bit.
              payload[rng.NextBounded(payload.size())] ^=
                  static_cast<uint8_t>(1u << rng.NextBounded(8));
              break;
            case 2:  // Cut the tail.
              payload.resize(rng.NextBounded(payload.size()));
              break;
            default:  // Append a byte.
              payload.push_back(static_cast<uint8_t>(rng.NextBounded(256)));
              break;
          }
          std::vector<uint8_t> message;
          for (size_t f = 0; f < frames.size(); ++f) {
            wire::AppendFrame(frames[f].first, f == victim ? payload : frames[f].second, message);
          }

          const wire::DecodedMeeting decoded = wire::DecodeMeeting(message);
          if (decoded.error.ok()) {
            ++accepted;
          } else if (decoded.error.code() == StatusCode::kCorruption) {
            ++rejected;
          } else {
            return "edit ended as " + decoded.error.ToString() + ", not Corruption";
          }
          if (CheckResult bad = CheckPageTable(decoded.page_table)) return *bad;
          if (CheckResult bad = CheckWorld(decoded.world)) return *bad;
        }
        return std::nullopt;
      });
  // At the default case count, both outcomes occur: the property is not
  // vacuous on either side.
  if (NumCases(kCases) >= kCases) {
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
  }
}

}  // namespace
}  // namespace proptest
}  // namespace jxp
