#include "wire/meeting_codec.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/check.h"
#include "obs/metrics.h"

namespace jxp {
namespace wire {

namespace {

/// Codec observables. All counters are pure functions of the encoded /
/// decoded messages (byte and frame counts), so they stay bit-identical
/// across runs and thread counts (DESIGN.md §6d).
struct WireMetrics {
  obs::Counter score_bytes =
      obs::MetricsRegistry::Global().GetCounter("jxp.wire.score_bytes");
  obs::Counter world_bytes =
      obs::MetricsRegistry::Global().GetCounter("jxp.wire.world_bytes");
  obs::Counter frames_encoded =
      obs::MetricsRegistry::Global().GetCounter("jxp.wire.frames_encoded");
  obs::Counter frames_decoded =
      obs::MetricsRegistry::Global().GetCounter("jxp.wire.frames_decoded");
  obs::Counter frames_rejected =
      obs::MetricsRegistry::Global().GetCounter("jxp.wire.frames_rejected");
  obs::Counter decoded_bytes =
      obs::MetricsRegistry::Global().GetCounter("jxp.wire.decoded_bytes");
};

WireMetrics& GetWireMetrics() {
  static WireMetrics metrics;
  return metrics;
}

/// The most bytes one record field takes on the wire; a frame's storage is
/// sized from these once (ByteWriter's bound).
constexpr size_t kMaxVarint32Bytes = 5;
constexpr size_t kFloatBytes = 4;

Status BadPayload(const char* what) {
  return Status::Corruption(std::string("bad frame payload: ") + what);
}

// The per-id helpers below are declared inline: GCC at -O2 otherwise keeps
// some call sites out of line, and the codec loops pay that call per id.

/// Reads a delta-encoded id: absolute when `first`, else prev + delta with
/// delta >= 1 (ids are strictly ascending) and overflow rejected.
inline bool ReadAscendingId(ByteReader& reader, bool first, graph::PageId prev,
                            graph::PageId* id) {
  uint32_t raw = 0;
  if (!reader.GetVarint32(&raw)) return false;
  if (first) {
    *id = raw;
    return true;
  }
  if (raw == 0) return false;
  if (raw > std::numeric_limits<graph::PageId>::max() - prev) return false;
  *id = prev + raw;
  return true;
}

/// Reads a wire score: a finite, non-negative float (scores are probability
/// masses; anything else is corruption).
inline bool ReadScore(ByteReader& reader, float* score) {
  if (!reader.GetFloat(score)) return false;
  return std::isfinite(*score) && *score >= 0.0f;
}

inline void WriteAscendingIds(ByteWriter& writer, std::span<const graph::PageId> ids) {
  graph::PageId prev = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i == 0) {
      writer.PutVarint32(ids[i]);
    } else {
      JXP_CHECK_GT(ids[i], prev) << "wire ids must be strictly ascending";
      writer.PutVarint32(ids[i] - prev);
    }
    prev = ids[i];
  }
}

Status ParseScoreChunk(ByteReader& reader, size_t payload_size, PageTableColumns& table) {
  uint32_t first_index = 0;
  uint32_t count = 0;
  if (!reader.GetVarint32(&first_index) || !reader.GetVarint32(&count)) {
    return BadPayload("truncated chunk header");
  }
  if (count == 0) return BadPayload("empty score chunk");
  // Each record is at least 6 bytes (id + score + degree), so a count beyond
  // the payload size cannot be genuine; reject before reserving memory.
  if (count > payload_size) return BadPayload("chunk count exceeds payload");
  if (first_index != table.pages.size()) {
    return BadPayload("score chunk out of sequence");
  }
  const bool first_record_of_message = table.pages.empty();
  if (first_record_of_message) {
    // Reserve for the first chunk only: an exact reserve per chunk would
    // reallocate and copy every column once per further chunk, where
    // push_back's geometric growth copies each record O(1) times.
    table.pages.reserve(count);
    table.scores.reserve(count);
    table.successor_offsets.reserve(count + 1);
  }
  graph::PageId prev_page = first_record_of_message ? 0 : table.pages.back();
  for (uint32_t i = 0; i < count; ++i) {
    graph::PageId page = 0;
    if (!ReadAscendingId(reader, first_record_of_message && i == 0, prev_page, &page)) {
      return BadPayload("page ids not strictly ascending");
    }
    prev_page = page;
    float score = 0;
    if (!ReadScore(reader, &score)) return BadPayload("invalid page score");
    uint32_t degree = 0;
    if (!reader.GetVarint32(&degree)) return BadPayload("truncated degree");
    if (degree > payload_size) return BadPayload("degree exceeds payload");
    graph::PageId prev_succ = 0;
    for (uint32_t j = 0; j < degree; ++j) {
      graph::PageId succ = 0;
      if (!ReadAscendingId(reader, j == 0, prev_succ, &succ)) {
        return BadPayload("successors not strictly ascending");
      }
      prev_succ = succ;
      table.successors.push_back(succ);
    }
    table.pages.push_back(page);
    table.scores.push_back(score);
    table.successor_offsets.push_back(table.successors.size());
  }
  if (!reader.AtEnd()) return BadPayload("trailing bytes in score chunk");
  return Status::OK();
}

Status DecodeScoreChunk(std::span<const uint8_t> payload, DecodedMeeting& out) {
  PageTableColumns& table = out.page_table;
  const size_t pages = table.pages.size();
  const size_t successors = table.successors.size();
  ByteReader reader(payload);
  Status status = ParseScoreChunk(reader, payload.size(), table);
  if (!status.ok()) {
    // A rejected frame leaves `out` with whole frames only.
    table.pages.resize(pages);
    table.scores.resize(pages);
    table.successor_offsets.resize(pages + 1);
    table.successors.resize(successors);
  }
  return status;
}

Status DecodeWorldKnowledge(std::span<const uint8_t> payload, DecodedMeeting& out) {
  ByteReader reader(payload);
  uint32_t num_entries = 0;
  if (!reader.GetVarint32(&num_entries)) return BadPayload("truncated world header");
  if (num_entries > payload.size()) return BadPayload("world count exceeds payload");
  WorldColumns world;
  world.pages.reserve(num_entries);
  world.out_degrees.reserve(num_entries);
  world.scores.reserve(num_entries);
  world.target_offsets.reserve(num_entries + 1);
  // Every id takes at least one byte, so the payload bounds the targets.
  world.targets.reserve(payload.size());
  graph::PageId prev_page = 0;
  for (uint32_t i = 0; i < num_entries; ++i) {
    graph::PageId page = 0;
    if (!ReadAscendingId(reader, i == 0, prev_page, &page)) {
      return BadPayload("world pages not strictly ascending");
    }
    prev_page = page;
    float score = 0;
    if (!ReadScore(reader, &score)) return BadPayload("invalid world score");
    uint32_t out_degree = 0;
    if (!reader.GetVarint32(&out_degree) || out_degree == 0) {
      return BadPayload("invalid world out-degree");
    }
    uint32_t num_targets = 0;
    if (!reader.GetVarint32(&num_targets) || num_targets == 0 ||
        num_targets > out_degree) {
      return BadPayload("world target count out of range");
    }
    if (num_targets > payload.size()) return BadPayload("target count exceeds payload");
    graph::PageId prev_target = 0;
    for (uint32_t j = 0; j < num_targets; ++j) {
      graph::PageId target = 0;
      if (!ReadAscendingId(reader, j == 0, prev_target, &target)) {
        return BadPayload("world targets not strictly ascending");
      }
      prev_target = target;
      world.targets.push_back(target);
    }
    world.pages.push_back(page);
    world.out_degrees.push_back(out_degree);
    world.scores.push_back(score);
    world.target_offsets.push_back(static_cast<uint32_t>(world.targets.size()));
  }
  uint32_t num_dangling = 0;
  if (!reader.GetVarint32(&num_dangling)) return BadPayload("truncated dangling header");
  if (num_dangling > payload.size()) return BadPayload("dangling count exceeds payload");
  world.dangling_pages.reserve(num_dangling);
  world.dangling_scores.reserve(num_dangling);
  prev_page = 0;
  for (uint32_t i = 0; i < num_dangling; ++i) {
    graph::PageId page = 0;
    if (!ReadAscendingId(reader, i == 0, prev_page, &page)) {
      return BadPayload("dangling pages not strictly ascending");
    }
    prev_page = page;
    float score = 0;
    if (!ReadScore(reader, &score)) return BadPayload("invalid dangling score");
    world.dangling_pages.push_back(page);
    world.dangling_scores.push_back(score);
  }
  if (!reader.AtEnd()) return BadPayload("trailing bytes in world frame");
  if (world.empty()) {
    return BadPayload("empty world frame");  // Empty world knowledge is not framed.
  }
  out.world = std::move(world);
  return Status::OK();
}

}  // namespace

void EncodeScoreList(graph::PageTableView table, std::span<const double> scores,
                     std::vector<uint8_t>& out) {
  JXP_CHECK_EQ(scores.size(), table.NumPages());
  const size_t start = out.size();
  const size_t n = table.NumPages();
  size_t frames = 0;
  for (size_t begin = 0; begin < n; begin += kPagesPerChunk) {
    const size_t end = std::min(begin + kPagesPerChunk, n);
    const size_t num_successors =
        table.successor_offsets[end] - table.successor_offsets[begin];
    const size_t frame_start = out.size();
    // Chunk header, then per page its id, score and degree, then successors.
    ByteWriter writer(out, kFrameHeaderBytes + 2 * kMaxVarint32Bytes +
                               (end - begin) * (2 * kMaxVarint32Bytes + kFloatBytes) +
                               num_successors * kMaxVarint32Bytes);
    writer.Skip(kFrameHeaderBytes);
    writer.PutVarint32(static_cast<uint32_t>(begin));
    writer.PutVarint32(static_cast<uint32_t>(end - begin));
    graph::PageId prev = begin == 0 ? 0 : table.pages[begin - 1];
    for (size_t i = begin; i < end; ++i) {
      const graph::PageId page = table.pages[i];
      if (i == 0) {
        writer.PutVarint32(page);
      } else {
        // A page table is in ascending page order, by construction.
        JXP_CHECK_GT(page, prev);
        writer.PutVarint32(page - prev);
      }
      prev = page;
      writer.PutFloat(LowerBoundFloat(scores[i]));
      const auto successors = table.Successors(i);
      writer.PutVarint32(static_cast<uint32_t>(successors.size()));
      WriteAscendingIds(writer, successors);
    }
    writer.Finish();
    SealFrame(MessageType::kScoreChunk, frame_start, out);
    ++frames;
  }
  if (obs::Enabled()) {
    WireMetrics& metrics = GetWireMetrics();
    metrics.score_bytes.Increment(out.size() - start);
    metrics.frames_encoded.Increment(frames);
  }
}

void EncodeWorldKnowledge(const WorldColumns& world, std::vector<uint8_t>& out) {
  if (world.empty()) return;
  const size_t frame_start = out.size();
  const size_t num_entries = world.NumEntries();
  const size_t num_dangling = world.dangling_pages.size();
  // Two counts; per entry its page, score, out-degree and target count, then
  // the targets; per dangling record its page and score.
  ByteWriter writer(out, kFrameHeaderBytes + 2 * kMaxVarint32Bytes +
                             num_entries * (3 * kMaxVarint32Bytes + kFloatBytes) +
                             world.targets.size() * kMaxVarint32Bytes +
                             num_dangling * (kMaxVarint32Bytes + kFloatBytes));
  writer.Skip(kFrameHeaderBytes);
  writer.PutVarint32(static_cast<uint32_t>(num_entries));
  for (size_t e = 0; e < num_entries; ++e) {
    const uint32_t out_degree = world.out_degrees[e];
    const std::span<const graph::PageId> targets = world.Targets(e);
    JXP_CHECK_GE(out_degree, 1u);
    JXP_CHECK_GE(targets.size(), 1u);
    JXP_CHECK_LE(targets.size(), out_degree);
    if (e == 0) {
      writer.PutVarint32(world.pages[e]);
    } else {
      JXP_CHECK_GT(world.pages[e], world.pages[e - 1])
          << "world entries must be sorted by page";
      writer.PutVarint32(world.pages[e] - world.pages[e - 1]);
    }
    writer.PutFloat(LowerBoundFloat(world.scores[e]));
    writer.PutVarint32(out_degree);
    writer.PutVarint32(static_cast<uint32_t>(targets.size()));
    WriteAscendingIds(writer, targets);
  }
  writer.PutVarint32(static_cast<uint32_t>(num_dangling));
  for (size_t d = 0; d < num_dangling; ++d) {
    if (d == 0) {
      writer.PutVarint32(world.dangling_pages[d]);
    } else {
      JXP_CHECK_GT(world.dangling_pages[d], world.dangling_pages[d - 1])
          << "dangling records must be sorted";
      writer.PutVarint32(world.dangling_pages[d] - world.dangling_pages[d - 1]);
    }
    writer.PutFloat(LowerBoundFloat(world.dangling_scores[d]));
  }
  writer.Finish();
  SealFrame(MessageType::kWorldKnowledge, frame_start, out);
  if (obs::Enabled()) {
    WireMetrics& metrics = GetWireMetrics();
    metrics.world_bytes.Increment(out.size() - frame_start);
    metrics.frames_encoded.Increment();
  }
}

DecodedMeeting DecodeMeeting(std::span<const uint8_t> data) {
  DecodedMeeting result;
  // Frames arrive in a fixed section order (score chunks, then world); a
  // score chunk after the world frame is corrupt.
  bool seen_world = false;
  size_t offset = 0;
  while (offset < data.size()) {
    FrameView frame;
    Status status = ParseFrame(data, offset, frame);
    if (status.ok()) {
      switch (frame.type) {
        case MessageType::kScoreChunk:
          status = seen_world ? BadPayload("score chunk after world frame")
                              : DecodeScoreChunk(frame.payload, result);
          break;
        case MessageType::kWorldKnowledge:
          status = seen_world ? BadPayload("duplicate world frame")
                              : DecodeWorldKnowledge(frame.payload, result);
          seen_world = status.ok();
          break;
      }
    }
    if (!status.ok()) {
      // Frame boundaries past a bad frame cannot be trusted (the length
      // field itself may be the corrupted byte), so decoding stops here.
      result.error = status;
      break;
    }
    ++result.frames_decoded;
    result.bytes_consumed = offset;
  }
  if (obs::Enabled()) {
    WireMetrics& metrics = GetWireMetrics();
    metrics.frames_decoded.Increment(result.frames_decoded);
    metrics.decoded_bytes.Increment(result.bytes_consumed);
    if (!result.error.ok()) metrics.frames_rejected.Increment();
  }
  return result;
}

}  // namespace wire
}  // namespace jxp
