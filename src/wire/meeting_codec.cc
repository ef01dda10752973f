#include "wire/meeting_codec.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>

#include "common/bitpack.h"
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

constexpr size_t kMaxVarint32Bytes = 5;
constexpr size_t kFloatBytes = 4;
/// One past the largest id: an id column decodes into 32-bit ids only if
/// the id after its last one is at most this.
constexpr uint64_t kIdLimit = uint64_t{1} << 32;

/// The most bytes a column of `n` values takes (a frame's storage is sized
/// from these once, ByteWriter's bound).
constexpr size_t MaxColumnBytes(size_t n) {
  return (n + kAreaValues - 1) / kAreaValues + 4 * n;
}

/// The fewest bytes a column of `n` values can take: a width byte per area
/// and at least one bit per value. The decoder checks its counts against
/// these before it allocates anything.
constexpr uint64_t MinColumnBytes(uint64_t n) {
  return (n + kAreaValues - 1) / kAreaValues + (n + 7) / 8;
}

Status BadPayload(const char* what) {
  return Status::Corruption(std::string("bad frame payload: ") + what);
}

/// The encoder's per-thread staging for the columns of one frame, reused
/// across frames: a column of values, and the run marks, heads and gaps of
/// an id stream. Its sizes follow the sender's own state. The decoder stages
/// in buffers of its own call instead, so that a large hostile frame leaves
/// nothing allocated behind it.
struct Scratch {
  std::vector<uint32_t> column;
  std::vector<uint8_t> marks;
  std::vector<uint32_t> heads;
  std::vector<uint32_t> gaps;

  static Scratch& Get() {
    thread_local Scratch scratch;
    return scratch;
  }
  /// `buffer`'s storage, grown to at least `n` values.
  template <typename T>
  static T* Room(std::vector<T>& buffer, size_t n) {
    if (buffer.size() < n) buffer.resize(n);
    return buffer.data();
  }
};

/// Marks where runs of `total` ids start in `marks`, total + 1 zero bytes:
/// marks[k] becomes 1 iff some offset offsets[i] - offsets[0] (i < count)
/// equals k. An empty run shares its offset with the next run, or with
/// `total` (the mark past the stream).
template <typename Offset>
const uint8_t* MarkRuns(const Offset* offsets, size_t count, uint8_t* marks) {
  for (size_t i = 0; i < count; ++i) marks[offsets[i] - offsets[0]] = 1;
  return marks;
}

/// MarkRuns into the encoder's scratch.
template <typename Offset>
const uint8_t* ScratchMarkRuns(const Offset* offsets, size_t count, size_t total) {
  uint8_t* marks = Scratch::Room(Scratch::Get().marks, total + 1);
  std::memset(marks, 0, total + 1);
  return MarkRuns(offsets, count, marks);
}

/// Writes values[0..n) as a column: areas of kAreaValues values, the last
/// one short.
void PutColumn(ByteWriter& writer, const uint32_t* values, size_t n) {
  for (size_t begin = 0; begin < n; begin += kAreaValues) {
    writer.PutArea(values + begin, std::min(kAreaValues, n - begin));
  }
}

void PutScores(ByteWriter& writer, std::span<const double> scores) {
  for (const double score : scores) writer.PutFloat(LowerBoundFloat(score));
}

/// Writes ids[0..n) to gaps[0..n) as gaps − 1, the first from `next` (so
/// absolute when `next` is 0). False unless the ids ascend strictly from
/// `next`.
bool IdGaps(const graph::PageId* ids, size_t n, uint64_t next, uint32_t* gaps) {
  if (n == 0) return true;
  gaps[0] = static_cast<uint32_t>(ids[0] - next);
  size_t drops = ids[0] < next;
  for (size_t i = 1; i < n; ++i) {
    gaps[i] = ids[i] - ids[i - 1] - 1;
    drops += ids[i] <= ids[i - 1];
  }
  return drops == 0;
}

/// Splits `total` ids, cut into runs where `marks` is 1 (MarkRuns), into
/// each run's head (its first id) and the other ids as gaps − 1 from their
/// predecessor, both in order. `heads` and `gaps` hold one value more than
/// they receive: the loop stores every id to both and moves one cursor, so
/// it has no branch and no chain through memory. False unless every run
/// ascends strictly.
bool SplitRuns(const graph::PageId* ids, size_t total, const uint8_t* marks, uint32_t* heads,
               uint32_t* gaps) {
  size_t run = 0;
  size_t gap = 0;
  size_t drops = 0;
  uint32_t prev = 0;
  for (size_t k = 0; k < total; ++k) {
    const uint32_t id = ids[k];
    const uint32_t head = marks[k];
    heads[run] = id;
    gaps[gap] = id - prev - 1;
    drops += (head ^ 1) & (id <= prev);
    run += head;
    gap += head ^ 1;
    prev = id;
  }
  return drops == 0;
}

/// SplitRuns' inverse: writes ids[0..total) from the heads and gaps of the
/// runs marked in `marks` (where, as there, `heads` and `gaps` hold one
/// readable value more than they carry). `gaps` may lie inside `ids` at or
/// after ids + runs: each step reads its gap before it writes its id.
/// Returns the OR of the ids before narrowing: one past 2^32 − 1 sets a bit
/// above 31.
uint64_t JoinRuns(const uint32_t* heads, const uint32_t* gaps, const uint8_t* marks, size_t total,
                  graph::PageId* ids) {
  size_t run = 0;
  size_t gap = 0;
  uint64_t id = 0;
  uint64_t any_bits = 0;
  for (size_t k = 0; k < total; ++k) {
    const uint32_t head = marks[k];
    // Selects by mask, not by branch (heads come at random), and keeps the
    // chain from one id to the next at an AND and an add.
    const uint64_t keep = uint64_t{head} - 1;
    const uint64_t step = uint64_t{gaps[gap]} + 1;
    id = step + ((uint64_t{heads[run]} - step) & ~keep) + (id & keep);
    any_bits |= id;
    ids[k] = static_cast<graph::PageId>(id);
    run += head;
    gap += head ^ 1;
  }
  return any_bits;
}

/// Reads a column of `n` values into `out`, area by area.
Status GetColumn(ByteReader& reader, size_t n, uint32_t* out) {
  for (size_t begin = 0; begin < n; begin += kAreaValues) {
    const Status status = reader.GetArea(std::min(kAreaValues, n - begin), out + begin);
    if (!status.ok()) return BadPayload(status.message().c_str());
  }
  return Status::OK();
}

/// Turns ids[0..n), read as gaps − 1 from `next`, into the ascending ids in
/// place and returns the id after the last; the ids fit in 32 bits iff that
/// is at most kIdLimit.
uint64_t IdsFromGaps(uint32_t* ids, size_t n, uint64_t next) {
  for (size_t i = 0; i < n; ++i) {
    next += ids[i];
    ids[i] = static_cast<uint32_t>(next);
    ++next;
  }
  return next;
}

/// Reads `n` wire scores into `out`. False unless every one is finite and
/// non-negative (scores are probability masses; anything else is
/// corruption).
bool GetScores(ByteReader& reader, size_t n, double* out) {
  std::span<const uint8_t> bytes;
  if (!reader.GetBytes(n * kFloatBytes, &bytes)) return false;
  bool valid = true;
  for (size_t i = 0; i < n; ++i) {
    const uint8_t* p = bytes.data() + i * kFloatBytes;
    const uint32_t bits = static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
                          static_cast<uint32_t>(p[2]) << 16 |
                          static_cast<uint32_t>(p[3]) << 24;
    float score = 0;
    std::memcpy(&score, &bits, sizeof(score));
    valid = valid & (score >= 0.0f) & (score <= std::numeric_limits<float>::max());
    out[i] = score;
  }
  return valid;
}

/// Appends `total` ids in `runs` runs, starting at offsets[0..count) (as
/// MarkRuns takes them), to `ids`: reads the heads column, then the gaps
/// column into the tail of the ids' own storage, where JoinRuns reads each
/// gap before the ids it writes reach it. Corruption when an id passes
/// 2^32 − 1.
template <typename Offset>
Status GetRuns(ByteReader& reader, const Offset* offsets, size_t count, size_t runs, size_t total,
               std::vector<graph::PageId>& ids, const char* past_limit) {
  std::vector<uint32_t> heads(runs + 1);
  JXP_RETURN_IF_ERROR(GetColumn(reader, runs, heads.data()));
  const size_t begin = ids.size();
  ids.resize(begin + total + 1);  // JoinRuns reads one gap past the last.
  graph::PageId* out = ids.data() + begin;
  JXP_RETURN_IF_ERROR(GetColumn(reader, total - runs, out + runs));
  std::vector<uint8_t> marks(total + 1);
  const uint64_t any_bits =
      JoinRuns(heads.data(), out + runs, MarkRuns(offsets, count, marks.data()), total, out);
  ids.resize(begin + total);
  if (any_bits >= kIdLimit) return BadPayload(past_limit);
  return Status::OK();
}

Status ParseScoreChunk(ByteReader& reader, PageTableColumns& table) {
  uint32_t first_index = 0;
  uint32_t count = 0;
  uint32_t num_successors = 0;
  if (!reader.GetVarint32(&first_index) || !reader.GetVarint32(&count) ||
      !reader.GetVarint32(&num_successors)) {
    return BadPayload("truncated chunk header");
  }
  if (count == 0) return BadPayload("empty score chunk");
  // The successor heads and gaps take at least what one column of all the
  // successors would.
  if (2 * MinColumnBytes(count) + kFloatBytes * uint64_t{count} +
          MinColumnBytes(num_successors) >
      reader.remaining()) {
    return BadPayload("chunk counts exceed payload");
  }
  if (first_index != table.pages.size()) {
    return BadPayload("score chunk out of sequence");
  }
  const size_t first = table.pages.size();
  table.pages.resize(first + count);
  JXP_RETURN_IF_ERROR(GetColumn(reader, count, table.pages.data() + first));
  const uint64_t next_page = first == 0 ? 0 : uint64_t{table.pages[first - 1]} + 1;
  if (IdsFromGaps(table.pages.data() + first, count, next_page) > kIdLimit) {
    return BadPayload("page id past 2^32 - 1");
  }
  table.scores.resize(first + count);
  if (!GetScores(reader, count, table.scores.data() + first)) {
    return BadPayload("invalid page score");
  }
  // Degrees, summed into the successor offsets; each page with successors
  // starts a run.
  table.successor_offsets.resize(first + 1 + count);
  uint64_t* offsets = table.successor_offsets.data() + first;
  std::vector<uint32_t> degrees(count);
  JXP_RETURN_IF_ERROR(GetColumn(reader, count, degrees.data()));
  uint64_t offset = offsets[0];
  size_t runs = 0;
  for (size_t i = 0; i < count; ++i) {
    runs += degrees[i] > 0;
    offset += degrees[i];
    offsets[i + 1] = offset;
  }
  if (offset - offsets[0] != num_successors) {
    return BadPayload("degrees miss the successor count");
  }
  JXP_RETURN_IF_ERROR(GetRuns(reader, offsets, count, runs, num_successors, table.successors,
                              "successor id past 2^32 - 1"));
  if (!reader.AtEnd()) return BadPayload("trailing bytes in score chunk");
  return Status::OK();
}

Status DecodeScoreChunk(std::span<const uint8_t> payload, DecodedMeeting& out) {
  PageTableColumns& table = out.page_table;
  const size_t pages = table.pages.size();
  const size_t successors = table.successors.size();
  ByteReader reader(payload);
  Status status = ParseScoreChunk(reader, table);
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
  uint32_t num_targets = 0;
  uint32_t num_dangling = 0;
  if (!reader.GetVarint32(&num_entries) || !reader.GetVarint32(&num_targets) ||
      !reader.GetVarint32(&num_dangling)) {
    return BadPayload("truncated world header");
  }
  if (num_targets < num_entries) return BadPayload("fewer targets than entries");
  if (4 * MinColumnBytes(num_entries) + MinColumnBytes(num_targets - num_entries) +
          MinColumnBytes(num_dangling) +
          kFloatBytes * (uint64_t{num_entries} + num_dangling) >
      reader.remaining()) {
    return BadPayload("world counts exceed payload");
  }
  if (num_entries == 0 && num_dangling == 0) {
    return BadPayload("empty world frame");  // Empty world knowledge is not framed.
  }
  WorldColumns world;
  world.pages.resize(num_entries);
  JXP_RETURN_IF_ERROR(GetColumn(reader, num_entries, world.pages.data()));
  if (IdsFromGaps(world.pages.data(), num_entries, 0) > kIdLimit) {
    return BadPayload("world page id past 2^32 - 1");
  }
  world.scores.resize(num_entries);
  if (!GetScores(reader, num_entries, world.scores.data())) {
    return BadPayload("invalid world score");
  }
  // Target counts − 1, summed into the target offsets. The sums only grow,
  // so when the last equals num_targets every one fits in 32 bits.
  world.target_offsets.resize(size_t{num_entries} + 1);
  uint32_t* offsets = world.target_offsets.data();
  JXP_RETURN_IF_ERROR(GetColumn(reader, num_entries, offsets + 1));
  uint64_t total = 0;
  for (size_t e = 0; e < num_entries; ++e) {
    total += uint64_t{offsets[e + 1]} + 1;
    offsets[e + 1] = static_cast<uint32_t>(total);
  }
  if (total != num_targets) return BadPayload("target counts miss the target count");
  // Out-degree slack: out-degree − target count.
  world.out_degrees.resize(num_entries);
  JXP_RETURN_IF_ERROR(GetColumn(reader, num_entries, world.out_degrees.data()));
  uint64_t out_degree_bits = 0;
  for (size_t e = 0; e < num_entries; ++e) {
    const uint64_t out_degree = uint64_t{world.out_degrees[e]} + (offsets[e + 1] - offsets[e]);
    out_degree_bits |= out_degree;
    world.out_degrees[e] = static_cast<uint32_t>(out_degree);
  }
  if (out_degree_bits >= kIdLimit) return BadPayload("world out-degree past 2^32 - 1");
  // Every entry starts a target run.
  JXP_RETURN_IF_ERROR(GetRuns(reader, offsets, num_entries, num_entries, num_targets,
                              world.targets, "world target id past 2^32 - 1"));
  world.dangling_pages.resize(num_dangling);
  JXP_RETURN_IF_ERROR(GetColumn(reader, num_dangling, world.dangling_pages.data()));
  if (IdsFromGaps(world.dangling_pages.data(), num_dangling, 0) > kIdLimit) {
    return BadPayload("dangling page id past 2^32 - 1");
  }
  world.dangling_scores.resize(num_dangling);
  if (!GetScores(reader, num_dangling, world.dangling_scores.data())) {
    return BadPayload("invalid dangling score");
  }
  if (!reader.AtEnd()) return BadPayload("trailing bytes in world frame");
  out.world = std::move(world);
  return Status::OK();
}

}  // namespace

void EncodeScoreList(graph::PageTableView table, std::span<const double> scores,
                     std::vector<uint8_t>& out) {
  JXP_CHECK_EQ(scores.size(), table.NumPages());
  const size_t start = out.size();
  const size_t n = table.NumPages();
  Scratch& scratch = Scratch::Get();
  size_t frames = 0;
  for (size_t begin = 0; begin < n; begin += kPagesPerChunk) {
    const size_t count = std::min(kPagesPerChunk, n - begin);
    const uint64_t* offsets = table.successor_offsets.data() + begin;
    const size_t num_successors = offsets[count] - offsets[0];
    uint32_t* column = Scratch::Room(scratch.column, count);
    uint32_t* heads = Scratch::Room(scratch.heads, count + 1);
    uint32_t* gaps = Scratch::Room(scratch.gaps, num_successors + 1);
    const size_t frame_start = out.size();
    // Three counts; the page, score and degree columns; the successor
    // heads and gaps.
    ByteWriter writer(out, kFrameHeaderBytes + 3 * kMaxVarint32Bytes +
                               3 * MaxColumnBytes(count) + kFloatBytes * count +
                               MaxColumnBytes(num_successors));
    writer.Skip(kFrameHeaderBytes);
    writer.PutVarint32(static_cast<uint32_t>(begin));
    writer.PutVarint32(static_cast<uint32_t>(count));
    writer.PutVarint32(static_cast<uint32_t>(num_successors));
    // A page table is in ascending page order, by construction.
    JXP_CHECK(IdGaps(table.pages.data() + begin, count,
                     begin == 0 ? 0 : uint64_t{table.pages[begin - 1]} + 1, column));
    PutColumn(writer, column, count);
    PutScores(writer, scores.subspan(begin, count));
    size_t runs = 0;
    for (size_t i = 0; i < count; ++i) {
      column[i] = static_cast<uint32_t>(offsets[i + 1] - offsets[i]);
      runs += column[i] > 0;
    }
    PutColumn(writer, column, count);
    JXP_CHECK(SplitRuns(table.successors.data() + offsets[0], num_successors,
                        ScratchMarkRuns(offsets, count, num_successors), heads, gaps))
        << "wire ids must be strictly ascending";
    PutColumn(writer, heads, runs);
    PutColumn(writer, gaps, num_successors - runs);
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
  const size_t num_targets = world.targets.size();
  const size_t num_dangling = world.dangling_pages.size();
  Scratch& scratch = Scratch::Get();
  uint32_t* column = Scratch::Room(scratch.column, std::max(num_entries, num_dangling));
  // Three counts; the entries' page, score, target-count and out-degree
  // columns; the target heads and gaps; the dangling page and score
  // columns.
  ByteWriter writer(out, kFrameHeaderBytes + 3 * kMaxVarint32Bytes +
                             4 * MaxColumnBytes(num_entries) + MaxColumnBytes(num_targets) +
                             MaxColumnBytes(num_dangling) +
                             kFloatBytes * (num_entries + num_dangling));
  writer.Skip(kFrameHeaderBytes);
  writer.PutVarint32(static_cast<uint32_t>(num_entries));
  writer.PutVarint32(static_cast<uint32_t>(num_targets));
  writer.PutVarint32(static_cast<uint32_t>(num_dangling));
  JXP_CHECK(IdGaps(world.pages.data(), num_entries, 0, column))
      << "world entries must be sorted by page";
  PutColumn(writer, column, num_entries);
  PutScores(writer, world.scores);
  const uint32_t* offsets = world.target_offsets.data();
  bool counts_valid = true;
  for (size_t e = 0; e < num_entries; ++e) {
    const uint32_t count = offsets[e + 1] - offsets[e];
    counts_valid &= count >= 1 && count <= world.out_degrees[e];
    column[e] = count - 1;
  }
  JXP_CHECK(counts_valid) << "world entries need 1 <= |targets| <= out-degree";
  PutColumn(writer, column, num_entries);
  for (size_t e = 0; e < num_entries; ++e) {
    column[e] = world.out_degrees[e] - (offsets[e + 1] - offsets[e]);
  }
  PutColumn(writer, column, num_entries);
  // Every entry starts a target run (its count is at least 1).
  uint32_t* heads = Scratch::Room(scratch.heads, num_entries + 1);
  uint32_t* gaps = Scratch::Room(scratch.gaps, num_targets - num_entries + 1);
  JXP_CHECK(SplitRuns(world.targets.data(), num_targets,
                      ScratchMarkRuns(offsets, num_entries, num_targets), heads, gaps))
      << "world targets must be strictly ascending";
  PutColumn(writer, heads, num_entries);
  PutColumn(writer, gaps, num_targets - num_entries);
  JXP_CHECK(IdGaps(world.dangling_pages.data(), num_dangling, 0, column))
      << "dangling records must be sorted";
  PutColumn(writer, column, num_dangling);
  PutScores(writer, world.dangling_scores);
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
