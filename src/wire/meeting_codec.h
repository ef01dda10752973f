#ifndef JXP_WIRE_MEETING_CODEC_H_
#define JXP_WIRE_MEETING_CODEC_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "graph/subgraph.h"
#include "wire/wire_format.h"

namespace jxp {
namespace wire {

/// Encode/Decode pairs for the two meeting payload types (DESIGN.md §6g).
/// This layer speaks graph vocabulary only; the core layer bridges
/// WorldNode and PeerView to/from the plain columns here (core depends on
/// wire, never the reverse).
///
/// Both payloads are columns. Counts are VByte varints; every integer
/// column is split into areas of the shared block codec (common/bitpack.h);
/// an id column holds ascending ids as gaps − 1, the first id absolute; an
/// id-run column (successors per page, targets per entry) is two columns,
/// the run heads (each run's first id) and the other ids as gaps − 1 from
/// their predecessor; scores are 4-byte floats rounded down
/// (LowerBoundFloat).
///
///   kScoreChunk      first page index, page count n, successor count s;
///                    page ids (the first continues from the previous
///                    chunk's last page); n scores; n degrees; the
///                    successor runs, one per page with successors.
///   kWorldKnowledge  entry count n, target count t, dangling count d;
///                    page ids; n scores; target counts − 1; out-degree
///                    slack (out-degree − target count); the target runs,
///                    one per entry; dangling page ids; d scores.
///
/// The layout cannot express a non-ascending id, an empty target list or
/// more targets than the out-degree; what the decoder still checks is
/// overflow past 32 bits, the count totals and the scores.

/// Page-table records per kScoreChunk frame. Smaller chunks lose less to a
/// torn transfer but pay 16 header bytes each; 64 keeps the overhead at a
/// fraction of a byte per page.
inline constexpr size_t kPagesPerChunk = 64;

/// A page table as flat columns, in ascending page order: page i has score
/// scores[i] and the strictly ascending successor ids
/// successors[successor_offsets[i], successor_offsets[i + 1]).
struct PageTableColumns {
  std::vector<graph::PageId> pages;
  /// The sender's scores after the wire's round-down float quantization.
  std::vector<double> scores;
  std::vector<uint64_t> successor_offsets = {0};
  std::vector<graph::PageId> successors;

  graph::PageTableView View() const { return {pages, successor_offsets, successors}; }
};

/// World knowledge as flat columns sorted by page: the layout
/// core::WorldNode keeps, so the encoder reads it in place and the decoder's
/// output moves straight in. Entry e is page pages[e] with out_degrees[e],
/// scores[e] and the targets [target_offsets[e], target_offsets[e + 1]);
/// dangling record d is dangling_pages[d] with dangling_scores[d]. Pages,
/// each target list and the dangling pages are strictly ascending, and
/// 1 <= |targets| <= out-degree. The offsets are 32-bit: a world node holds
/// fewer than 2^32 links (a decoded frame's are bounded by its 64 MiB
/// payload; core::WorldNode checks its merges and appends).
struct WorldColumns {
  std::vector<graph::PageId> pages;
  std::vector<uint32_t> out_degrees;
  std::vector<double> scores;
  std::vector<uint32_t> target_offsets = {0};
  std::vector<graph::PageId> targets;
  std::vector<graph::PageId> dangling_pages;
  std::vector<double> dangling_scores;

  size_t NumEntries() const { return pages.size(); }
  bool empty() const { return pages.empty() && dangling_pages.empty(); }
  bool operator==(const WorldColumns&) const = default;
  std::span<const graph::PageId> Targets(size_t e) const {
    return std::span<const graph::PageId>(targets).subspan(
        target_offsets[e], target_offsets[e + 1] - target_offsets[e]);
  }
};

/// Everything the decoder recovered from the (possibly truncated or
/// corrupted) byte stream of one meeting message.
struct DecodedMeeting {
  /// The page table, in the sender's local-index order (== ascending page
  /// id). May be a prefix of the sender's table when the stream was cut or
  /// a later chunk was rejected.
  PageTableColumns page_table;
  /// World knowledge; empty when the world frame was absent, lost, or the
  /// sender's world node was empty (an empty world node is not framed).
  WorldColumns world;
  /// Bytes of fully-decoded frames (what the receiver actually consumed).
  size_t bytes_consumed = 0;
  size_t frames_decoded = 0;
  /// Why decoding stopped early; OK when the whole buffer decoded. At most
  /// one frame is rejected — everything after a bad frame is undecodable
  /// (frame boundaries cannot be trusted past a corrupt length field).
  Status error = Status::OK();
};

/// Appends the page-table frames (kScoreChunk) for `table` + `scores` (by
/// table position) to `out`.
void EncodeScoreList(graph::PageTableView table, std::span<const double> scores,
                     std::vector<uint8_t>& out);

/// Appends one kWorldKnowledge frame holding `world` (which must satisfy
/// the WorldColumns invariants). Appends nothing when it is empty.
void EncodeWorldKnowledge(const WorldColumns& world, std::vector<uint8_t>& out);

/// Decodes the longest valid frame prefix of `data` (the fault-tolerant
/// entry point: a truncated or bit-flipped transfer yields the intact
/// prefix plus a non-OK `error`). Strict per-frame validation: counts the
/// payload cannot hold (checked before anything is allocated), ids past
/// 2^32 − 1, counts that miss their totals, malformed or truncated areas,
/// trailing bytes, non-finite or negative scores, and duplicate or
/// out-of-order frames all reject the frame.
DecodedMeeting DecodeMeeting(std::span<const uint8_t> data);

}  // namespace wire
}  // namespace jxp

#endif  // JXP_WIRE_MEETING_CODEC_H_
