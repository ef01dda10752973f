#ifndef JXP_QP_BLOCK_POSTING_LIST_H_
#define JXP_QP_BLOCK_POSTING_LIST_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"

namespace jxp {
namespace qp {

/// Work counters of the decode side. Every counter is a pure function of the
/// (index, query, k) inputs — never of timing or thread count — so they feed
/// the deterministic `jxp.qp.*` metrics.
struct DecodeStats {
  /// Docid entries materialized from compressed blocks.
  size_t postings_decoded = 0;
  /// Term frequencies materialized (lazy: only for blocks that get scored).
  size_t freqs_decoded = 0;
  /// Docid blocks decompressed.
  size_t blocks_decoded = 0;
  /// Blocks passed over on metadata alone (never decompressed).
  size_t blocks_skipped = 0;
  /// Blocks passed over because per-query live-block computation proved
  /// their whole docid range dead (disjoint from blocks_skipped: a
  /// liveness-driven jump reclassifies its metadata skips into this
  /// counter). DESIGN.md §6h.
  size_t blocks_skipped_live = 0;

  bool operator==(const DecodeStats&) const = default;

  void MergeFrom(const DecodeStats& other) {
    postings_decoded += other.postings_decoded;
    freqs_decoded += other.freqs_decoded;
    blocks_decoded += other.blocks_decoded;
    blocks_skipped += other.blocks_skipped;
    blocks_skipped_live += other.blocks_skipped_live;
  }
};

/// The block compression codec. There is one: bit-packed lanes with a
/// per-area VByte fallback (see BlockPostingList). The enum and
/// CompressedIndexOptions::codec remain only so existing callers that name
/// the codec keep compiling; nothing reads them.
enum class BlockCodec : uint8_t { kPacked };

/// One term's immutable compressed posting list: docid-sorted postings split
/// into fixed-size blocks, each block holding its docid deltas followed by
/// its term frequencies, plus per-block metadata (last docid, upper-rounded
/// max impact, upper-rounded max static prior). The metadata makes every
/// block skippable without decompression: a cursor can rule a block out (by
/// docid range or by score bound) from metadata alone.
///
/// Each area (deltas, then frequencies) starts with one width byte: 1..32 is
/// the lane width of fixed-width bit-packed values, decoded branch-free per
/// value (load, shift, mask — the SIMD-friendly layout of DESIGN.md §6h); 0
/// means the area is VByte-encoded because packing would have been larger
/// (e.g. one huge delta in an otherwise dense block).
class BlockPostingList {
 public:
  /// Postings per block; the last block may be short.
  static constexpr size_t kDefaultBlockSize = 128;
  /// Sentinel docid of an exhausted cursor (== graph::kInvalidPage).
  static constexpr uint32_t kEndDocid = 0xffffffffu;
  /// Wire size of one block's metadata: last docid (4) + docid offset (4) +
  /// freq offset (4) + count (2) + max impact (4) + max prior (4). The
  /// in-memory struct is padded; compressed-size stats report this figure.
  static constexpr size_t kBlockMetadataBytes = 22;

  /// Builder input: one posting with its exact impact score ((1 + log tf) *
  /// idf) and the exact static prior of its document (0 when none).
  struct PostingIn {
    uint32_t docid = 0;
    uint32_t tf = 0;
    double impact = 0;
    double prior = 0;
  };

  BlockPostingList() = default;

  /// Freezes `postings` (strictly increasing docids, tf >= 1) into the
  /// compressed layout.
  static BlockPostingList Build(std::span<const PostingIn> postings, size_t block_size);

  size_t num_postings() const { return num_postings_; }
  size_t num_blocks() const { return blocks_.size(); }
  /// Upper bound (>=) of every posting's exact impact / document prior.
  float max_impact() const { return max_impact_; }
  float max_prior() const { return max_prior_; }
  /// Compressed payload split, for bytes-per-posting accounting.
  size_t docid_bytes() const { return docid_bytes_; }
  size_t freq_bytes() const { return bytes_.size() - docid_bytes_; }
  size_t metadata_bytes() const { return blocks_.size() * kBlockMetadataBytes; }

  /// A forward cursor over the list. Traversal is strictly docid-ascending:
  /// Next / NextGEQ never move backwards, matching document-at-a-time query
  /// processing. All decode work is counted into `stats` (optional).
  class Cursor {
   public:
    /// An unbound cursor; Reset binds it to a list.
    Cursor() = default;
    Cursor(const BlockPostingList* list, DecodeStats* stats)
        : list_(list), stats_(stats) {}

    /// Rebinds the cursor to the start of `list`, exactly as a fresh
    /// OpenCursor would be, but keeps the block buffers' storage, so a
    /// cursor reused across lists stops allocating once its buffers have
    /// grown to the largest block seen.
    void Reset(const BlockPostingList* list, DecodeStats* stats);

    /// Current docid; kEndDocid once exhausted. Valid only after the first
    /// Next() or NextGEQ() call.
    uint32_t docid() const { return docid_; }

    /// Term frequency of the current posting (decodes the block's
    /// frequencies on first use).
    uint32_t freq();

    /// Advances to the next posting (to the first posting on the initial
    /// call).
    void Next();

    /// Advances to the first posting with docid >= target (no-op when the
    /// current posting already qualifies). Blocks whose last docid is below
    /// `target` are skipped from metadata without decompression. Returns
    /// false when the list is exhausted.
    bool NextGEQ(uint32_t target);

    /// Shallow seek: moves the block pointer to the block that would contain
    /// the first docid >= target *without decoding it* and reports that
    /// block's score upper bounds. Returns false when no such block exists
    /// (list exhausted). A subsequent NextGEQ(target) decodes exactly the
    /// reported block. This is the block-max hook of the MaxScore processor:
    /// the bound decides whether the decode happens at all.
    bool SeekBlock(uint32_t target, float* block_max_impact, float* block_max_prior);

   private:
    /// Decompresses the docids of blocks_[block_]; leaves pos_ at 0.
    void DecodeDocids();

    const BlockPostingList* list_ = nullptr;
    DecodeStats* stats_ = nullptr;
    size_t block_ = 0;
    size_t pos_ = 0;
    bool started_ = false;
    /// Whether docids_ / freqs_ hold blocks_[block_].
    bool docids_decoded_ = false;
    bool freqs_decoded_ = false;
    uint32_t docid_ = kEndDocid;
    std::vector<uint32_t> docids_;
    std::vector<uint32_t> freqs_;
  };

  Cursor OpenCursor(DecodeStats* stats) const { return Cursor(this, stats); }

  /// Per-block metadata reads for callers that reason about blocks without a
  /// cursor — the live-block computation (query_processor.cc) intersects
  /// these bounds across a query's lists before any descent.
  uint32_t block_last_docid(size_t block) const { return blocks_[block].last_docid; }
  float block_max_impact(size_t block) const { return blocks_[block].max_impact; }
  float block_max_prior(size_t block) const { return blocks_[block].max_prior; }

 private:
  struct BlockMeta {
    /// Largest docid in the block (the skip key).
    uint32_t last_docid = 0;
    /// Byte offsets into bytes_: [docid_begin, freq_begin) holds the docid
    /// deltas, [freq_begin, next block's docid_begin) the frequencies.
    uint32_t docid_begin = 0;
    uint32_t freq_begin = 0;
    uint32_t count = 0;
    /// Upper bounds (float, rounded up) over the block's postings.
    float max_impact = 0;
    float max_prior = 0;
  };

  size_t FreqEnd(size_t block) const {
    return block + 1 < blocks_.size() ? blocks_[block + 1].docid_begin : bytes_.size();
  }
  /// Docid preceding block `block`'s first delta (0 before the first block).
  uint32_t BaseDocid(size_t block) const {
    return block == 0 ? 0 : blocks_[block - 1].last_docid;
  }

  /// Appends one block area (docid deltas or frequencies): the width byte,
  /// then packed lanes or the VByte fallback, whichever is smaller.
  void AppendArea(const std::vector<uint32_t>& values);
  /// Decodes the `count` values of the area at bytes_[begin..end) into
  /// `out`. Bounds-checked: a malformed area aborts (JXP_CHECK) instead of
  /// reading past the buffer.
  void DecodeArea(size_t begin, size_t end, uint32_t count, uint32_t* out) const;

  std::vector<uint8_t> bytes_;
  std::vector<BlockMeta> blocks_;
  size_t num_postings_ = 0;
  size_t docid_bytes_ = 0;
  float max_impact_ = 0;
  float max_prior_ = 0;
};

}  // namespace qp
}  // namespace jxp

#endif  // JXP_QP_BLOCK_POSTING_LIST_H_
