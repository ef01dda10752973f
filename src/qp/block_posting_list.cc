#include "qp/block_posting_list.h"

#include <algorithm>

#include "common/varint.h"
#include "qp/bitpack.h"

namespace jxp {
namespace qp {

void BlockPostingList::AppendArea(const std::vector<uint32_t>& values) {
  // The choice between packed lanes and the VByte fallback is a pure
  // function of the values, so the layout stays deterministic. Both sizes
  // are computed before anything is written: a VByte value takes one byte
  // per started 7-bit group of its width.
  uint32_t width = 1;
  size_t vbyte_bytes = 0;
  for (uint32_t v : values) {
    const uint32_t bits = BitWidth32(v);
    width = std::max(width, bits);
    vbyte_bytes += (bits + 6) / 7;
  }
  const size_t packed_bytes = (values.size() * width + 7) / 8;
  if (vbyte_bytes < packed_bytes) {
    bytes_.push_back(0);
    for (uint32_t v : values) VByteEncode32(v, bytes_);
  } else {
    bytes_.push_back(static_cast<uint8_t>(width));
    PackBits(values.data(), values.size(), width, bytes_);
  }
}

void BlockPostingList::DecodeArea(size_t begin, size_t end, uint32_t count,
                                  uint32_t* out) const {
  const uint8_t* data = bytes_.data();
  const size_t size = bytes_.size();
  JXP_CHECK_LT(begin, end);
  const uint8_t width = data[begin];
  if (width == 0) {
    size_t offset = begin + 1;
    JXP_CHECK(VByteDecodeArray32(data, size, offset, count, out))
        << "truncated VByte-fallback block area";
    JXP_CHECK_LE(offset, end);
    return;
  }
  // The packed area must fit its declared span; wide loads may read past
  // `end` into the following area but never past the buffer (UnpackBits
  // masks the excess bits and bounds every load by `size`).
  JXP_CHECK_LE(begin + 1 + (static_cast<size_t>(count) * width + 7) / 8, end);
  JXP_CHECK(UnpackBits(data, size, begin + 1, count, width, out))
      << "truncated packed block area";
}

BlockPostingList BlockPostingList::Build(std::span<const PostingIn> postings,
                                         size_t block_size) {
  JXP_CHECK_GT(block_size, 0u);
  BlockPostingList list;
  list.num_postings_ = postings.size();
  if (postings.empty()) return list;

  list.blocks_.reserve((postings.size() + block_size - 1) / block_size);
  std::vector<uint32_t> deltas;
  std::vector<uint32_t> freqs;
  for (size_t begin = 0; begin < postings.size(); begin += block_size) {
    const size_t end = std::min(begin + block_size, postings.size());
    BlockMeta meta;
    meta.count = static_cast<uint32_t>(end - begin);
    meta.docid_begin = static_cast<uint32_t>(list.bytes_.size());
    double max_impact = 0;
    double max_prior = 0;
    uint32_t prev = list.BaseDocid(list.blocks_.size());
    deltas.clear();
    freqs.clear();
    for (size_t i = begin; i < end; ++i) {
      const PostingIn& posting = postings[i];
      JXP_CHECK_LT(posting.docid, kEndDocid);
      JXP_CHECK_GE(posting.tf, 1u);
      // Strictly increasing docids; the first posting of the whole list may
      // have docid 0 (delta from the implicit base 0).
      if (i > 0) {
        JXP_CHECK_LT(postings[i - 1].docid, posting.docid);
      }
      deltas.push_back(posting.docid - prev);
      freqs.push_back(posting.tf);
      prev = posting.docid;
      max_impact = std::max(max_impact, posting.impact);
      max_prior = std::max(max_prior, posting.prior);
    }
    list.AppendArea(deltas);
    meta.last_docid = prev;
    meta.freq_begin = static_cast<uint32_t>(list.bytes_.size());
    list.AppendArea(freqs);
    meta.max_impact = UpperBoundFloat(max_impact);
    meta.max_prior = UpperBoundFloat(max_prior);
    list.max_impact_ = std::max(list.max_impact_, meta.max_impact);
    list.max_prior_ = std::max(list.max_prior_, meta.max_prior);
    list.docid_bytes_ += meta.freq_begin - meta.docid_begin;
    list.blocks_.push_back(meta);
  }
  return list;
}

void BlockPostingList::Cursor::Reset(const BlockPostingList* list, DecodeStats* stats) {
  list_ = list;
  stats_ = stats;
  block_ = 0;
  pos_ = 0;
  started_ = false;
  docids_decoded_ = false;
  freqs_decoded_ = false;
  docid_ = kEndDocid;
}

void BlockPostingList::Cursor::DecodeDocids() {
  const BlockMeta& meta = list_->blocks_[block_];
  docids_.resize(meta.count);
  list_->DecodeArea(meta.docid_begin, meta.freq_begin, meta.count, docids_.data());
  // Deltas -> absolute docids. The prefix sum stays a separate scalar pass
  // so the decode loop above remains branch-free and vectorizable.
  uint32_t prev = list_->BaseDocid(block_);
  for (uint32_t i = 0; i < meta.count; ++i) {
    prev += docids_[i];
    docids_[i] = prev;
  }
  docids_decoded_ = true;
  freqs_decoded_ = false;
  pos_ = 0;
  if (stats_ != nullptr) {
    ++stats_->blocks_decoded;
    stats_->postings_decoded += meta.count;
  }
}

uint32_t BlockPostingList::Cursor::freq() {
  JXP_CHECK(started_ && docid_ != kEndDocid);
  if (!freqs_decoded_) {
    const BlockMeta& meta = list_->blocks_[block_];
    freqs_.resize(meta.count);
    list_->DecodeArea(meta.freq_begin, list_->FreqEnd(block_), meta.count,
                      freqs_.data());
    freqs_decoded_ = true;
    if (stats_ != nullptr) stats_->freqs_decoded += meta.count;
  }
  return freqs_[pos_];
}

void BlockPostingList::Cursor::Next() {
  started_ = true;
  // Exhaustion is tracked by the block pointer (docid_ alone is ambiguous:
  // it is also kEndDocid on a fresh cursor and after a shallow SeekBlock).
  if (block_ >= list_->blocks_.size()) {
    docid_ = kEndDocid;
    return;
  }
  if (!docids_decoded_) {
    // First call, or a SeekBlock moved the block pointer without decoding:
    // position at the first posting of the current block.
    DecodeDocids();
    docid_ = docids_[pos_];
    return;
  }
  if (pos_ + 1 < docids_.size()) {
    ++pos_;
    docid_ = docids_[pos_];
    return;
  }
  ++block_;
  docids_decoded_ = false;
  if (block_ >= list_->blocks_.size()) {
    docid_ = kEndDocid;
    return;
  }
  DecodeDocids();
  docid_ = docids_[pos_];
}

bool BlockPostingList::Cursor::NextGEQ(uint32_t target) {
  started_ = true;
  if (docid_ != kEndDocid && docids_decoded_ && docid_ >= target) return true;
  // Skip whole blocks on metadata alone.
  bool moved = false;
  while (block_ < list_->blocks_.size() &&
         list_->blocks_[block_].last_docid < target) {
    if (stats_ != nullptr && !docids_decoded_) ++stats_->blocks_skipped;
    ++block_;
    docids_decoded_ = false;
    moved = true;
  }
  if (block_ >= list_->blocks_.size()) {
    docid_ = kEndDocid;
    return false;
  }
  const size_t search_from = (!moved && docids_decoded_) ? pos_ : 0;
  if (!docids_decoded_) DecodeDocids();
  const auto it =
      std::lower_bound(docids_.begin() + static_cast<ptrdiff_t>(search_from),
                       docids_.end(), target);
  JXP_CHECK(it != docids_.end());  // Guaranteed by last_docid >= target.
  pos_ = static_cast<size_t>(it - docids_.begin());
  docid_ = docids_[pos_];
  return true;
}

bool BlockPostingList::Cursor::SeekBlock(uint32_t target, float* block_max_impact,
                                         float* block_max_prior) {
  started_ = true;
  while (block_ < list_->blocks_.size() &&
         list_->blocks_[block_].last_docid < target) {
    if (stats_ != nullptr && !docids_decoded_) ++stats_->blocks_skipped;
    ++block_;
    docids_decoded_ = false;
  }
  if (block_ >= list_->blocks_.size()) {
    docid_ = kEndDocid;
    return false;
  }
  const BlockMeta& meta = list_->blocks_[block_];
  *block_max_impact = meta.max_impact;
  *block_max_prior = meta.max_prior;
  return true;
}

}  // namespace qp
}  // namespace jxp
