#ifndef JXP_MARKOV_SPARSE_MATRIX_H_
#define JXP_MARKOV_SPARSE_MATRIX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"

namespace jxp {
namespace markov {

/// One weighted entry of a sparse matrix row.
struct MatrixEntry {
  uint32_t column = 0;
  double weight = 0;
};

/// Sorts `row` by column and merges duplicate columns by adding their
/// weights (left to right in sorted order). Shared by SparseMatrixBuilder
/// and core::ExtendedSystemCache so both produce bit-identical rows.
void SortAndMergeRow(std::vector<MatrixEntry>& row);

/// Square sparse row-major matrix of transition probabilities.
///
/// Rows may be *substochastic* (sum < 1): a row summing to zero models a
/// dangling state whose mass the power iteration redistributes according to
/// a caller-supplied dangling distribution. Weights must be non-negative and
/// row sums must not exceed 1 (+ small numerical slack).
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Number of states (rows == columns).
  size_t NumStates() const { return row_offsets_.size() - 1; }

  /// Number of stored entries.
  size_t NumEntries() const { return entries_.size(); }

  /// Entries of row `i`, in strictly ascending column order:
  /// SparseMatrixBuilder::Build runs SortAndMergeRow on every row, and
  /// ReplaceLastRow's callers pass rows in that order. The order is part of
  /// the contract: row sums accumulate in it, and ExtendedSystemCache's
  /// cached systems are bit-identical to fresh builds because both store
  /// rows this way.
  std::span<const MatrixEntry> Row(uint32_t i) const {
    JXP_CHECK_LT(i, NumStates());
    return {entries_.data() + row_offsets_[i], entries_.data() + row_offsets_[i + 1]};
  }

  /// Sum of the weights of row `i` (precomputed).
  double RowSum(uint32_t i) const {
    JXP_CHECK_LT(i, NumStates());
    return row_sums_[i];
  }

  /// Computes y = x * M (vector-matrix product from the left, the power
  /// iteration step). x and y must have NumStates() elements; y is
  /// overwritten.
  void LeftMultiply(std::span<const double> x, std::span<double> y) const;

  /// Replaces the entries of the *last* row in place, leaving every other
  /// row untouched (the extended-system cache keeps the immutable local
  /// rows and splices in a fresh world row). Columns must be strictly
  /// ascending and in range; the new row sum must stay stochastic. The row
  /// sum is recomputed by summing the entries in storage order, matching
  /// SparseMatrixBuilder::Build.
  void ReplaceLastRow(std::span<const MatrixEntry> entries);

 private:
  friend class SparseMatrixBuilder;

  std::vector<uint64_t> row_offsets_ = {0};
  std::vector<MatrixEntry> entries_;
  std::vector<double> row_sums_;
};

/// Row-by-row builder for SparseMatrix.
class SparseMatrixBuilder {
 public:
  /// Creates a builder for an n x n matrix.
  explicit SparseMatrixBuilder(size_t num_states) : num_states_(num_states) {
    rows_.resize(num_states);
  }

  /// Reserves capacity for `expected` entries in `row` — callers that know
  /// exact degrees up front (link-matrix and extended-system builds) avoid
  /// the push_back growth reallocations.
  void ReserveRow(uint32_t row, size_t expected) {
    JXP_CHECK_LT(row, num_states_);
    rows_[row].reserve(expected);
  }

  /// Adds `weight` to entry (row, column); accumulates if called twice for
  /// the same cell. Weight must be non-negative.
  void Add(uint32_t row, uint32_t column, double weight);

  /// Finalizes the matrix, verifying that every row sums to at most
  /// 1 + 1e-9. The builder is left empty.
  SparseMatrix Build();

 private:
  size_t num_states_;
  std::vector<std::vector<MatrixEntry>> rows_;
};

}  // namespace markov
}  // namespace jxp

#endif  // JXP_MARKOV_SPARSE_MATRIX_H_
