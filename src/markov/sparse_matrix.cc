#include "markov/sparse_matrix.h"

#include <algorithm>
#include <utility>

namespace jxp {
namespace markov {

void SortAndMergeRow(std::vector<MatrixEntry>& row) {
  std::sort(row.begin(), row.end(),
            [](const MatrixEntry& a, const MatrixEntry& b) { return a.column < b.column; });
  size_t w = 0;
  for (size_t r = 0; r < row.size(); ++r) {
    if (w > 0 && row[w - 1].column == row[r].column) {
      row[w - 1].weight += row[r].weight;
    } else {
      row[w++] = row[r];
    }
  }
  row.resize(w);
}

void SparseMatrix::LeftMultiply(std::span<const double> x, std::span<double> y) const {
  JXP_CHECK_EQ(x.size(), NumStates());
  JXP_CHECK_EQ(y.size(), NumStates());
  std::fill(y.begin(), y.end(), 0.0);
  // Raw CSR walk: the sizes were checked above and every stored column is
  // below NumStates() (Add and ReplaceLastRow check it), so no per-row or
  // per-entry check is needed. Rows and entries go in storage order, so
  // each y[c] accumulates its terms in the same order as a Row(i) loop.
  const size_t n = NumStates();
  const double* xs = x.data();
  double* ys = y.data();
  const uint64_t* offsets = row_offsets_.data();
  const MatrixEntry* entries = entries_.data();
  for (size_t i = 0; i < n; ++i) {
    const double xi = xs[i];
    if (xi == 0) continue;
    const MatrixEntry* end = entries + offsets[i + 1];
    for (const MatrixEntry* e = entries + offsets[i]; e != end; ++e) {
      ys[e->column] += xi * e->weight;
    }
  }
}

void SparseMatrix::ReplaceLastRow(std::span<const MatrixEntry> entries) {
  JXP_CHECK_GT(NumStates(), 0u);
  const size_t last = NumStates() - 1;
  entries_.resize(row_offsets_[last]);
  entries_.insert(entries_.end(), entries.begin(), entries.end());
  row_offsets_[last + 1] = entries_.size();
  double sum = 0;
  for (const MatrixEntry& e : entries) {
    JXP_CHECK_LT(e.column, NumStates());
    JXP_CHECK_GE(e.weight, 0.0);
    sum += e.weight;
  }
  JXP_CHECK_LE(sum, 1.0 + 1e-9) << "replacement last row is super-stochastic";
  row_sums_[last] = sum;
}

void SparseMatrixBuilder::Add(uint32_t row, uint32_t column, double weight) {
  JXP_CHECK_LT(row, num_states_);
  JXP_CHECK_LT(column, num_states_);
  JXP_CHECK_GE(weight, 0.0);
  rows_[row].push_back({column, weight});
}

SparseMatrix SparseMatrixBuilder::Build() {
  SparseMatrix m;
  m.row_offsets_.assign(num_states_ + 1, 0);
  m.row_sums_.assign(num_states_, 0.0);
  size_t total = 0;
  for (auto& row : rows_) {
    SortAndMergeRow(row);
    total += row.size();
  }
  m.entries_.reserve(total);
  for (size_t i = 0; i < num_states_; ++i) {
    double sum = 0;
    for (const MatrixEntry& e : rows_[i]) sum += e.weight;
    // Bulk-move the merged row into the flat array (one memcpy-sized insert
    // instead of per-entry push_back) and release its storage right away.
    m.entries_.insert(m.entries_.end(), rows_[i].begin(), rows_[i].end());
    std::vector<MatrixEntry>().swap(rows_[i]);
    JXP_CHECK_LE(sum, 1.0 + 1e-9) << "row " << i << " is super-stochastic";
    m.row_sums_[i] = sum;
    m.row_offsets_[i + 1] = m.entries_.size();
  }
  rows_.clear();
  return m;
}

}  // namespace markov
}  // namespace jxp
