// optcm — square boolean matrix with 64-bit packed rows.
//
// Used by dsm::history to compute the transitive closure of the causal-order
// DAG: row r is the reachability set of vertex r.  Row-wise OR makes the
// closure O(V·E/64), comfortably fast for the ~10^4-operation histories the
// test and bench sweeps generate.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace dsm {

class BitMatrix {
 public:
  BitMatrix() = default;

  /// n-by-n matrix of zeros.
  explicit BitMatrix(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  [[nodiscard]] bool get(std::size_t row, std::size_t col) const noexcept;
  void set(std::size_t row, std::size_t col) noexcept;
  void clear(std::size_t row, std::size_t col) noexcept;

  /// row |= other row.  The workhorse of transitive closure.
  void or_row_into(std::size_t src_row, std::size_t dst_row) noexcept;

  /// Number of set bits in a row.
  [[nodiscard]] std::size_t row_popcount(std::size_t row) const noexcept;

  /// Column indices of the set bits of a row, ascending.
  [[nodiscard]] std::vector<std::size_t> row_members(std::size_t row) const;

  /// The packed words of a row: bit c%64 of word c/64 is column c; the bits
  /// past column size()-1 in the last word are zero.
  [[nodiscard]] std::span<const std::uint64_t> row(std::size_t r) const noexcept;

  /// True iff row `a` is a (non-strict) subset of row `b`.
  [[nodiscard]] bool row_subset(std::size_t a, std::size_t b) const noexcept;

  friend bool operator==(const BitMatrix&, const BitMatrix&) = default;

 private:
  [[nodiscard]] std::size_t words_per_row() const noexcept { return (n_ + 63) / 64; }

  std::size_t n_ = 0;
  std::vector<std::uint64_t> bits_;
};

}  // namespace dsm
