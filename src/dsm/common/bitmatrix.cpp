#include "dsm/common/bitmatrix.h"

#include <bit>

#include "dsm/common/contracts.h"

namespace dsm {

BitMatrix::BitMatrix(std::size_t n) : n_(n), bits_(n * ((n + 63) / 64), 0) {}

bool BitMatrix::get(std::size_t row, std::size_t col) const noexcept {
  DSM_REQUIRE(row < n_ && col < n_);
  const std::size_t w = row * words_per_row() + col / 64;
  return (bits_[w] >> (col % 64)) & 1U;
}

void BitMatrix::set(std::size_t row, std::size_t col) noexcept {
  DSM_REQUIRE(row < n_ && col < n_);
  bits_[row * words_per_row() + col / 64] |= (std::uint64_t{1} << (col % 64));
}

void BitMatrix::clear(std::size_t row, std::size_t col) noexcept {
  DSM_REQUIRE(row < n_ && col < n_);
  bits_[row * words_per_row() + col / 64] &= ~(std::uint64_t{1} << (col % 64));
}

void BitMatrix::or_row_into(std::size_t src_row, std::size_t dst_row) noexcept {
  DSM_REQUIRE(src_row < n_ && dst_row < n_);
  const std::size_t wpr = words_per_row();
  const std::uint64_t* src = bits_.data() + src_row * wpr;
  std::uint64_t* dst = bits_.data() + dst_row * wpr;
  for (std::size_t i = 0; i < wpr; ++i) dst[i] |= src[i];
}

std::size_t BitMatrix::row_popcount(std::size_t row) const noexcept {
  DSM_REQUIRE(row < n_);
  const std::size_t wpr = words_per_row();
  std::size_t count = 0;
  for (std::size_t i = 0; i < wpr; ++i) {
    count += static_cast<std::size_t>(std::popcount(bits_[row * wpr + i]));
  }
  return count;
}

std::vector<std::size_t> BitMatrix::row_members(std::size_t row) const {
  DSM_REQUIRE(row < n_);
  std::vector<std::size_t> out;
  out.reserve(row_popcount(row));
  const std::size_t wpr = words_per_row();
  for (std::size_t i = 0; i < wpr; ++i) {
    std::uint64_t word = bits_[row * wpr + i];
    while (word != 0) {
      const int bit = std::countr_zero(word);
      out.push_back(i * 64 + static_cast<std::size_t>(bit));
      word &= word - 1;
    }
  }
  return out;
}

std::span<const std::uint64_t> BitMatrix::row(std::size_t r) const noexcept {
  DSM_REQUIRE(r < n_);
  return {bits_.data() + r * words_per_row(), words_per_row()};
}

bool BitMatrix::row_subset(std::size_t a, std::size_t b) const noexcept {
  DSM_REQUIRE(a < n_ && b < n_);
  const std::size_t wpr = words_per_row();
  for (std::size_t i = 0; i < wpr; ++i) {
    const std::uint64_t wa = bits_[a * wpr + i];
    const std::uint64_t wb = bits_[b * wpr + i];
    if ((wa & ~wb) != 0) return false;
  }
  return true;
}

}  // namespace dsm
