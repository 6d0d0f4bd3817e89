#include "surface_code/packed_bits.hpp"

#include <algorithm>

namespace qec {

PackedBits PackedBits::from_bits(std::span<const std::uint8_t> bits) {
  PackedBits packed(bits.size());
  packed.assign_bits(bits);
  return packed;
}

PackedBits PackedBits::from_bytes(const std::uint8_t* bytes,
                                  std::size_t num_bits) {
  PackedBits packed(num_bits);
  const std::size_t num_bytes = (num_bits + 7) / 8;
  for (std::size_t k = 0; k < num_bytes; ++k) {
    packed.words_[k >> 3] |= static_cast<std::uint64_t>(bytes[k])
                             << (8 * (k & 7));
  }
  // A final partial byte may carry stray bits past num_bits (the trace
  // loader validates them separately); keep the tail-zero invariant here.
  if (!packed.words_.empty()) packed.words_.back() &= packed.tail_mask();
  return packed;
}

void PackedBits::clear_all() { std::fill(words_.begin(), words_.end(), 0); }

void PackedBits::assign_bits(std::span<const std::uint8_t> bits) {
  assert(bits.size() == bits_);
  clear_all();
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) set(i);
  }
}

void PackedBits::copy_from(const PackedBits& other) {
  assert(other.bits_ == bits_);
  std::copy(other.words_.begin(), other.words_.end(), words_.begin());
}

bool PackedBits::any() const {
  for (const std::uint64_t w : words_) {
    if (w) return true;
  }
  return false;
}

int PackedBits::popcount() const {
  int count = 0;
  for (const std::uint64_t w : words_) count += std::popcount(w);
  return count;
}

bool PackedBits::any_in_range(std::size_t first, std::size_t count) const {
  assert(first + count <= bits_);
  if (count == 0) return false;
  const std::size_t last = first + count - 1;
  std::size_t w = first >> 6;
  const std::size_t w_last = last >> 6;
  // Mask off bits below `first` in the first word and above `last` in the
  // last word; whole words in between are tested unmasked.
  std::uint64_t mask = ~std::uint64_t{0} << (first & 63);
  for (; w <= w_last; ++w, mask = ~std::uint64_t{0}) {
    std::uint64_t bits = words_[w] & mask;
    if (w == w_last) {
      const std::size_t rem = last & 63;
      if (rem != 63) bits &= (std::uint64_t{1} << (rem + 1)) - 1;
    }
    if (bits) return true;
  }
  return false;
}

PackedBits& PackedBits::operator^=(const PackedBits& other) {
  assert(other.bits_ == bits_);
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] ^= other.words_[w];
  return *this;
}

PackedBits& PackedBits::operator|=(const PackedBits& other) {
  assert(other.bits_ == bits_);
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
  return *this;
}

PackedBits& PackedBits::operator&=(const PackedBits& other) {
  assert(other.bits_ == bits_);
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= other.words_[w];
  return *this;
}

std::vector<std::uint8_t> PackedBits::to_bits() const {
  std::vector<std::uint8_t> bits(bits_, 0);
  for_each_set([&bits](std::size_t i) { bits[i] = 1; });
  return bits;
}

void PackedBits::append_bytes(std::vector<std::uint8_t>& out) const {
  const std::size_t num_bytes = (bits_ + 7) / 8;
  for (std::size_t k = 0; k < num_bytes; ++k) {
    out.push_back(
        static_cast<std::uint8_t>(words_[k >> 3] >> (8 * (k & 7))));
  }
}

}  // namespace qec
