// Word-packed bit vector: the integer-only hot-path representation of
// difference-syndrome layers and Pauli frames. The streamed datapath
// (trace -> lane stepper -> QECOOL engine Reg scans) touches every bit of
// every layer of every lane each round; byte-per-bit vectors spend a load,
// a compare, and a branch per ancilla, where the SFQ hardware the paper
// describes operates on whole registers at once. PackedBits stores 64
// ancillas per word so XOR, occupancy scans, and defect counting become
// one word op per 64 bits (std::popcount / std::countr_zero).
//
// Layout contract: bit i lives in word i/64 at bit position i%64 (LSB
// first). Byte k of the little-endian word stream therefore holds bits
// [8k, 8k+8) LSB-first — exactly the QTRC trace payload packing
// (docs/trace_format.md), so a packed layer serializes by emitting its
// words little-endian, truncated to ceil(bits/8) bytes, and deserializes
// by assembling words from bytes. No byte-per-bit unpack on either side.
//
// Invariant: tail bits past size() in the last word are always zero, so
// any()/popcount()/operator== never need masking.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

namespace qec {

class PackedBits {
 public:
  PackedBits() = default;

  /// `num_bits` zeroed bits.
  explicit PackedBits(std::size_t num_bits)
      : bits_(num_bits), words_(word_count(num_bits), 0) {}

  /// Packs a byte-per-bit vector (any nonzero byte reads as 1).
  static PackedBits from_bits(std::span<const std::uint8_t> bits);

  /// Unpacks ceil(num_bits/8) LSB-first bytes — the QTRC payload layout.
  static PackedBits from_bytes(const std::uint8_t* bytes,
                               std::size_t num_bits);

  std::size_t size() const { return bits_; }
  std::size_t num_words() const { return words_.size(); }
  std::uint64_t word(std::size_t w) const { return words_[w]; }

  /// Whole-word mutators (the noise sampler, the fuzz minimizer and the
  /// engine's occupancy scan write words directly). The value must respect
  /// the tail-zero invariant — callers pass words read from a same-sized
  /// PackedBits.
  void set_word(std::size_t w, std::uint64_t value) {
    assert(w < words_.size());
    assert(w + 1 < words_.size() || (value & ~tail_mask()) == 0);
    words_[w] = value;
  }
  void xor_word(std::size_t w, std::uint64_t value) {
    assert(w < words_.size());
    assert(w + 1 < words_.size() || (value & ~tail_mask()) == 0);
    words_[w] ^= value;
  }

  bool test(std::size_t i) const {
    assert(i < bits_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void set(std::size_t i) {
    assert(i < bits_);
    words_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  void reset(std::size_t i) {
    assert(i < bits_);
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  void flip(std::size_t i) {
    assert(i < bits_);
    words_[i >> 6] ^= std::uint64_t{1} << (i & 63);
  }

  /// All bits -> 0 (size unchanged).
  void clear_all();

  /// Overwrites with a same-sized byte-per-bit vector (no reallocation).
  void assign_bits(std::span<const std::uint8_t> bits);

  /// Word-copy of a same-sized source (no reallocation).
  void copy_from(const PackedBits& other);

  bool any() const;
  bool none() const { return !any(); }
  /// Set entries — the packed weight().
  int popcount() const;
  /// Any set bit in [first, first + count)? The engine's per-row Reg scan.
  bool any_in_range(std::size_t first, std::size_t count) const;

  /// XOR/OR/AND with a same-sized operand, word-parallel.
  PackedBits& operator^=(const PackedBits& other);
  PackedBits& operator|=(const PackedBits& other);
  PackedBits& operator&=(const PackedBits& other);

  friend bool operator==(const PackedBits& a, const PackedBits& b) {
    return a.bits_ == b.bits_ && a.words_ == b.words_;
  }
  friend bool operator!=(const PackedBits& a, const PackedBits& b) {
    return !(a == b);
  }

  /// Byte-per-bit copy (the cold-path bridge back to BitVec consumers).
  std::vector<std::uint8_t> to_bits() const;

  /// Appends ceil(size()/8) LSB-first bytes — the exact QTRC payload
  /// encoding of this layer (inverse of from_bytes).
  void append_bytes(std::vector<std::uint8_t>& out) const;

  /// Calls f(index) for every set bit in ascending order.
  template <typename F>
  void for_each_set(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word) {
        const int b = std::countr_zero(word);
        f((w << 6) + static_cast<std::size_t>(b));
        word &= word - 1;  // clear lowest set bit
      }
    }
  }

 private:
  static std::size_t word_count(std::size_t bits) { return (bits + 63) / 64; }
  /// Mask selecting the valid bits of the last word (all-ones when the
  /// size is a multiple of 64 or zero).
  std::uint64_t tail_mask() const {
    const std::size_t rem = bits_ & 63;
    return rem ? (std::uint64_t{1} << rem) - 1 : ~std::uint64_t{0};
  }

  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace qec
