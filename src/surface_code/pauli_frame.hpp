// Small helpers for manipulating binary error / correction vectors
// ("Pauli frames" restricted to one error sector).
//
// Each form has one job:
//  - BitVec (byte per bit): the random-access form of SyndromeHistory
//    difference layers and final errors, which the offline decoders
//    (MWPM, union-find, AQEC) index per check.
//  - PackedBits (64 bits per word, surface_code/packed_bits.hpp): the
//    engine form. The QECOOL engine takes only packed layers (one push
//    path), and its Reg layers, the trace's difference layers and the
//    accumulated correction all live packed, so per-round
//    XOR/occupancy/weight work is word-parallel. A byte-per-bit layer is
//    packed once, where it meets the engine.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "surface_code/packed_bits.hpp"

namespace qec {

/// One-sector Pauli frame: a binary vector over data qubits.
using BitVec = std::vector<std::uint8_t>;

/// Number of set entries.
int weight(std::span<const std::uint8_t> bits);

/// out ^= in (sizes must match).
void xor_into(std::span<const std::uint8_t> in, BitVec& out);

/// a XOR b as a new vector (sizes must match).
BitVec xor_of(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b);

/// True if every entry is zero.
bool is_zero(std::span<const std::uint8_t> bits);

// Packed (word-parallel) counterparts.

/// Number of set bits — one popcount per 64 ancillas.
inline int weight(const PackedBits& bits) { return bits.popcount(); }

/// out ^= in (sizes must match), word-parallel.
inline void xor_into(const PackedBits& in, PackedBits& out) { out ^= in; }

/// a XOR b as a new packed vector (sizes must match).
PackedBits xor_of(const PackedBits& a, const PackedBits& b);

/// True if every bit is zero — one compare per 64 ancillas.
inline bool is_zero(const PackedBits& bits) { return bits.none(); }

}  // namespace qec
