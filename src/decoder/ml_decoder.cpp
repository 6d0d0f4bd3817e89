#include "decoder/ml_decoder.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace qec {

MaximumLikelihoodDecoder::MaximumLikelihoodDecoder(double p) : p_(p) {
  if (p <= 0.0 || p >= 1.0) {
    throw std::invalid_argument("ML decoder needs 0 < p < 1");
  }
}

DecodeResult MaximumLikelihoodDecoder::decode(const PlanarLattice& lattice,
                                              const SyndromeHistory& history) {
  const int n = lattice.num_data();
  if (n > kMaxQubits) {
    throw std::invalid_argument("lattice too large for exhaustive ML");
  }
  for (std::size_t t = 1; t < history.difference.size(); ++t) {
    if (!is_zero(history.difference[t])) {
      throw std::invalid_argument("ML decoder supports code capacity only");
    }
  }

  // Bit-pack the parity structure: per qubit, the mask of checks it flips
  // and whether it crosses the logical cut.
  const int num_checks = lattice.num_checks();
  std::vector<std::uint32_t> check_mask(static_cast<std::size_t>(n), 0);
  std::vector<std::uint8_t> logical_mask(static_cast<std::size_t>(n), 0);
  for (int q = 0; q < n; ++q) {
    for (int chk : lattice.qubit_checks(q)) {
      check_mask[static_cast<std::size_t>(q)] |= std::uint32_t{1}
                                                 << static_cast<unsigned>(chk);
    }
  }
  for (int r = 0; r < lattice.distance(); ++r) {
    logical_mask[static_cast<std::size_t>(lattice.horizontal_qubit(r, 0))] = 1;
  }
  // Every later layer is zero, so the first one is the final syndrome.
  std::uint32_t target = 0;
  const BitVec& syndrome = history.difference.front();
  for (int chk = 0; chk < num_checks; ++chk) {
    if (syndrome[static_cast<std::size_t>(chk)]) {
      target |= std::uint32_t{1} << static_cast<unsigned>(chk);
    }
  }

  // Enumerate all error patterns via Gray code so each step flips one
  // qubit: O(2^n) with O(1) work per pattern.
  const double log_ratio = std::log(p_ / (1.0 - p_));
  double class_mass[2] = {0.0, 0.0};
  int best_weight[2] = {n + 1, n + 1};
  std::uint64_t best_pattern[2] = {0, 0};

  std::uint32_t running_syndrome = 0;
  std::uint8_t running_logical = 0;
  int running_weight = 0;
  std::uint64_t pattern = 0;

  const std::uint64_t total = std::uint64_t{1} << static_cast<unsigned>(n);
  for (std::uint64_t i = 0;; ++i) {
    if (running_syndrome == target) {
      const int cls = running_logical;
      class_mass[cls] += std::exp(log_ratio * running_weight);
      if (running_weight < best_weight[cls]) {
        best_weight[cls] = running_weight;
        best_pattern[cls] = pattern;
      }
    }
    if (i + 1 == total) break;
    // Gray-code step: flip qubit = count of trailing ones of i.
    const int q = std::countr_zero(i + 1);
    const std::uint64_t bit = std::uint64_t{1} << static_cast<unsigned>(q);
    pattern ^= bit;
    running_syndrome ^= check_mask[static_cast<std::size_t>(q)];
    running_logical ^= logical_mask[static_cast<std::size_t>(q)];
    running_weight += (pattern & bit) ? 1 : -1;
  }

  const int winner = class_mass[1] > class_mass[0] ? 1 : 0;
  DecodeResult result;
  result.correction.assign(static_cast<std::size_t>(n), 0);
  for (int q = 0; q < n; ++q) {
    if (best_pattern[winner] & (std::uint64_t{1} << static_cast<unsigned>(q))) {
      result.correction[static_cast<std::size_t>(q)] = 1;
    }
  }
  result.work = total;
  return result;
}

}  // namespace qec
