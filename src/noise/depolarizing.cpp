#include "noise/depolarizing.hpp"

#include <stdexcept>
#include <utility>

namespace qec {

TwoSectorHistory sample_depolarizing_history(const PlanarLattice& lattice,
                                             const DepolarizingParams& params,
                                             Xoshiro256ss& rng) {
  if (params.rounds < 1) throw std::invalid_argument("rounds must be >= 1");
  TwoSectorHistory history;
  // Per sector, the previous round's measured syndrome: each round emits
  // its measured layer XOR that one.
  struct Sector {
    SyndromeHistory& history;
    BitVec measured;
    void push_round(BitVec meas) {
      history.difference.push_back(xor_of(meas, measured));
      measured = std::move(meas);
    }
  };
  const auto checks = static_cast<std::size_t>(lattice.num_checks());
  Sector sectors[] = {{history.x, BitVec(checks, 0)},
                      {history.z, BitVec(checks, 0)}};
  for (Sector& s : sectors) {
    s.history.final_error.assign(static_cast<std::size_t>(lattice.num_data()),
                                 0);
  }

  for (int t = 0; t < params.rounds; ++t) {
    for (int q = 0; q < lattice.num_data(); ++q) {
      if (!rng.bernoulli(params.p)) continue;
      // Uniform over {X, Y, Z}; Y strikes both sectors (the correlation the
      // paper's independent-sector argument must survive).
      switch (rng.below(3)) {
        case 0:  // X
          history.x.final_error[static_cast<std::size_t>(q)] ^= 1;
          break;
        case 1:  // Y
          history.x.final_error[static_cast<std::size_t>(q)] ^= 1;
          history.z.final_error[static_cast<std::size_t>(q)] ^= 1;
          break;
        default:  // Z
          history.z.final_error[static_cast<std::size_t>(q)] ^= 1;
          break;
      }
    }
    for (Sector& s : sectors) {
      BitVec meas = lattice.syndrome(s.history.final_error);
      for (auto& bit : meas) {
        bit ^= static_cast<std::uint8_t>(rng.bernoulli(params.p_meas));
      }
      s.push_round(std::move(meas));
    }
  }
  for (Sector& s : sectors) {
    s.push_round(lattice.syndrome(s.history.final_error));
  }
  return history;
}

}  // namespace qec
