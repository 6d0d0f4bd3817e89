#include "noise/circuit_level.hpp"

#include <array>
#include <stdexcept>

namespace qec {
namespace {

// Global CNOT schedule: every check touches its neighbours in this order;
// boundary-row checks idle in the steps where the neighbour is absent.
enum Step : int { kNorth = 0, kWest, kEast, kSouth, kStepCount };

// Neighbour data qubit of check (r, c) for a schedule step, or -1.
int step_partner(const PlanarLattice& lat, int r, int c, int step) {
  switch (step) {
    case kNorth: return r > 0 ? lat.vertical_qubit(r - 1, c) : -1;
    case kWest: return lat.horizontal_qubit(r, c);
    case kEast: return lat.horizontal_qubit(r, c + 1);
    case kSouth: return r < lat.distance() - 1 ? lat.vertical_qubit(r, c) : -1;
    default: return -1;
  }
}

}  // namespace

SyndromeHistory sample_circuit_history(const PlanarLattice& lattice,
                                       const CircuitNoiseParams& params,
                                       Xoshiro256ss& rng) {
  if (params.rounds < 1) throw std::invalid_argument("rounds must be >= 1");
  const double p = params.p;
  const double p_x_single = 2.0 * p / 3.0;       // depolarizing X component
  const double p_idle = p_x_single * params.idle_scale;
  const double p_cnot_class = 4.0 * p / 15.0;    // each of {XI, IX, XX}

  const int rows = lattice.check_rows();
  const int cols = lattice.check_cols();

  SyndromeHistory history;
  history.final_error.assign(static_cast<std::size_t>(lattice.num_data()), 0);
  history.difference.reserve(static_cast<std::size_t>(params.rounds) + 1);

  const auto checks = static_cast<std::size_t>(lattice.num_checks());
  std::vector<std::uint8_t> ancilla(checks, 0);
  BitVec measured(checks, 0);  // the previous round's measured syndrome
  std::vector<std::uint8_t> busy(static_cast<std::size_t>(lattice.num_data()),
                                 0);

  for (int round = 0; round < params.rounds; ++round) {
    // Ancilla reset noise.
    for (auto& a : ancilla) {
      a = static_cast<std::uint8_t>(rng.bernoulli(p_x_single));
    }
    for (int step = 0; step < kStepCount; ++step) {
      std::fill(busy.begin(), busy.end(), 0);
      for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
          const int q = step_partner(lattice, r, c, step);
          if (q < 0) continue;
          busy[static_cast<std::size_t>(q)] = 1;
          const std::size_t chk =
              static_cast<std::size_t>(lattice.check_index(r, c));
          // Ideal CNOT action: ancilla accumulates the data X-frame.
          ancilla[chk] = static_cast<std::uint8_t>(
              ancilla[chk] ^ history.final_error[static_cast<std::size_t>(q)]);
          // Two-qubit depolarizing, X components.
          if (rng.bernoulli(3.0 * p_cnot_class)) {
            switch (rng.below(3)) {
              case 0:  // XI: data only
                history.final_error[static_cast<std::size_t>(q)] ^= 1;
                break;
              case 1:  // IX: ancilla only
                ancilla[chk] ^= 1;
                break;
              default:  // XX
                history.final_error[static_cast<std::size_t>(q)] ^= 1;
                ancilla[chk] ^= 1;
                break;
            }
          }
        }
      }
      // Idle noise on data qubits not touched this step.
      if (p_idle > 0.0) {
        for (int q = 0; q < lattice.num_data(); ++q) {
          if (!busy[static_cast<std::size_t>(q)] && rng.bernoulli(p_idle)) {
            history.final_error[static_cast<std::size_t>(q)] ^= 1;
          }
        }
      }
    }
    // Measurement. `ancilla[chk]` carries the mid-circuit outcome: data
    // faults striking after their CNOT are legitimately invisible until the
    // next round (the space-time structure of circuit noise). The readout
    // itself may additionally lie.
    BitVec difference(checks, 0);
    for (std::size_t chk = 0; chk < checks; ++chk) {
      const auto meas = static_cast<std::uint8_t>(
          ancilla[chk] ^ static_cast<std::uint8_t>(rng.bernoulli(p)));
      difference[chk] = static_cast<std::uint8_t>(meas ^ measured[chk]);
      measured[chk] = meas;
    }
    history.difference.push_back(std::move(difference));
  }
  // Final perfect round.
  history.difference.push_back(
      xor_of(lattice.syndrome(history.final_error), measured));
  return history;
}

CircuitLocationCounts count_circuit_locations(const PlanarLattice& lattice) {
  CircuitLocationCounts counts;
  counts.resets = lattice.num_checks();
  counts.measurements = lattice.num_checks();
  for (int r = 0; r < lattice.check_rows(); ++r) {
    for (int c = 0; c < lattice.check_cols(); ++c) {
      for (int step = 0; step < kStepCount; ++step) {
        if (step_partner(lattice, r, c, step) >= 0) ++counts.cnots;
      }
    }
  }
  counts.idle_slots = kStepCount * lattice.num_data() - counts.cnots;
  return counts;
}

}  // namespace qec
