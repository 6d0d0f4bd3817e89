// Phenomenological noise model (Dennis et al. 2002), the error model the
// paper uses for every accuracy result: in each measurement round every data
// qubit flips independently with probability p_data, and every ancilla
// measurement outcome is reported incorrectly with probability p_meas. The
// paper sets p_data = p_meas = p.
//
// A SyndromeHistory carries both what the decoder is allowed to see (the
// difference syndromes, i.e. the detection events) and the ground truth
// needed to score the trial (the accumulated physical error).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "surface_code/pauli_frame.hpp"
#include "surface_code/planar_lattice.hpp"

namespace qec {

struct NoiseParams {
  double p_data = 0.0;
  double p_meas = 0.0;
  /// Noisy measurement rounds. A final, perfect round is always appended so
  /// the logical observable is well-defined (standard practice; see
  /// DESIGN.md).
  int rounds = 1;
};

struct SyndromeHistory {
  /// Total stored rounds = params.rounds + 1 (the final perfect round).
  int total_rounds() const { return static_cast<int>(difference.size()); }

  /// difference[t][check] = measured[t] XOR measured[t-1] (measured[-1]=0),
  /// where measured[t] is the syndrome the hardware reported in round t:
  /// the defect indicator each decoder matches on, and the value QECOOL
  /// Units push into their Reg queues. The running XOR of the layers is
  /// the measured sequence; after the final perfect round it equals the
  /// syndrome of final_error.
  std::vector<BitVec> difference;

  /// Ground truth: accumulated data error after the last round.
  BitVec final_error;
};

/// The phenomenological sampling kernel: sample_history and the stream
/// recorder (record_trace) both draw through it, so the model has one
/// sampling loop. It streams one memory experiment round by round and
/// emits each round's difference layer as packed words.
///
/// The draw sequence is the original byte-per-bit one: per noisy round,
/// one bernoulli(p_data) per data qubit in index order, then one
/// bernoulli(p_meas) per check in index order; the final perfect round
/// draws nothing. The probabilities are hoisted into integer thresholds
/// (Xoshiro256ss::bernoulli_threshold), the syndrome is kept as a running
/// packed XOR of each flipped qubit's checks, a measured layer is that
/// syndrome XOR the packed measurement flips, and the emitted difference
/// layer is that measured layer XOR the previous one.
class PhenomenologicalSampler {
 public:
  /// Throws std::invalid_argument when params.rounds < 1.
  PhenomenologicalSampler(const PlanarLattice& lattice,
                          const NoiseParams& params);

  /// Stored rounds: params.rounds noisy rounds plus the final perfect one.
  int stored_rounds() const { return rounds_ + 1; }

  /// Samples the next stored round and overwrites `difference` (sized
  /// num_checks) with its difference layer. Call stored_rounds() times.
  void next_round(Xoshiro256ss& rng, PackedBits& difference);

  /// Accumulated data error so far; after the last round, the ground truth.
  BitVec take_error() { return std::move(error_); }

 private:
  const PlanarLattice& lattice_;
  int rounds_;
  int round_ = 0;
  std::uint64_t data_threshold_;
  std::uint64_t meas_threshold_;
  bool data_draws_;
  bool meas_draws_;
  BitVec error_;
  PackedBits syndrome_;  ///< syndrome of error_
  PackedBits measured_;  ///< measured syndrome of the round last sampled
};

/// Samples one memory-experiment history (byte-per-bit, via the kernel).
SyndromeHistory sample_history(const PlanarLattice& lattice,
                               const NoiseParams& params, Xoshiro256ss& rng);

/// Computes difference syndromes from a measured-syndrome sequence: the
/// one way to build a history from externally measured data (and tests).
std::vector<BitVec> difference_syndromes(const std::vector<BitVec>& measured);

/// Total number of defects (set difference-syndrome bits) in a history.
int defect_count(const SyndromeHistory& history);

}  // namespace qec
