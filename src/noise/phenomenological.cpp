#include "noise/phenomenological.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace qec {

namespace {

/// One hoisted Bernoulli trial: bernoulli(p) as an integer compare, or no
/// draw at all where bernoulli(p) consumes none (p <= 0, p >= 1).
inline bool toss(Xoshiro256ss& rng, bool draws, std::uint64_t threshold) {
  return draws ? (rng() >> 11) < threshold : threshold != 0;
}

}  // namespace

PhenomenologicalSampler::PhenomenologicalSampler(const PlanarLattice& lattice,
                                                 const NoiseParams& params)
    : lattice_(lattice),
      rounds_(params.rounds),
      data_threshold_(Xoshiro256ss::bernoulli_threshold(params.p_data)),
      meas_threshold_(Xoshiro256ss::bernoulli_threshold(params.p_meas)),
      data_draws_(Xoshiro256ss::bernoulli_draws(params.p_data)),
      meas_draws_(Xoshiro256ss::bernoulli_draws(params.p_meas)),
      error_(static_cast<std::size_t>(lattice.num_data()), 0),
      syndrome_(static_cast<std::size_t>(lattice.num_checks())),
      measured_(static_cast<std::size_t>(lattice.num_checks())) {
  if (params.rounds < 1) throw std::invalid_argument("rounds must be >= 1");
}

void PhenomenologicalSampler::next_round(Xoshiro256ss& rng,
                                         PackedBits& difference) {
  assert(round_ <= rounds_);
  assert(difference.size() == measured_.size());
  const bool noisy = round_++ < rounds_;
  // Draw on a local copy, written back once: the byte stores into error_
  // may alias anything, which would otherwise force the generator state
  // through memory on every draw.
  Xoshiro256ss gen = rng;
  if (noisy) {
    const bool draws = data_draws_;
    const std::uint64_t threshold = data_threshold_;
    std::uint8_t* error = error_.data();
    const int num_data = lattice_.num_data();
    for (int q = 0; q < num_data; ++q) {
      if (!toss(gen, draws, threshold)) continue;
      error[q] ^= 1;
      for (const int c : lattice_.qubit_checks(q)) {
        syndrome_.flip(static_cast<std::size_t>(c));
      }
    }
  }
  const std::size_t checks = measured_.size();
  for (std::size_t w = 0; w < measured_.num_words(); ++w) {
    std::uint64_t flips = 0;
    if (noisy) {
      const std::size_t bits = std::min<std::size_t>(64, checks - 64 * w);
      for (std::size_t b = 0; b < bits; ++b) {
        flips |= std::uint64_t{toss(gen, meas_draws_, meas_threshold_)} << b;
      }
    }
    const std::uint64_t meas = syndrome_.word(w) ^ flips;
    difference.set_word(w, meas ^ measured_.word(w));
    measured_.set_word(w, meas);
  }
  rng = gen;
}

SyndromeHistory sample_history(const PlanarLattice& lattice,
                               const NoiseParams& params, Xoshiro256ss& rng) {
  PhenomenologicalSampler sampler(lattice, params);
  SyndromeHistory history;
  const auto stored = static_cast<std::size_t>(sampler.stored_rounds());
  history.measured.reserve(stored);
  history.difference.reserve(stored);
  PackedBits difference(static_cast<std::size_t>(lattice.num_checks()));
  for (std::size_t t = 0; t < stored; ++t) {
    sampler.next_round(rng, difference);
    history.measured.push_back(sampler.measured().to_bits());
    history.difference.push_back(difference.to_bits());
  }
  history.final_error = sampler.take_error();
  return history;
}

std::vector<BitVec> difference_syndromes(const std::vector<BitVec>& measured) {
  std::vector<BitVec> diff;
  diff.reserve(measured.size());
  for (std::size_t t = 0; t < measured.size(); ++t) {
    if (t == 0) {
      diff.push_back(measured[0]);
    } else {
      diff.push_back(xor_of(measured[t], measured[t - 1]));
    }
  }
  return diff;
}

std::vector<BitVec> accumulate_differences(
    const std::vector<BitVec>& difference) {
  std::vector<BitVec> measured;
  measured.reserve(difference.size());
  for (std::size_t t = 0; t < difference.size(); ++t) {
    if (t == 0) {
      measured.push_back(difference[0]);
    } else {
      measured.push_back(xor_of(difference[t], measured[t - 1]));
    }
  }
  return measured;
}

int defect_count(const SyndromeHistory& history) {
  int count = 0;
  for (const auto& layer : history.difference) count += weight(layer);
  return count;
}

}  // namespace qec
