// Tests for the phenomenological noise model and syndrome histories.
#include "noise/phenomenological.hpp"

#include <gtest/gtest.h>

#include "surface_code/pauli_frame.hpp"

namespace qec {
namespace {

/// The measured-syndrome sequence: the running XOR of the difference
/// layers. Its last entry is the final perfect round's syndrome.
std::vector<BitVec> running_xor(const SyndromeHistory& h) {
  std::vector<BitVec> measured;
  for (const auto& layer : h.difference) {
    measured.push_back(measured.empty() ? layer
                                        : xor_of(layer, measured.back()));
  }
  return measured;
}

TEST(Noise, NoNoiseGivesCleanHistory) {
  const PlanarLattice lat(5);
  Xoshiro256ss rng(1);
  const auto h = sample_history(lat, {0.0, 0.0, 5}, rng);
  EXPECT_EQ(h.total_rounds(), 6);  // 5 noisy + 1 perfect
  EXPECT_TRUE(is_zero(h.final_error));
  for (const auto& layer : h.difference) EXPECT_TRUE(is_zero(layer));
  EXPECT_EQ(defect_count(h), 0);
}

TEST(Noise, RejectsZeroRounds) {
  const PlanarLattice lat(3);
  Xoshiro256ss rng(1);
  EXPECT_THROW(sample_history(lat, {0.1, 0.1, 0}, rng),
               std::invalid_argument);
}

TEST(Noise, FinalRoundIsPerfect) {
  const PlanarLattice lat(5);
  Xoshiro256ss rng(2);
  const auto h = sample_history(lat, {0.05, 0.05, 5}, rng);
  // Last measured layer must equal the true syndrome of the final error.
  EXPECT_EQ(running_xor(h).back(), lat.syndrome(h.final_error));
}

TEST(Noise, DifferenceSyndromesInvertTheRunningXor) {
  const PlanarLattice lat(7);
  Xoshiro256ss rng(3);
  const auto h = sample_history(lat, {0.03, 0.03, 7}, rng);
  EXPECT_GT(defect_count(h), 0);
  EXPECT_EQ(difference_syndromes(running_xor(h)), h.difference);
}

TEST(Noise, MeasurementNoiseOnlyLeavesDataClean) {
  const PlanarLattice lat(5);
  Xoshiro256ss rng(4);
  const auto h = sample_history(lat, {0.0, 0.2, 10}, rng);
  EXPECT_TRUE(is_zero(h.final_error));
  // With no data errors, every defect comes in a vertical pair: the total
  // per-check defect parity over all layers must be even.
  BitVec acc(static_cast<std::size_t>(lat.num_checks()), 0);
  for (const auto& layer : h.difference) xor_into(layer, acc);
  EXPECT_TRUE(is_zero(acc));
  // And with p_meas = 0.2 over 10 rounds some defects must exist.
  EXPECT_GT(defect_count(h), 0);
}

TEST(Noise, DataNoiseCreatesMatchingSyndrome) {
  const PlanarLattice lat(5);
  Xoshiro256ss rng(5);
  const auto h = sample_history(lat, {0.1, 0.0, 3}, rng);
  // With perfect measurement, every measured layer is the true syndrome of
  // the accumulated error — in particular each is a valid syndrome.
  for (const auto& layer : h.difference) {
    EXPECT_EQ(layer.size(), static_cast<std::size_t>(lat.num_checks()));
  }
  EXPECT_EQ(running_xor(h).back(), lat.syndrome(h.final_error));
}

TEST(Noise, DeterministicGivenRngState) {
  const PlanarLattice lat(5);
  Xoshiro256ss rng1(42), rng2(42);
  const auto a = sample_history(lat, {0.02, 0.02, 5}, rng1);
  const auto b = sample_history(lat, {0.02, 0.02, 5}, rng2);
  EXPECT_EQ(a.final_error, b.final_error);
  EXPECT_EQ(a.difference, b.difference);
}

TEST(Noise, ErrorRateRoughlyMatchesP) {
  const PlanarLattice lat(9);
  Xoshiro256ss rng(6);
  const double p = 0.05;
  const int rounds = 1;
  int flips = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    const auto h = sample_history(lat, {p, 0.0, rounds}, rng);
    flips += weight(h.final_error);
  }
  const double expected = p * lat.num_data();
  EXPECT_NEAR(static_cast<double>(flips) / trials, expected,
              0.05 * expected + 0.5);
}

TEST(Noise, DifferenceSyndromesStandalone) {
  std::vector<BitVec> measured = {{0, 1, 0}, {1, 1, 0}, {1, 0, 0}};
  const auto diff = difference_syndromes(measured);
  ASSERT_EQ(diff.size(), 3u);
  EXPECT_EQ(diff[0], (BitVec{0, 1, 0}));
  EXPECT_EQ(diff[1], (BitVec{1, 0, 0}));
  EXPECT_EQ(diff[2], (BitVec{0, 1, 0}));
}

class NoiseSweep : public ::testing::TestWithParam<int> {};

TEST_P(NoiseSweep, HistoriesAreInternallyConsistent) {
  const int d = GetParam();
  const PlanarLattice lat(d);
  Xoshiro256ss rng(1000u + static_cast<unsigned>(d));
  for (int trial = 0; trial < 20; ++trial) {
    const auto h = sample_history(lat, {0.02, 0.02, d}, rng);
    ASSERT_EQ(h.total_rounds(), d + 1);
    ASSERT_EQ(static_cast<int>(h.final_error.size()), lat.num_data());
    for (const auto& layer : h.difference) {
      ASSERT_EQ(layer.size(), static_cast<std::size_t>(lat.num_checks()));
    }
    // The prefix XOR of the difference layers ends on the final perfect
    // round: the syndrome of the accumulated error.
    ASSERT_EQ(running_xor(h).back(), lat.syndrome(h.final_error));
  }
}

INSTANTIATE_TEST_SUITE_P(Distances, NoiseSweep, ::testing::Values(3, 5, 7, 9),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace qec
