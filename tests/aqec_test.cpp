// Tests for the AQEC (agreement-based) decoder.
#include "aqec/aqec_decoder.hpp"

#include <gtest/gtest.h>

#include "decoder/decoder.hpp"
#include "noise/phenomenological.hpp"
#include "surface_code/pauli_frame.hpp"

namespace qec {
namespace {

SyndromeHistory history_from_error(const PlanarLattice& lat,
                                   const BitVec& error) {
  SyndromeHistory h;
  h.final_error = error;
  h.difference =
      difference_syndromes({lat.syndrome(error), lat.syndrome(error)});
  return h;
}

TEST(AqecAgreement, MutualPairMatchesInOneRound) {
  const PlanarLattice lat(5);
  std::vector<Defect> defects = {{1, 1, 0}, {1, 2, 0}};
  const auto pairs = AqecDecoder::agreement_round(lat, defects, 1);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_FALSE(pairs[0].to_boundary);
  EXPECT_TRUE(defects.empty());
}

TEST(AqecAgreement, NonMutualWaits) {
  const PlanarLattice lat(9);
  // Colinear defects spaced 1,2: middle prefers the nearer neighbour.
  // (2,2)-(2,3) mutual; (2,5) waits (its best is (2,3) at distance 2 > 1).
  std::vector<Defect> defects = {{2, 2, 0}, {2, 3, 0}, {2, 5, 0}};
  const auto pairs = AqecDecoder::agreement_round(lat, defects, 1);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(defects.size(), 1u);
  EXPECT_EQ(defects[0].col, 5);
}

TEST(AqecAgreement, BoundaryAlwaysAgrees) {
  const PlanarLattice lat(5);
  std::vector<Defect> defects = {{0, 0, 0}};  // distance 1 from left edge
  const auto pairs = AqecDecoder::agreement_round(lat, defects, 1);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_TRUE(pairs[0].to_boundary);
}

TEST(AqecAgreement, PartnerPreferredOverBoundaryAtEqualDistance) {
  const PlanarLattice lat(5);
  std::vector<Defect> defects = {{2, 0, 0}, {2, 1, 0}};  // both 1 from a wall
  const auto pairs = AqecDecoder::agreement_round(lat, defects, 1);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_FALSE(pairs[0].to_boundary);
}

TEST(AqecDecoder, CorrectsEverySingleDataError) {
  const PlanarLattice lat(5);
  AqecDecoder dec;
  for (int q = 0; q < lat.num_data(); ++q) {
    BitVec err(static_cast<std::size_t>(lat.num_data()), 0);
    err[static_cast<std::size_t>(q)] = 1;
    const auto h = history_from_error(lat, err);
    const auto r = dec.decode(lat, h);
    ASSERT_TRUE(residual_syndrome_free(lat, h, r)) << "qubit " << q;
    EXPECT_FALSE(logical_failure(lat, h, r)) << "qubit " << q;
  }
}

class AqecRandom : public ::testing::TestWithParam<int> {};

TEST_P(AqecRandom, AlwaysProducesValidCorrection) {
  const int d = GetParam();
  const PlanarLattice lat(d);
  Xoshiro256ss rng(7u * static_cast<unsigned>(d) + 1);
  AqecDecoder dec;
  for (int trial = 0; trial < 50; ++trial) {
    // Code-capacity setting (AQEC's native 2-D regime).
    const auto h = sample_history(lat, {0.05, 0.0, 1}, rng);
    const auto r = dec.decode(lat, h);
    ASSERT_TRUE(residual_syndrome_free(lat, h, r)) << "trial " << trial;
  }
}

TEST_P(AqecRandom, HandlesNoisyMeasurementsToo) {
  // Not AQEC's design point (Table V: not directly applicable to 3-D), but
  // the implementation must still terminate with a valid correction.
  const int d = GetParam();
  const PlanarLattice lat(d);
  Xoshiro256ss rng(11u * static_cast<unsigned>(d) + 3);
  AqecDecoder dec;
  for (int trial = 0; trial < 20; ++trial) {
    const auto h = sample_history(lat, {0.02, 0.02, d}, rng);
    const auto r = dec.decode(lat, h);
    ASSERT_TRUE(residual_syndrome_free(lat, h, r)) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Distances, AqecRandom, ::testing::Values(3, 5, 7),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace qec
