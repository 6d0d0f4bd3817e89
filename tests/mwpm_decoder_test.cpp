// Tests for the MWPM decoder on the space-time matching graph.
#include "mwpm/mwpm_decoder.hpp"

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

TEST(MwpmDecoder, EmptyHistoryGivesEmptyCorrection) {
  const PlanarLattice lat(5);
  const BitVec none(static_cast<std::size_t>(lat.num_data()), 0);
  MwpmDecoder dec;
  const auto r = dec.decode(lat, history_from_error(lat, none));
  EXPECT_TRUE(is_zero(r.correction));
  EXPECT_EQ(r.work, 0u);
}

TEST(MwpmDecoder, CorrectsEverySingleDataError) {
  const PlanarLattice lat(5);
  MwpmDecoder dec;
  for (int q = 0; q < lat.num_data(); ++q) {
    BitVec err(static_cast<std::size_t>(lat.num_data()), 0);
    err[static_cast<std::size_t>(q)] = 1;
    const auto h = history_from_error(lat, err);
    const auto r = dec.decode(lat, h);
    EXPECT_TRUE(residual_syndrome_free(lat, h, r)) << "qubit " << q;
    EXPECT_FALSE(logical_failure(lat, h, r)) << "qubit " << q;
  }
}

TEST(MwpmDecoder, CorrectsEveryTwoQubitError) {
  const PlanarLattice lat(5);
  MwpmDecoder dec;
  int failures = 0;
  for (int a = 0; a < lat.num_data(); ++a) {
    for (int b = a + 1; b < lat.num_data(); ++b) {
      BitVec err(static_cast<std::size_t>(lat.num_data()), 0);
      err[static_cast<std::size_t>(a)] = 1;
      err[static_cast<std::size_t>(b)] = 1;
      const auto h = history_from_error(lat, err);
      const auto r = dec.decode(lat, h);
      ASSERT_TRUE(residual_syndrome_free(lat, h, r))
          << "qubits " << a << "," << b;
      failures += logical_failure(lat, h, r);
    }
  }
  // Weight-2 errors are strictly below half the distance (d=5), so exact
  // MWPM never mis-decodes them.
  EXPECT_EQ(failures, 0);
}

TEST(MwpmDecoder, MeasurementErrorOnlyNeedsNoDataCorrection) {
  const PlanarLattice lat(5);
  // A single flipped measurement at round 1 creates a vertical defect pair;
  // optimal matching pairs them in time with zero data correction.
  SyndromeHistory h;
  h.final_error.assign(static_cast<std::size_t>(lat.num_data()), 0);
  BitVec clean(static_cast<std::size_t>(lat.num_checks()), 0);
  BitVec flipped = clean;
  flipped[7] = 1;
  h.difference = difference_syndromes({clean, flipped, clean, clean});
  MwpmDecoder dec;
  const auto r = dec.decode(lat, h);
  EXPECT_TRUE(is_zero(r.correction));
}

TEST(MwpmDecoder, MatchesDefectsAcrossTime) {
  const PlanarLattice lat(5);
  // Data error in round 0 whose left defect is masked by a measurement
  // error in round 0: the left defect appears only in round 1. MWPM must
  // still recover a correction equivalent to the single data error.
  BitVec err(static_cast<std::size_t>(lat.num_data()), 0);
  const int q = lat.horizontal_qubit(2, 2);  // interior: two checks
  err[static_cast<std::size_t>(q)] = 1;
  BitVec synd = lat.syndrome(err);
  BitVec masked = synd;
  const int left_check = lat.qubit_checks(q)[0];
  masked[static_cast<std::size_t>(left_check)] ^= 1;
  SyndromeHistory h;
  h.final_error = err;
  h.difference = difference_syndromes({masked, synd, synd});
  MwpmDecoder dec;
  const auto r = dec.decode(lat, h);
  EXPECT_TRUE(residual_syndrome_free(lat, h, r));
  EXPECT_FALSE(logical_failure(lat, h, r));
}

TEST(MwpmDecoder, MatchDefectsExposesPairs) {
  const PlanarLattice lat(5);
  const std::vector<Defect> defects = {{1, 1, 0}, {1, 2, 0}};
  const auto pairs = MwpmDecoder::match_defects(lat, defects);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_FALSE(pairs[0].to_boundary);
}

TEST(MwpmDecoder, FarApartDefectsPreferBoundaries) {
  const PlanarLattice lat(9);
  // Two defects hugging opposite boundaries: boundary matching (cost 1+1)
  // beats pairing them (cost 6).
  const std::vector<Defect> defects = {{4, 0, 0}, {4, 7, 0}};
  const auto pairs = MwpmDecoder::match_defects(lat, defects);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_TRUE(pairs[0].to_boundary);
  EXPECT_TRUE(pairs[1].to_boundary);
}

TEST(MwpmDecoder, OddDefectCountUsesBoundaryOnce) {
  const PlanarLattice lat(5);
  const std::vector<Defect> defects = {{0, 0, 0}, {0, 1, 0}, {4, 3, 2}};
  const auto pairs = MwpmDecoder::match_defects(lat, defects);
  int boundary = 0, pairwise = 0;
  for (const auto& p : pairs) (p.to_boundary ? boundary : pairwise)++;
  EXPECT_EQ(boundary, 1);
  EXPECT_EQ(pairwise, 1);
}

class MwpmRandomHistories : public ::testing::TestWithParam<int> {};

TEST_P(MwpmRandomHistories, ResidualAlwaysSyndromeFree) {
  const int d = GetParam();
  const PlanarLattice lat(d);
  Xoshiro256ss rng(31u * static_cast<unsigned>(d));
  MwpmDecoder dec;
  for (int trial = 0; trial < 40; ++trial) {
    const auto h = sample_history(lat, {0.03, 0.03, d}, rng);
    const auto r = dec.decode(lat, h);
    ASSERT_TRUE(residual_syndrome_free(lat, h, r)) << "trial " << trial;
  }
}

TEST_P(MwpmRandomHistories, CorrectionWeightBoundedByMatchingWeight) {
  const int d = GetParam();
  const PlanarLattice lat(d);
  Xoshiro256ss rng(77u * static_cast<unsigned>(d));
  MwpmDecoder dec;
  for (int trial = 0; trial < 20; ++trial) {
    const auto h = sample_history(lat, {0.02, 0.02, d}, rng);
    const auto r = dec.decode(lat, h);
    // Spatial correction weight can never exceed total path length, which
    // is bounded by defects * max distance.
    const int defects = defect_count(h);
    EXPECT_LE(weight(r.correction), defects * (2 * d + h.total_rounds()));
  }
}

INSTANTIATE_TEST_SUITE_P(Distances, MwpmRandomHistories,
                         ::testing::Values(3, 5, 7),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace qec
