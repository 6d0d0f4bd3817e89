// Tests for the QECOOL engine: Reg queue mechanics, token/spike matching
// semantics, cycle accounting, and the batch decoder built on top.
#include "qecool/engine.hpp"

#include <gtest/gtest.h>

#include "decoder/decoder.hpp"
#include "noise/phenomenological.hpp"
#include "qecool/qecool_decoder.hpp"
#include "surface_code/pauli_frame.hpp"

namespace qec {
namespace {

PackedBits layer_with(const PlanarLattice& lat,
                      std::vector<CheckCoord> coords) {
  PackedBits layer(static_cast<std::size_t>(lat.num_checks()));
  for (const auto& c : coords) {
    layer.set(static_cast<std::size_t>(lat.check_index(c.row, c.col)));
  }
  return layer;
}

QecoolConfig batch_config(int reg_depth) {
  QecoolConfig config;
  config.thv = -1;
  config.reg_depth = reg_depth;
  return config;
}

TEST(QecoolEngine, PushPopMechanics) {
  const PlanarLattice lat(5);
  QecoolEngine engine(lat, batch_config(3));
  const PackedBits clean(static_cast<std::size_t>(lat.num_checks()));
  EXPECT_TRUE(engine.push_layer(clean));
  EXPECT_TRUE(engine.push_layer(clean));
  EXPECT_TRUE(engine.push_layer(clean));
  EXPECT_FALSE(engine.push_layer(clean)) << "4th push must overflow depth 3";
  EXPECT_EQ(engine.stored_layers(), 3);
  engine.run(QecoolEngine::kUnlimited);
  EXPECT_EQ(engine.stored_layers(), 0);
  EXPECT_EQ(engine.popped_layers(), 3);
  EXPECT_TRUE(engine.all_clear());
}

TEST(QecoolEngine, CleanLayerCostsAboutOnePass) {
  // Row master skips every clean row: cost ~ rows + pass overhead + pop.
  const PlanarLattice lat(5);
  QecoolEngine engine(lat, batch_config(1));
  engine.push_layer(PackedBits(static_cast<std::size_t>(lat.num_checks())));
  engine.run(QecoolEngine::kUnlimited);
  ASSERT_EQ(engine.layer_cycles().size(), 1u);
  EXPECT_EQ(engine.layer_cycles()[0], 5u + 1u + 1u);
}

TEST(QecoolEngine, FastPathCountersTrackCleanPushesAndRuns) {
  const PlanarLattice lat(5);
  QecoolEngine engine(lat, batch_config(4));
  const PackedBits clean(static_cast<std::size_t>(lat.num_checks()));
  PackedBits defect = clean;
  defect.set(0);
  engine.push_layer(clean);
  engine.push_layer(clean);
  engine.run(QecoolEngine::kUnlimited);  // all clear: the analytic path
  EXPECT_EQ(engine.engine_stats().zero_pushes, 2u);
  EXPECT_EQ(engine.engine_stats().zero_rounds, 1u);
  engine.push_layer(defect);
  engine.run(QecoolEngine::kUnlimited);  // a defect: the scan
  EXPECT_EQ(engine.engine_stats().zero_pushes, 2u);
  EXPECT_EQ(engine.engine_stats().zero_rounds, 1u);
  engine.run(QecoolEngine::kUnlimited);  // nothing stored: no run at all
  EXPECT_EQ(engine.engine_stats().zero_rounds, 1u);
  EXPECT_TRUE(engine.all_clear());
}

TEST(QecoolEngine, AdjacentPairMatchesAtHopLimitOne) {
  const PlanarLattice lat(5);
  QecoolEngine engine(lat, batch_config(1));
  engine.push_layer(layer_with(lat, {{2, 1}, {2, 2}}));
  engine.run(QecoolEngine::kUnlimited);
  EXPECT_TRUE(engine.all_clear());
  EXPECT_EQ(engine.match_stats().pair_matches, 1u);
  EXPECT_EQ(engine.match_stats().boundary_matches, 0u);
  // The correction is exactly the data qubit between the two checks.
  BitVec expected(static_cast<std::size_t>(lat.num_data()), 0);
  expected[static_cast<std::size_t>(lat.horizontal_qubit(2, 2))] = 1;
  EXPECT_EQ(engine.correction(), expected);
}

TEST(QecoolEngine, VerticalPairSelfMatchesWithoutCorrection) {
  // A measurement error: same Unit flagged in consecutive layers.
  const PlanarLattice lat(5);
  QecoolEngine engine(lat, batch_config(2));
  engine.push_layer(layer_with(lat, {{1, 2}}));
  engine.push_layer(layer_with(lat, {{1, 2}}));
  engine.run(QecoolEngine::kUnlimited);
  EXPECT_TRUE(engine.all_clear());
  EXPECT_EQ(engine.match_stats().self_matches, 1u);
  EXPECT_TRUE(is_zero(engine.correction()));
}

TEST(QecoolEngine, LoneDefectMatchesNearestBoundary) {
  const PlanarLattice lat(5);
  {
    QecoolEngine engine(lat, batch_config(1));
    engine.push_layer(layer_with(lat, {{2, 0}}));  // 1 hop from left wall
    engine.run(QecoolEngine::kUnlimited);
    EXPECT_EQ(engine.match_stats().boundary_matches, 1u);
    BitVec expected(static_cast<std::size_t>(lat.num_data()), 0);
    expected[static_cast<std::size_t>(lat.horizontal_qubit(2, 0))] = 1;
    EXPECT_EQ(engine.correction(), expected);
  }
  {
    QecoolEngine engine(lat, batch_config(1));
    engine.push_layer(layer_with(lat, {{2, 3}}));  // 1 hop from right wall
    engine.run(QecoolEngine::kUnlimited);
    BitVec expected(static_cast<std::size_t>(lat.num_data()), 0);
    expected[static_cast<std::size_t>(lat.horizontal_qubit(2, 4))] = 1;
    EXPECT_EQ(engine.correction(), expected);
  }
}

TEST(QecoolEngine, UnitBeatsBoundaryAtEqualDistance) {
  // Defects at (2,0) and (2,1): each is 1 hop from the other; (2,0) is also
  // 1 hop from the left wall. Deprioritization makes the pair win.
  const PlanarLattice lat(5);
  QecoolEngine engine(lat, batch_config(1));
  engine.push_layer(layer_with(lat, {{2, 0}, {2, 1}}));
  engine.run(QecoolEngine::kUnlimited);
  EXPECT_EQ(engine.match_stats().pair_matches, 1u);
  EXPECT_EQ(engine.match_stats().boundary_matches, 0u);
}

TEST(QecoolEngine, BoundaryWinsWithoutDeprioritization) {
  const PlanarLattice lat(5);
  QecoolConfig config = batch_config(1);
  config.deprioritize_boundary = false;
  QecoolEngine engine(lat, config);
  engine.push_layer(layer_with(lat, {{2, 0}, {2, 1}}));
  engine.run(QecoolEngine::kUnlimited);
  // Sink (2,0): boundary (West, port rank 0) now ties the unit spike from
  // the East and wins on port priority.
  EXPECT_EQ(engine.match_stats().boundary_matches, 2u);
  EXPECT_EQ(engine.match_stats().pair_matches, 0u);
}

TEST(QecoolEngine, HopLimitEscalationFindsDistantPair) {
  const PlanarLattice lat(9);
  QecoolEngine engine(lat, batch_config(1));
  engine.push_layer(layer_with(lat, {{4, 2}, {4, 5}}));  // distance 3
  engine.run(QecoolEngine::kUnlimited);
  // Each defect is 3 hops from its partner and 3+ hops from the nearest
  // wall; deprioritization breaks the tie for (4,2) (left wall at 3) in
  // favour of the partner.
  EXPECT_EQ(engine.match_stats().pair_matches, 1u);
  EXPECT_TRUE(engine.all_clear());
}

TEST(QecoolEngine, MixedSpaceTimeMatch) {
  // Defect at (2,1) layer 0 and (2,2) layer 1: arrival = 1 hop + 1 depth.
  const PlanarLattice lat(5);
  QecoolEngine engine(lat, batch_config(2));
  engine.push_layer(layer_with(lat, {{2, 1}}));
  engine.push_layer(layer_with(lat, {{2, 2}}));
  engine.run(QecoolEngine::kUnlimited);
  EXPECT_TRUE(engine.all_clear());
  EXPECT_EQ(engine.match_stats().pair_matches, 1u);
  ASSERT_GE(engine.match_stats().vertical_hist.size(), 2u);
  EXPECT_EQ(engine.match_stats().vertical_hist[1], 1u);
  // Correction still flips the single spatial edge between the checks.
  BitVec expected(static_cast<std::size_t>(lat.num_data()), 0);
  expected[static_cast<std::size_t>(lat.horizontal_qubit(2, 2))] = 1;
  EXPECT_EQ(engine.correction(), expected);
}

TEST(QecoolEngine, ThvGatesDecoding) {
  const PlanarLattice lat(5);
  QecoolConfig config;
  config.thv = 3;
  config.reg_depth = 7;
  QecoolEngine engine(lat, config);
  engine.push_layer(layer_with(lat, {{2, 1}, {2, 2}}));
  // Only 1 stored layer: m - b = 1 <= thv, so the engine must idle.
  EXPECT_EQ(engine.run(QecoolEngine::kUnlimited), 0u);
  EXPECT_FALSE(engine.all_clear());
  const PackedBits clean(static_cast<std::size_t>(lat.num_checks()));
  engine.push_layer(clean);
  engine.push_layer(clean);
  EXPECT_EQ(engine.run(QecoolEngine::kUnlimited), 0u) << "m=3 still gated";
  engine.push_layer(clean);
  engine.run(QecoolEngine::kUnlimited);  // m=4 > thv: now decodable
  EXPECT_TRUE(engine.all_clear());
  EXPECT_EQ(engine.match_stats().pair_matches, 1u);
}

TEST(QecoolEngine, BudgetedRunsResumeAndMatchUnbudgeted) {
  const PlanarLattice lat(7);
  Xoshiro256ss rng(123);
  const auto h = sample_history(lat, {0.03, 0.03, 7}, rng);

  QecoolEngine full(lat, batch_config(h.total_rounds()));
  for (const auto& layer : h.difference) {
    full.push_layer(PackedBits::from_bits(layer));
  }
  full.run(QecoolEngine::kUnlimited);

  QecoolEngine sliced(lat, batch_config(h.total_rounds()));
  for (const auto& layer : h.difference) {
    sliced.push_layer(PackedBits::from_bits(layer));
  }
  while (!(sliced.all_clear() && sliced.stored_layers() == 0)) {
    sliced.run(3);  // tiny budget slices
  }
  EXPECT_EQ(sliced.correction(), full.correction());
  EXPECT_EQ(sliced.total_cycles(), full.total_cycles());
  EXPECT_EQ(sliced.match_stats().pair_matches, full.match_stats().pair_matches);
}

TEST(QecoolEngine, CyclesGrowWithDefectLoad) {
  const PlanarLattice lat(9);
  QecoolEngine light(lat, batch_config(1));
  light.push_layer(layer_with(lat, {{0, 0}}));
  light.run(QecoolEngine::kUnlimited);

  QecoolEngine heavy(lat, batch_config(1));
  heavy.push_layer(layer_with(lat, {{0, 0}, {2, 3}, {5, 6}, {8, 1}, {4, 4}}));
  heavy.run(QecoolEngine::kUnlimited);
  EXPECT_GT(heavy.total_cycles(), light.total_cycles());
}

TEST(QecoolEngine, RejectsBadRegDepth) {
  const PlanarLattice lat(3);
  QecoolConfig config;
  config.reg_depth = 0;
  EXPECT_THROW(QecoolEngine(lat, config), std::invalid_argument);
}

TEST(MatchStatsTest, RecordAndMerge) {
  MatchStats a;
  a.record(0);
  a.record(4);
  a.pair_matches = 2;
  MatchStats b;
  b.record(3);
  b.self_matches = 1;
  a.merge(b);
  EXPECT_EQ(a.vertical_ge3, 2u);
  EXPECT_EQ(a.total(), 3u);
  ASSERT_GE(a.vertical_hist.size(), 5u);
  EXPECT_EQ(a.vertical_hist[0], 1u);
  EXPECT_EQ(a.vertical_hist[3], 1u);
  EXPECT_EQ(a.vertical_hist[4], 1u);
}

// --- Batch decoder on top of the engine ------------------------------------

SyndromeHistory history_from_error(const PlanarLattice& lat,
                                   const BitVec& error) {
  SyndromeHistory h;
  h.final_error = error;
  h.difference =
      difference_syndromes({lat.syndrome(error), lat.syndrome(error)});
  return h;
}

TEST(BatchQecool, CorrectsEverySingleDataError) {
  const PlanarLattice lat(5);
  BatchQecoolDecoder dec;
  for (int q = 0; q < lat.num_data(); ++q) {
    BitVec err(static_cast<std::size_t>(lat.num_data()), 0);
    err[static_cast<std::size_t>(q)] = 1;
    const auto h = history_from_error(lat, err);
    const auto r = dec.decode(lat, h);
    ASSERT_TRUE(residual_syndrome_free(lat, h, r)) << "qubit " << q;
    EXPECT_FALSE(logical_failure(lat, h, r)) << "qubit " << q;
  }
}

class QecoolRandomHistories : public ::testing::TestWithParam<int> {};

TEST_P(QecoolRandomHistories, ResidualAlwaysSyndromeFree) {
  const int d = GetParam();
  const PlanarLattice lat(d);
  Xoshiro256ss rng(41u * static_cast<unsigned>(d));
  BatchQecoolDecoder dec;
  for (int trial = 0; trial < 40; ++trial) {
    const auto h = sample_history(lat, {0.03, 0.03, d}, rng);
    const auto r = dec.decode(lat, h);
    ASSERT_TRUE(residual_syndrome_free(lat, h, r)) << "trial " << trial;
  }
}

TEST_P(QecoolRandomHistories, DecodeIsDeterministic) {
  const int d = GetParam();
  const PlanarLattice lat(d);
  Xoshiro256ss rng(43u * static_cast<unsigned>(d));
  BatchQecoolDecoder dec;
  const auto h = sample_history(lat, {0.05, 0.05, d}, rng);
  const auto r1 = dec.decode(lat, h);
  const auto r2 = dec.decode(lat, h);
  EXPECT_EQ(r1.correction, r2.correction);
  EXPECT_EQ(r1.work, r2.work);
}

INSTANTIATE_TEST_SUITE_P(Distances, QecoolRandomHistories,
                         ::testing::Values(3, 5, 7, 9),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace qec
