// Deeper semantic tests of the QECOOL engine: routing geometry, race
// priorities, controller configuration knobs, and cycle-model plumbing.
#include <gtest/gtest.h>

#include "decoder/decoder.hpp"
#include "noise/phenomenological.hpp"
#include "qecool/engine.hpp"
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

TEST(QecoolRouting, LPathCorrectionMatchesSpikeGeometry) {
  // Sink at (1,1) (row-major token order), source at (2,2): the spike
  // travels north along column 2 to row 1, then west along row 1. The
  // boundary is equidistant (2 hops) but deprioritized, so the pair wins
  // and the syndrome flips exactly the two data qubits on the L-path.
  const PlanarLattice lat(5);
  QecoolEngine engine(lat, batch_config(1));
  engine.push_layer(layer_with(lat, {{1, 1}, {2, 2}}));
  engine.run(QecoolEngine::kUnlimited);
  ASSERT_TRUE(engine.all_clear());
  BitVec expected(static_cast<std::size_t>(lat.num_data()), 0);
  expected[static_cast<std::size_t>(lat.vertical_qubit(1, 2))] ^= 1;
  expected[static_cast<std::size_t>(lat.horizontal_qubit(1, 2))] ^= 1;
  EXPECT_EQ(engine.correction(), expected);
  EXPECT_EQ(engine.match_stats().pair_matches, 1u);
}

TEST(QecoolRouting, DoubleBoundaryBeatsExpensivePair) {
  // Defects at (1,1) and (3,3): pairing costs 4, two boundary matches cost
  // 2 + 1 = 3 — the greedy engine must take the boundaries.
  const PlanarLattice lat(5);
  QecoolEngine engine(lat, batch_config(1));
  engine.push_layer(layer_with(lat, {{1, 1}, {3, 3}}));
  engine.run(QecoolEngine::kUnlimited);
  ASSERT_TRUE(engine.all_clear());
  EXPECT_EQ(engine.match_stats().boundary_matches, 2u);
  EXPECT_EQ(engine.match_stats().pair_matches, 0u);
  EXPECT_EQ(weight(engine.correction()), 3);
}

TEST(QecoolRouting, CorrectionIsSyndromeValidForRandomPairs) {
  // Whatever pair matches, applying the correction must clear exactly the
  // two defects' checks.
  const PlanarLattice lat(9);
  Xoshiro256ss rng(404);
  for (int trial = 0; trial < 60; ++trial) {
    const int r1 = static_cast<int>(rng.below(9));
    const int c1 = static_cast<int>(rng.below(8));
    int r2 = static_cast<int>(rng.below(9));
    int c2 = static_cast<int>(rng.below(8));
    if (r1 == r2 && c1 == c2) continue;
    QecoolEngine engine(lat, batch_config(1));
    engine.push_layer(layer_with(lat, {{r1, c1}, {r2, c2}}));
    engine.run(QecoolEngine::kUnlimited);
    ASSERT_TRUE(engine.all_clear());
    // Residual after correcting the "virtual error" = syndrome of the
    // correction must equal the pushed defect pattern or account for
    // boundary matches.
    const auto synd = PackedBits::from_bits(lat.syndrome(engine.correction()));
    const auto& stats = engine.match_stats();
    if (stats.pair_matches == 1 && stats.boundary_matches == 0) {
      EXPECT_EQ(synd, layer_with(lat, {{r1, c1}, {r2, c2}}));
    } else {
      // Two boundary matches: each defect cleared separately.
      EXPECT_EQ(stats.boundary_matches, 2u);
      EXPECT_EQ(synd, layer_with(lat, {{r1, c1}, {r2, c2}}));
    }
  }
}

TEST(QecoolRace, ThreeDefectsResolveDeterministically) {
  // Token order makes (2,1) the first sink; it matches its adjacent
  // partner (2,2) and the leftover (3,2) escalates to a boundary match.
  // Whatever the routing details, the total correction's syndrome must
  // equal the pushed defect pattern.
  const PlanarLattice lat(5);
  QecoolEngine engine(lat, batch_config(1));
  engine.push_layer(layer_with(lat, {{2, 2}, {2, 1}, {3, 2}}));
  engine.run(QecoolEngine::kUnlimited);
  const auto synd = PackedBits::from_bits(lat.syndrome(engine.correction()));
  EXPECT_EQ(synd, layer_with(lat, {{2, 2}, {2, 1}, {3, 2}}));
  EXPECT_TRUE(engine.all_clear());
  EXPECT_EQ(engine.match_stats().pair_matches, 1u);
  EXPECT_EQ(engine.match_stats().boundary_matches, 1u);
}

TEST(QecoolRace, TokenOrderIsRowMajor) {
  // With defects at (0,3) and (4,0), the token reaches (0,3) first; it
  // becomes the sink and matches the boundary (distance 1 to the right
  // wall at d=5: col 3 -> distance min(4, 1) = 1).
  const PlanarLattice lat(5);
  QecoolEngine engine(lat, batch_config(1));
  engine.push_layer(layer_with(lat, {{0, 3}, {4, 0}}));
  engine.run(QecoolEngine::kUnlimited);
  EXPECT_EQ(engine.match_stats().boundary_matches, 2u);
  BitVec expected(static_cast<std::size_t>(lat.num_data()), 0);
  expected[static_cast<std::size_t>(lat.horizontal_qubit(0, 4))] = 1;
  expected[static_cast<std::size_t>(lat.horizontal_qubit(4, 0))] = 1;
  EXPECT_EQ(engine.correction(), expected);
}

TEST(QecoolConfigKnobs, CustomNlimitRespected) {
  // nlimit=1 can only ever match adjacent pairs; a distance-2 pair plus
  // far boundaries (impossible within 1 hop) stays stuck until... the
  // escalation wraps at nlimit, so the engine would never clear. The
  // run must terminate by budget, not spin forever.
  const PlanarLattice lat(9);
  QecoolConfig config = batch_config(1);
  config.nlimit = 1;
  QecoolEngine engine(lat, config);
  engine.push_layer(layer_with(lat, {{4, 3}, {4, 5}}));  // distance 2
  const std::uint64_t spent = engine.run(5000);
  EXPECT_GE(spent, 5000u) << "budget must bound the spin";
  EXPECT_FALSE(engine.all_clear());
}

TEST(QecoolConfigKnobs, StartAtMaxHopMatchesInOnePass) {
  const PlanarLattice lat(9);
  QecoolConfig config = batch_config(1);
  config.start_at_max_hop = true;
  QecoolEngine engine(lat, config);
  engine.push_layer(layer_with(lat, {{4, 3}, {4, 5}}));
  engine.run(QecoolEngine::kUnlimited);
  EXPECT_TRUE(engine.all_clear());
  EXPECT_EQ(engine.match_stats().pair_matches, 1u);
}

TEST(QecoolConfigKnobs, CycleCostsScaleReportedWork) {
  const PlanarLattice lat(5);
  QecoolConfig cheap = batch_config(1);
  QecoolConfig costly = batch_config(1);
  costly.cycles.row_skip = 10;
  costly.cycles.pass_overhead = 10;
  costly.cycles.pop = 10;
  QecoolEngine a(lat, cheap), b(lat, costly);
  const PackedBits clean(static_cast<std::size_t>(lat.num_checks()));
  a.push_layer(clean);
  b.push_layer(clean);
  a.run(QecoolEngine::kUnlimited);
  b.run(QecoolEngine::kUnlimited);
  EXPECT_EQ(a.total_cycles() * 10, b.total_cycles());
}

TEST(QecoolEngineState, RegBitAccessor) {
  const PlanarLattice lat(5);
  QecoolEngine engine(lat, batch_config(3));
  engine.push_layer(layer_with(lat, {{2, 2}}));
  engine.push_layer(layer_with(lat, {{1, 1}}));
  EXPECT_TRUE(engine.reg_bit(2, 2, 0));
  EXPECT_FALSE(engine.reg_bit(2, 2, 1));
  EXPECT_TRUE(engine.reg_bit(1, 1, 1));
  EXPECT_EQ(engine.stored_layers(), 2);
}

TEST(QecoolEngineState, CorrectionAccumulatesAcrossRuns) {
  const PlanarLattice lat(5);
  QecoolEngine engine(lat, batch_config(2));
  engine.push_layer(layer_with(lat, {{2, 1}, {2, 2}}));
  engine.run(QecoolEngine::kUnlimited);
  const int w1 = weight(engine.correction());
  engine.push_layer(layer_with(lat, {{0, 0}}));
  engine.run(QecoolEngine::kUnlimited);
  EXPECT_GT(weight(engine.correction()), 0);
  EXPECT_GE(weight(engine.correction()), w1);
}

TEST(QecoolDeterminism, IdenticalRunsBitForBit) {
  const PlanarLattice lat(7);
  Xoshiro256ss rng(808);
  const auto h = sample_history(lat, {0.04, 0.04, 7}, rng);
  auto run_once = [&] {
    QecoolEngine engine(lat, batch_config(h.total_rounds()));
    for (const auto& layer : h.difference) {
      engine.push_layer(PackedBits::from_bits(layer));
    }
    engine.run(QecoolEngine::kUnlimited);
    return std::make_pair(engine.correction(), engine.total_cycles());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

class QecoolDeprioritizationSweep : public ::testing::TestWithParam<int> {};

TEST_P(QecoolDeprioritizationSweep, BoundaryDeprioritizationNeverHurtsMuch) {
  // Footnote 1's rationale: preferring Unit pairs over equidistant
  // boundaries should not degrade accuracy. Compare aggregate failures.
  const int d = GetParam();
  const PlanarLattice lat(d);
  Xoshiro256ss rng(515u * static_cast<unsigned>(d));
  QecoolConfig with;  // default: deprioritized
  QecoolConfig without;
  without.deprioritize_boundary = false;
  BatchQecoolDecoder dec_with(with), dec_without(without);
  int f_with = 0, f_without = 0;
  const int trials = 300;
  for (int trial = 0; trial < trials; ++trial) {
    const auto h = sample_history(lat, {0.01, 0.01, d}, rng);
    f_with += logical_failure(lat, h, dec_with.decode(lat, h));
    f_without += logical_failure(lat, h, dec_without.decode(lat, h));
  }
  EXPECT_LE(f_with, f_without + trials / 20);
}

INSTANTIATE_TEST_SUITE_P(Distances, QecoolDeprioritizationSweep,
                         ::testing::Values(5, 7),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace qec
