// Remaining edge-path coverage: AQEC adversarial configurations, engine
// thv edge values, Union-Find boundary columns, smallest lattices.
#include <gtest/gtest.h>

#include "aqec/aqec_decoder.hpp"
#include "decoder/decoder.hpp"
#include "noise/phenomenological.hpp"
#include "qecool/engine.hpp"
#include "qecool/online_runner.hpp"
#include "qecool/qecool_decoder.hpp"
#include "surface_code/pauli_frame.hpp"
#include "unionfind/uf_decoder.hpp"

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

TEST(AqecAdversarial, ColinearEquidistantChainTerminates) {
  // Defects spaced exactly 2 apart in a row: no mutual pair exists at
  // radius 1; at radius 2 the tie-breaking must still drain everything.
  const PlanarLattice lat(13);
  std::vector<Defect> defects;
  for (int c = 0; c < 12; c += 2) defects.push_back({6, c, 0});
  AqecDecoder dec;
  SyndromeHistory h;
  h.final_error.assign(static_cast<std::size_t>(lat.num_data()), 0);
  BitVec layer(static_cast<std::size_t>(lat.num_checks()), 0);
  for (const auto& defect : defects) {
    layer[static_cast<std::size_t>(lat.check_index(defect.row, defect.col))] = 1;
  }
  // Construct a syndrome-consistent error for this defect pattern: chain
  // segments between consecutive defects.
  h.difference = difference_syndromes({layer, layer});
  const auto r = dec.decode(lat, h);
  EXPECT_EQ(lat.syndrome(r.correction), layer)
      << "correction must terminate and clear every defect";
}

TEST(AqecAdversarial, DenseGridOfDefects) {
  const PlanarLattice lat(9);
  BitVec layer(static_cast<std::size_t>(lat.num_checks()), 0);
  for (int r = 0; r < 9; r += 2) {
    for (int c = 0; c < 8; c += 2) {
      layer[static_cast<std::size_t>(lat.check_index(r, c))] = 1;
    }
  }
  SyndromeHistory h;
  h.final_error.assign(static_cast<std::size_t>(lat.num_data()), 0);
  h.difference = difference_syndromes({layer, layer});
  AqecDecoder dec;
  const auto r = dec.decode(lat, h);
  EXPECT_EQ(lat.syndrome(r.correction), layer);
}

TEST(EngineEdge, ThvZeroDecodesImmediately) {
  const PlanarLattice lat(5);
  QecoolConfig config;
  config.thv = 0;  // a layer is eligible as soon as one newer exists... m-b>0
  config.reg_depth = 7;
  QecoolEngine engine(lat, config);
  PackedBits layer(static_cast<std::size_t>(lat.num_checks()));
  layer.set(static_cast<std::size_t>(lat.check_index(2, 1)));
  layer.set(static_cast<std::size_t>(lat.check_index(2, 2)));
  engine.push_layer(layer);
  engine.run(QecoolEngine::kUnlimited);
  // m=1, b=0: m-b=1 > 0, so the layer decodes without waiting.
  EXPECT_TRUE(engine.all_clear());
  EXPECT_EQ(engine.match_stats().pair_matches, 1u);
}

TEST(EngineEdge, SmallestLatticeDecodes) {
  // d=2: a 2x1 check grid, 5 data qubits — degenerate but must work.
  const PlanarLattice lat(2);
  EXPECT_EQ(lat.num_checks(), 2);
  EXPECT_EQ(lat.num_data(), 5);
  BatchQecoolDecoder dec;
  for (int q = 0; q < lat.num_data(); ++q) {
    BitVec err(static_cast<std::size_t>(lat.num_data()), 0);
    err[static_cast<std::size_t>(q)] = 1;
    const auto h = history_from_error(lat, err);
    const auto r = dec.decode(lat, h);
    ASSERT_TRUE(residual_syndrome_free(lat, h, r)) << "qubit " << q;
  }
}

TEST(UnionFindEdge, LoneDefectInEveryColumnReachesBoundary) {
  const PlanarLattice lat(7);
  UnionFindDecoder dec;
  for (int col = 0; col < lat.check_cols(); ++col) {
    BitVec err(static_cast<std::size_t>(lat.num_data()), 0);
    // Boundary-path error producing a single defect at (3, col).
    for (int q : lat.boundary_path({3, col})) {
      err[static_cast<std::size_t>(q)] = 1;
    }
    const auto h = history_from_error(lat, err);
    const auto r = dec.decode(lat, h);
    ASSERT_TRUE(residual_syndrome_free(lat, h, r)) << "col " << col;
    EXPECT_FALSE(logical_failure(lat, h, r)) << "col " << col;
  }
}

TEST(UnionFindEdge, WholeGridLitStillDecodes) {
  // Every check lit (a pathological syndrome): Union-Find must still
  // produce a valid correction via one giant cluster.
  const PlanarLattice lat(5);
  BitVec layer(static_cast<std::size_t>(lat.num_checks()), 1);
  SyndromeHistory h;
  h.final_error.assign(static_cast<std::size_t>(lat.num_data()), 0);
  h.difference = difference_syndromes({layer, layer});
  UnionFindDecoder dec;
  const auto r = dec.decode(lat, h);
  EXPECT_EQ(lat.syndrome(r.correction), layer);
}

TEST(OnlineEdge, SingleRoundHistory) {
  const PlanarLattice lat(3);
  Xoshiro256ss rng(5);
  const auto h = sample_history(lat, {0.05, 0.05, 1}, rng);
  OnlineConfig config;
  config.cycles_per_round = 2000;
  const auto r = run_online(lat, h, config);
  EXPECT_TRUE(r.drained || r.failed_operationally());
}

}  // namespace
}  // namespace qec
