// Tests for the optional match-event trace of the QECOOL engine.
#include <gtest/gtest.h>

#include "noise/phenomenological.hpp"
#include "qecool/engine.hpp"
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

TEST(EngineTrace, OffByDefault) {
  const PlanarLattice lat(5);
  QecoolConfig config;
  config.thv = -1;
  config.reg_depth = 1;
  QecoolEngine engine(lat, config);
  engine.push_layer(layer_with(lat, {{2, 1}, {2, 2}}));
  engine.run(QecoolEngine::kUnlimited);
  EXPECT_TRUE(engine.trace().empty());
  EXPECT_EQ(engine.match_stats().total(), 1u);
}

TEST(EngineTrace, RecordsEveryMatch) {
  const PlanarLattice lat(5);
  QecoolConfig config;
  config.thv = -1;
  config.reg_depth = 2;
  config.record_trace = true;
  QecoolEngine engine(lat, config);
  engine.push_layer(layer_with(lat, {{2, 1}, {2, 2}, {0, 0}}));
  engine.push_layer(layer_with(lat, {{0, 0}}));
  engine.run(QecoolEngine::kUnlimited);
  ASSERT_EQ(engine.trace().size(), engine.match_stats().total());
  // Events must be cycle-ordered and internally consistent.
  std::uint64_t prev_cycle = 0;
  for (const auto& event : engine.trace()) {
    EXPECT_GE(event.cycle, prev_cycle);
    prev_cycle = event.cycle;
    EXPECT_GE(event.hop_limit, 1);
    EXPECT_GE(event.source_depth, event.base_depth);
    if (event.kind != MatchEvent::Kind::Pair) {
      EXPECT_EQ(event.source_row, event.sink_row);
      EXPECT_EQ(event.source_col, event.sink_col);
    }
  }
}

TEST(EngineTrace, SelfMatchRecordsDepths) {
  const PlanarLattice lat(5);
  QecoolConfig config;
  config.thv = -1;
  config.reg_depth = 2;
  config.record_trace = true;
  QecoolEngine engine(lat, config);
  engine.push_layer(layer_with(lat, {{1, 2}}));
  engine.push_layer(layer_with(lat, {{1, 2}}));
  engine.run(QecoolEngine::kUnlimited);
  ASSERT_EQ(engine.trace().size(), 1u);
  const auto& event = engine.trace()[0];
  EXPECT_EQ(event.kind, MatchEvent::Kind::Self);
  EXPECT_EQ(event.base_depth, 0);
  EXPECT_EQ(event.source_depth, 1);
}

TEST(EngineTrace, TraceKindsMatchStats) {
  const PlanarLattice lat(7);
  Xoshiro256ss rng(616);
  QecoolConfig config;
  config.thv = -1;
  config.record_trace = true;
  for (int trial = 0; trial < 10; ++trial) {
    const auto h = sample_history(lat, {0.03, 0.03, 7}, rng);
    QecoolConfig c = config;
    c.reg_depth = h.total_rounds();
    QecoolEngine engine(lat, c);
    for (const auto& layer : h.difference) {
      engine.push_layer(PackedBits::from_bits(layer));
    }
    engine.run(QecoolEngine::kUnlimited);
    std::uint64_t pairs = 0, selfs = 0, boundaries = 0;
    for (const auto& event : engine.trace()) {
      switch (event.kind) {
        case MatchEvent::Kind::Pair: ++pairs; break;
        case MatchEvent::Kind::Self: ++selfs; break;
        case MatchEvent::Kind::Boundary: ++boundaries; break;
      }
    }
    EXPECT_EQ(pairs, engine.match_stats().pair_matches);
    EXPECT_EQ(selfs, engine.match_stats().self_matches);
    EXPECT_EQ(boundaries, engine.match_stats().boundary_matches);
  }
}

}  // namespace
}  // namespace qec
