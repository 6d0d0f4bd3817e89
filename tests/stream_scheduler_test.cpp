// Tests for the shared decoder-engine pool: the dedicated K == N policy
// reproduces the pre-pool (PR 2) service byte for byte, scheduling
// outcomes are pure functions of (trace, config) for any thread count or
// dispatch batching, a backpressure-aware policy saves a bursty lane a
// fixed rotation loses, and the scheduling telemetry accounts exactly.
#include "stream/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "stream/service.hpp"
#include "surface_code/planar_lattice.hpp"

namespace qec {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string csv_of(const StreamOutcome& outcome, const char* name) {
  const std::string path = temp_path(name);
  EXPECT_TRUE(outcome.telemetry.write_csv(path));
  const std::string text = read_all(path);
  std::remove(path.c_str());
  return text;
}

std::string schedule_csv_of(const StreamOutcome& outcome, const char* name) {
  const std::string path = temp_path(name);
  EXPECT_TRUE(outcome.telemetry.write_schedule_csv(path));
  const std::string text = read_all(path);
  std::remove(path.c_str());
  return text;
}

std::string timeline_csv_of(const StreamOutcome& outcome, const char* name) {
  const std::string path = temp_path(name);
  EXPECT_TRUE(outcome.telemetry.write_timeline_csv(path));
  const std::string text = read_all(path);
  std::remove(path.c_str());
  return text;
}

bool same_outcomes(const StreamTelemetry& a, const StreamTelemetry& b) {
  if (a.lanes.size() != b.lanes.size()) return false;
  for (std::size_t i = 0; i < a.lanes.size(); ++i) {
    const auto& la = a.lanes[i];
    const auto& lb = b.lanes[i];
    if (la.overflow != lb.overflow || la.drained != lb.drained ||
        la.logical_failure != lb.logical_failure ||
        la.rounds_streamed != lb.rounds_streamed ||
        la.drain_rounds != lb.drain_rounds ||
        la.served_rounds != lb.served_rounds ||
        la.starved_rounds != lb.starved_rounds ||
        la.total_cycles != lb.total_cycles ||
        la.depth_hist != lb.depth_hist ||
        la.layer_cycles != lb.layer_cycles) {
      return false;
    }
  }
  return true;
}

// Telemetry CSV of the pre-refactor (PR 2) run_stream for lanes=4, d=5,
// p=0.02, rounds=10, seed=7, 60 cycles/round — captured from the
// one-engine-per-lane implementation before the pool existed. The
// dedicated K == N policy must reproduce it byte for byte, forever.
constexpr const char* kGoldenPr2Csv =
    "lane,distance,p,engine,budget,overflow,drained,logical_fail,rounds,"
    "drain_rounds,popped,total_cycles,cyc_p50,cyc_p95,cyc_p99,cyc_max,"
    "depth_mean,depth_max,depth_0,depth_1,depth_2,depth_3,depth_4,depth_5,"
    "depth_6,depth_7\n"
    "0,5,0.02,qecool,60,0,1,0,11,0,11,94,7,14,14,14,1.3636,3,4,2,2,3,0,0,0,0\n"
    "1,5,0.02,qecool,60,0,1,0,11,2,13,197,7,44,44,44,2.0769,3,1,3,3,6,0,0,0,0\n"
    "2,5,0.02,qecool,60,0,1,0,11,2,13,347,23,72,72,72,2.6923,4,1,1,1,8,2,0,0,0\n"
    "3,5,0.02,qecool,60,0,1,0,11,2,13,131,7,23,23,23,1.6923,3,3,2,4,4,0,0,0,0\n"
    "all,5,0.02,qecool,60,0,4,0,44,6,50,769,7,44,72,72,1.9800,4,9,8,10,21,2,"
    "0,0,0\n";

// Same capture for a starved clock (lanes=5, d=7, p=0.03, rounds=20,
// seed=11, 4 cycles/round): every lane overflows — the failure paths must
// stay byte-identical too.
constexpr const char* kGoldenPr2StarvedCsv =
    "lane,distance,p,engine,budget,overflow,drained,logical_fail,rounds,"
    "drain_rounds,popped,total_cycles,cyc_p50,cyc_p95,cyc_p99,cyc_max,"
    "depth_mean,depth_max,depth_0,depth_1,depth_2,depth_3,depth_4,depth_5,"
    "depth_6,depth_7\n"
    "0,7,0.03,qecool,4,1,0,0,7,0,0,32,0,0,0,0,4.3750,7,0,1,1,1,1,1,1,2\n"
    "1,7,0.03,qecool,4,1,0,0,7,0,0,38,0,0,0,0,4.3750,7,0,1,1,1,1,1,1,2\n"
    "2,7,0.03,qecool,4,1,0,0,8,0,1,41,9,9,9,9,4.0000,7,0,2,1,1,1,1,1,2\n"
    "3,7,0.03,qecool,4,1,0,0,7,0,0,24,0,0,0,0,4.3750,7,0,1,1,1,1,1,1,2\n"
    "4,7,0.03,qecool,4,1,0,0,7,0,0,34,0,0,0,0,4.3750,7,0,1,1,1,1,1,1,2\n"
    "all,7,0.03,qecool,4,5,0,0,36,0,1,169,9,9,9,9,4.2927,7,0,6,5,5,5,5,5,10\n";

// Timeline CSV of a 1-lane streaming run whose only lane overflows (d=5,
// p=0.05, 40 rounds, seed 2021, 1 cycle/round), captured before the
// admission laws shared one dispatch path. Round 7 is a streaming round in
// which every live lane overflows: its phase must stay "stream".
constexpr const char* kGoldenAllOverflowTimeline =
    "round,phase,live,served,starved,paused,overflowed,depth_sum,depth_mean,"
    "depth_max,cycles,watts\n"
    "0,stream,1,1,0,0,0,1,1.0000,1,0,5.55878e-08\n"
    "1,stream,1,1,0,0,0,2,2.0000,2,0,5.55878e-08\n"
    "2,stream,1,1,0,0,0,3,3.0000,3,0,5.55878e-08\n"
    "3,stream,1,1,0,0,0,4,4.0000,4,4,5.55878e-08\n"
    "4,stream,1,1,0,0,0,5,5.0000,5,12,5.55878e-08\n"
    "5,stream,1,1,0,0,0,6,6.0000,6,4,5.55878e-08\n"
    "6,stream,1,1,0,0,0,7,7.0000,7,4,5.55878e-08\n"
    "7,stream,1,0,0,0,1,7,7.0000,7,0,5.55878e-08\n";

StreamConfig golden_config() {
  StreamConfig config;
  config.lanes = 4;
  config.distance = 5;
  config.p = 0.02;
  config.rounds = 10;
  config.seed = 7;
  config.cycles_per_round = 60;
  return config;
}

TEST(StreamScheduler, DedicatedFullPoolMatchesPr2ByteForByte) {
  StreamConfig config = golden_config();
  EXPECT_EQ(csv_of(run_stream(config), "golden.csv"), kGoldenPr2Csv);

  // Explicit K == N spelled out behaves the same as the engines<=0 default.
  config.engines = config.lanes;
  config.policy = "dedicated";
  EXPECT_EQ(csv_of(run_stream(config), "golden_explicit.csv"), kGoldenPr2Csv);

  StreamConfig starved;
  starved.lanes = 5;
  starved.distance = 7;
  starved.p = 0.03;
  starved.rounds = 20;
  starved.seed = 11;
  starved.cycles_per_round = 4;
  EXPECT_EQ(csv_of(run_stream(starved), "golden_starved.csv"),
            kGoldenPr2StarvedCsv);

  StreamConfig all_overflow;
  all_overflow.lanes = 1;
  all_overflow.distance = 5;
  all_overflow.p = 0.05;
  all_overflow.rounds = 40;
  all_overflow.cycles_per_round = 1;
  EXPECT_EQ(timeline_csv_of(run_stream(all_overflow), "golden_overflow_r.csv"),
            kGoldenAllOverflowTimeline);
}

TEST(StreamScheduler, RoundRobinFullPoolEqualsDedicated) {
  // With K == N the rotation covers every lane every round, so the fixed
  // rotation degenerates to the dedicated assignment.
  StreamConfig config = golden_config();
  config.policy = "round_robin";
  config.engines = config.lanes;
  EXPECT_EQ(csv_of(run_stream(config), "rr_full.csv"), kGoldenPr2Csv);
}

TEST(StreamScheduler, LeastLoadedOutcomesThreadCountInvariant) {
  StreamConfig config = golden_config();
  config.lanes = 6;
  config.engines = 2;
  config.policy = "least_loaded";
  const auto trace = record_trace(config);

  config.threads = 1;
  const auto serial = run_stream(trace, config);
  config.threads = 4;
  const auto parallel = run_stream(trace, config);

  EXPECT_TRUE(same_outcomes(serial.telemetry, parallel.telemetry));
  EXPECT_EQ(csv_of(serial, "ll_t1.csv"), csv_of(parallel, "ll_t4.csv"));
  EXPECT_EQ(schedule_csv_of(serial, "ll_s1.csv"),
            schedule_csv_of(parallel, "ll_s4.csv"));
  EXPECT_EQ(timeline_csv_of(serial, "ll_r1.csv"),
            timeline_csv_of(parallel, "ll_r4.csv"));
}

TEST(StreamScheduler, DispatchBatchingNeverChangesOutcomes) {
  // Static policies amortize the per-round barrier; outcomes and every
  // CSV must be bit-equal for any rounds_per_dispatch.
  StreamConfig config = golden_config();
  config.lanes = 6;
  config.engines = 3;
  config.policy = "round_robin";
  const auto trace = record_trace(config);

  const auto one = run_stream(trace, config);
  config.rounds_per_dispatch = 5;
  const auto batched = run_stream(trace, config);
  config.rounds_per_dispatch = 64;  // far beyond the round count
  const auto huge = run_stream(trace, config);

  EXPECT_TRUE(same_outcomes(one.telemetry, batched.telemetry));
  EXPECT_TRUE(same_outcomes(one.telemetry, huge.telemetry));
  EXPECT_EQ(csv_of(one, "b1.csv"), csv_of(batched, "b5.csv"));
  EXPECT_EQ(schedule_csv_of(one, "bs1.csv"),
            schedule_csv_of(batched, "bs5.csv"));
  EXPECT_EQ(timeline_csv_of(one, "br1.csv"),
            timeline_csv_of(huge, "br64.csv"));

  // A run whose drain ends in the middle of a dispatch batch: the phantom
  // tail rounds of the last batch must not leak into engine accounting
  // (idle rounds) or the timeline — schedule CSVs stay bit-equal and the
  // engine rounds cover exactly the timeline rounds.
  StreamConfig tail = golden_config();
  tail.lanes = 8;
  tail.engines = 4;
  tail.policy = "round_robin";
  tail.rounds = 50;
  tail.cycles_per_round = 2000;
  const auto tail_trace = record_trace(tail);
  const auto tail_one = run_stream(tail_trace, tail);
  tail.rounds_per_dispatch = 16;
  const auto tail_batched = run_stream(tail_trace, tail);
  EXPECT_EQ(schedule_csv_of(tail_one, "ts1.csv"),
            schedule_csv_of(tail_batched, "ts16.csv"));
  EXPECT_EQ(timeline_csv_of(tail_one, "tr1.csv"),
            timeline_csv_of(tail_batched, "tr16.csv"));
  for (const auto& e : tail_batched.telemetry.engine_stats) {
    EXPECT_EQ(e.busy_rounds + e.idle_rounds,
              static_cast<std::int64_t>(tail_batched.telemetry.timeline.size()));
  }

  // Dynamic policies need fresh queue depths every round: the batch knob
  // clamps to 1 and outcomes stay put.
  config.policy = "least_loaded";
  config.rounds_per_dispatch = 1;
  const auto ll_one = run_stream(trace, config);
  config.rounds_per_dispatch = 8;
  const auto ll_batched = run_stream(trace, config);
  EXPECT_TRUE(same_outcomes(ll_one.telemetry, ll_batched.telemetry));
  EXPECT_EQ(timeline_csv_of(ll_one, "llb1.csv"),
            timeline_csv_of(ll_batched, "llb8.csv"));
}

TEST(StreamScheduler, NonPositiveDispatchBatchIsRejected) {
  // A batch of < 1 rounds is a caller bug: rejected by name, never
  // silently clamped to one round per dispatch.
  StreamConfig config = golden_config();
  const auto trace = record_trace(config);
  for (const int batch : {0, -3}) {
    config.rounds_per_dispatch = batch;
    try {
      run_stream(trace, config);
      FAIL() << "rounds_per_dispatch=" << batch << " must throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("rounds_per_dispatch"),
                std::string::npos)
          << e.what();
    }
  }
}

/// One bursty lane among quiet ones, served by a single shared engine: the
/// fixed rotation visits the bursty lane once every N rounds regardless of
/// backlog and loses it to Reg overflow; the backpressure-aware policy
/// follows queue depth and keeps every lane alive.
SyndromeTrace bursty_trace(int lanes, int rounds, int bursty_lane) {
  const PlanarLattice lattice(5);
  TraceHeader header;
  header.distance = 5;
  header.lanes = static_cast<std::uint32_t>(lanes);
  header.rounds = static_cast<std::uint32_t>(rounds);
  header.checks = static_cast<std::uint32_t>(lattice.num_checks());
  header.data_qubits = static_cast<std::uint32_t>(lattice.num_data());
  SyndromeTrace trace(header);
  // Burst: defect pairs toggling in the bursty lane's mid-run rounds
  // (difference bits set, so every burst layer carries matching work; an
  // even number of identical layers keeps the stream consistent with the
  // all-zero ground-truth final error).
  for (int round = 4; round < rounds - 6 && round < 24; ++round) {
    BitVec layer(static_cast<std::size_t>(lattice.num_checks()), 0);
    for (const int check : {0, 3, 9, 14, 16, 19}) {
      layer[static_cast<std::size_t>(check)] = 1;
    }
    trace.set_layer(bursty_lane, round, std::move(layer));
  }
  return trace;
}

TEST(StreamScheduler, LeastLoadedSavesBurstyLaneRoundRobinLoses) {
  const int lanes = 4;
  const int bursty = 2;
  const auto trace = bursty_trace(lanes, 40, bursty);

  StreamConfig config;
  config.lanes = lanes;
  config.distance = 5;
  config.engines = 1;  // one engine for four lanes
  config.cycles_per_round = 60;
  config.max_drain_rounds = 400;

  config.policy = "round_robin";
  const auto rr = run_stream(trace, config);
  EXPECT_TRUE(rr.telemetry.lanes[bursty].overflow)
      << "a fixed rotation must lose the bursty lane at K = 1";

  config.policy = "least_loaded";
  const auto ll = run_stream(trace, config);
  for (const auto& lane : ll.telemetry.lanes) {
    EXPECT_FALSE(lane.overflow) << "lane " << lane.lane;
    EXPECT_TRUE(lane.drained) << "lane " << lane.lane;
  }
  // The rescue is visible in the scheduling telemetry: the bursty lane
  // drew more service than its fair 1/N share.
  const auto& served = ll.telemetry.lanes[bursty].served_rounds;
  for (const auto& lane : ll.telemetry.lanes) {
    if (lane.lane != bursty) {
      EXPECT_GE(served, lane.served_rounds);
    }
  }
}

TEST(StreamScheduler, PolicyAndPoolSpecsFailLoudly) {
  StreamConfig config = golden_config();
  config.policy = "fifo";
  EXPECT_THROW(run_stream(config), std::invalid_argument);
  config.policy = "least_loaded:bogus_knob=1";
  EXPECT_THROW(run_stream(config), std::invalid_argument);
  config.policy = "dedicated";
  config.engines = config.lanes - 1;  // dedicated demands K == N
  EXPECT_THROW(run_stream(config), std::invalid_argument);
  config.policy = "round_robin";
  config.engines = config.lanes + 1;  // more engines than lanes
  EXPECT_THROW(run_stream(config), std::invalid_argument);
  config.engines = 2;
  config.policy = "round_robin:offset=3";  // options parse like decoders
  EXPECT_NO_THROW(run_stream(config));

  EXPECT_THROW(make_scheduler_policy("round_robin:offset=x"),
               std::invalid_argument);
  const auto names = registered_scheduler_policies();
  EXPECT_NE(std::find(names.begin(), names.end(), "dedicated"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "round_robin"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "least_loaded"),
            names.end());
}

TEST(StreamScheduler, ScheduleAccountingIsConsistent) {
  StreamConfig config = golden_config();
  config.lanes = 6;
  config.engines = 2;
  config.policy = "least_loaded";
  config.cycles_per_round = 200;  // ample: no lane overflows
  const auto outcome = run_stream(config);
  ASSERT_EQ(outcome.overflow_lanes, 0);
  const auto& t = outcome.telemetry;
  ASSERT_EQ(t.engine_stats.size(), 2u);

  // Every engine is accounted for in every scheduled round, and with no
  // overflow every scheduled round has live lanes, so the timeline holds
  // exactly the scheduled rounds.
  const auto scheduled = static_cast<std::int64_t>(t.timeline.size());
  std::int64_t busy = 0;
  std::uint64_t engine_cycles = 0;
  for (const auto& e : t.engine_stats) {
    EXPECT_EQ(e.busy_rounds + e.idle_rounds, scheduled);
    busy += e.busy_rounds;
    engine_cycles += e.cycles;
  }

  // Grants: each served lane-round maps to exactly one busy engine-round.
  std::int64_t served = 0, starved = 0;
  std::uint64_t lane_cycles = 0;
  for (const auto& lane : t.lanes) {
    served += lane.served_rounds;
    starved += lane.starved_rounds;
    lane_cycles += lane.total_cycles;
    // A lane is served at most once per round it took part in.
    EXPECT_LE(lane.served_rounds,
              lane.rounds_streamed + lane.drain_rounds);
  }
  EXPECT_EQ(busy, served);
  EXPECT_EQ(engine_cycles, lane_cycles)
      << "every consumed cycle flows through exactly one pool engine";

  // The timeline tells the same story round by round.
  std::int64_t tl_served = 0, tl_starved = 0, tl_live = 0;
  std::uint64_t tl_cycles = 0;
  for (const auto& s : t.timeline) {
    EXPECT_LE(s.served_lanes, config.engines);
    EXPECT_LE(s.depth_max, 7) << "depth cannot exceed reg_depth";
    tl_served += s.served_lanes;
    tl_starved += s.starved_lanes;
    tl_live += s.live_lanes;
    tl_cycles += s.cycles;
  }
  EXPECT_EQ(tl_served, served);
  EXPECT_EQ(tl_starved, starved);
  EXPECT_EQ(tl_cycles, engine_cycles);
  std::int64_t lane_rounds = 0;
  for (const auto& lane : t.lanes) {
    lane_rounds += lane.rounds_streamed + lane.drain_rounds;
  }
  EXPECT_EQ(tl_live, lane_rounds);

  const double fairness = t.fairness_index();
  EXPECT_GT(fairness, 1.0 / static_cast<double>(config.lanes) - 1e-12);
  EXPECT_LE(fairness, 1.0 + 1e-12);
}

TEST(StreamScheduler, FairnessIndexFormula) {
  StreamTelemetry t;
  t.lanes.resize(3);
  for (auto& lane : t.lanes) lane.served_rounds = 5;
  EXPECT_DOUBLE_EQ(t.fairness_index(), 1.0);
  t.lanes[0].served_rounds = 10;
  t.lanes[1].served_rounds = 0;
  t.lanes[2].served_rounds = 0;
  EXPECT_NEAR(t.fairness_index(), 1.0 / 3.0, 1e-12);
  for (auto& lane : t.lanes) lane.served_rounds = 0;
  EXPECT_DOUBLE_EQ(t.fairness_index(), 1.0) << "nothing served: vacuously fair";
}

}  // namespace
}  // namespace qec
