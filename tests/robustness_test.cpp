// Robustness / fuzz-style tests: random configurations and budgets must
// never crash, spin, or produce syndrome-inconsistent corrections, and
// retired command-line flags, malformed numbers and unwritable outputs
// must fail loudly instead of being ignored.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "common/cli.hpp"
#include "decoder/decoder.hpp"
#include "mwpm/blossom.hpp"
#include "noise/phenomenological.hpp"
#include "qecool/engine.hpp"
#include "qecool/online_runner.hpp"
#include "surface_code/pauli_frame.hpp"

namespace qec {
namespace {

TEST(BlossomEdge, OddVertexCountThrows) {
  BlossomMatcher matcher(3);
  EXPECT_THROW(matcher.solve(), std::invalid_argument);
}

TEST(BlossomEdge, ZeroVerticesIsEmpty) {
  BlossomMatcher matcher(0);
  EXPECT_TRUE(matcher.solve().empty());
  EXPECT_EQ(matcher.matching_weight(), 0);
}

TEST(BlossomEdge, NegativeCountThrows) {
  EXPECT_THROW(BlossomMatcher(-1), std::invalid_argument);
  BlossomMatcher matcher(2);
  EXPECT_THROW(matcher.reset(-2), std::invalid_argument);
}

TEST(BlossomEdge, SetWeightRejectsBadArgumentsByName) {
  // Checked in every build type: an assert vanishes under NDEBUG and
  // would let these calls write out of bounds.
  BlossomMatcher matcher(4);
  struct Case {
    int u, v;
    std::int64_t weight;
    const char* message;
  };
  for (const Case& c : {Case{2, 2, 1, "u=2 == v (self-loop)"},
                        Case{-1, 2, 1, "u=-1 out of range [0, 4)"},
                        Case{4, 2, 1, "u=4 out of range [0, 4)"},
                        Case{1, 7, 1, "v=7 out of range [0, 4)"},
                        Case{0, 3, -5, "weight=-5 is negative"}}) {
    try {
      matcher.set_weight(c.u, c.v, c.weight);
      ADD_FAILURE() << "no throw for " << c.message;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos)
          << e.what();
    }
  }
  // Nothing was written: the valid weights still solve as set.
  matcher.set_weight(0, 1, 3);
  matcher.set_weight(2, 3, 4);
  for (const auto& [u, v] : {std::pair{0, 2}, {0, 3}, {1, 2}, {1, 3}}) {
    matcher.set_weight(u, v, 100);
  }
  matcher.solve();
  EXPECT_EQ(matcher.matching_weight(), 7);
}

TEST(EngineFuzz, RandomPushesAndBudgetsNeverBreakInvariants) {
  Xoshiro256ss rng(31415);
  for (int iteration = 0; iteration < 60; ++iteration) {
    const int d = 3 + 2 * static_cast<int>(rng.below(4));  // 3,5,7,9
    const PlanarLattice lat(d);
    QecoolConfig config;
    config.reg_depth = 2 + static_cast<int>(rng.below(8));
    config.thv = static_cast<int>(rng.below(4)) - 1;  // -1..2
    config.deprioritize_boundary = rng.below(2) != 0;
    QecoolEngine engine(lat, config);

    for (int step = 0; step < 30; ++step) {
      if (rng.below(2)) {
        PackedBits layer(static_cast<std::size_t>(lat.num_checks()));
        // Push a random even-ish defect layer.
        const int defects = static_cast<int>(rng.below(5));
        for (int k = 0; k < defects; ++k) {
          layer.flip(rng.below(static_cast<std::uint64_t>(lat.num_checks())));
        }
        engine.push_layer(layer);  // overflow allowed; must not corrupt
      } else {
        engine.run(rng.below(300));
      }
      // Invariants: stored layers bounded, cycles monotone non-negative,
      // popped count consistent.
      ASSERT_LE(engine.stored_layers(), config.reg_depth);
      ASSERT_GE(engine.stored_layers(), 0);
      ASSERT_EQ(engine.popped_layers(),
                static_cast<int>(engine.layer_cycles().size()));
    }
  }
}

TEST(EngineFuzz, PopAttributionCoversAllPops) {
  const PlanarLattice lat(5);
  QecoolConfig config;
  config.thv = -1;
  config.reg_depth = 10;
  QecoolEngine engine(lat, config);
  const PackedBits clean(static_cast<std::size_t>(lat.num_checks()));
  for (int i = 0; i < 10; ++i) engine.push_layer(clean);
  engine.run(QecoolEngine::kUnlimited);
  EXPECT_EQ(engine.popped_layers(), 10);
  std::uint64_t attributed = 0;
  for (std::uint64_t c : engine.layer_cycles()) attributed += c;
  EXPECT_EQ(attributed, engine.total_cycles())
      << "every working cycle must be attributed to some layer";
}

TEST(OnlineFuzz, RandomHistoriesAlwaysTerminate) {
  Xoshiro256ss rng(2718);
  for (int iteration = 0; iteration < 30; ++iteration) {
    const int d = 3 + 2 * static_cast<int>(rng.below(3));
    const PlanarLattice lat(d);
    const double p = 0.005 + 0.05 * rng.uniform();
    const auto h = sample_history(lat, {p, p, d}, rng);
    OnlineConfig config;
    config.cycles_per_round = 1 + rng.below(3000);
    config.max_drain_rounds = 200;
    const auto r = run_online(lat, h, config);
    // Either it drained or it failed operationally; both are terminal.
    ASSERT_TRUE(r.drained || r.failed_operationally());
    if (r.drained) {
      DecodeResult dr;
      dr.correction = r.correction;
      ASSERT_TRUE(residual_syndrome_free(lat, h, dr));
    }
  }
}

TEST(OnlineFuzz, OverflowImpliesOperationalFailure) {
  const PlanarLattice lat(13);
  Xoshiro256ss rng(95);
  OnlineConfig config;
  config.cycles_per_round = 1;
  bool saw_overflow = false;
  for (int trial = 0; trial < 10 && !saw_overflow; ++trial) {
    const auto h = sample_history(lat, {0.03, 0.03, 13}, rng);
    const auto r = run_online(lat, h, config);
    if (r.overflow) {
      saw_overflow = true;
      EXPECT_TRUE(r.failed_operationally());
      EXPECT_FALSE(r.drained);
    }
  }
  EXPECT_TRUE(saw_overflow);
}

TEST(RemovedFlags, HelperFlagsEveryRetiredFlagPresent) {
  const char* with_cache[] = {"prog", "--lanes=4", "--cache=on"};
  EXPECT_TRUE(reject_removed_flags(CliArgs(3, with_cache), "prog",
                                   {"cache", "cache-csv"}, "retired"));
  const char* bare[] = {"prog", "--cache-csv"};
  EXPECT_TRUE(reject_removed_flags(CliArgs(2, bare), "prog",
                                   {"cache", "cache-csv"}, "retired"));
  const char* clean[] = {"prog", "--lanes=4", "--csv=out.csv"};
  EXPECT_FALSE(reject_removed_flags(CliArgs(3, clean), "prog",
                                    {"cache", "cache-csv"}, "retired"));
}

/// Runs `command` with stderr folded into stdout; returns (exit status,
/// output). Status -1 when the process did not exit normally.
std::pair<int, std::string> run_command(const std::string& command) {
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return {-1, ""};
  std::string output;
  char buffer[256];
  while (std::fgets(buffer, sizeof buffer, pipe) != nullptr) output += buffer;
  const int status = pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, output};
}

TEST(RemovedFlags, CacheFlagsFailTheBinariesThatTookThem) {
  // CliArgs keeps unknown flags, so without the explicit rejection an old
  // command line (e.g. a CI step passing --cache=on) would run and pass
  // without testing what it names.
  for (const char* binary : {QEC_STREAM_SOAK, QEC_LANE_SCALING,
                             QEC_ENGINE_FUZZ}) {
    for (const auto& [flag, name] :
         {std::pair<const char*, const char*>{"--cache=on", "--cache "},
          std::pair<const char*, const char*>{"--cache-csv=unused.csv",
                                              "--cache-csv "}}) {
      const auto [status, output] =
          run_command(std::string(binary) + " " + flag);
      EXPECT_NE(status, 0) << binary << " " << flag << "\n" << output;
      EXPECT_NE(output.find(std::string(name) + "was removed"),
                std::string::npos)
          << binary << " " << flag << "\n" << output;
    }
  }
}

TEST(MalformedNumbers, FailTheBinariesWithANamedError) {
  // A malformed number used to fall back to the flag's default, so a typo
  // ran the default scenario and exited 0. It must name the flag and the
  // value and exit non-zero before any simulation runs.
  for (const auto& [command, message] :
       {std::pair<std::string, std::string>{
            std::string(QEC_STREAM_SOAK) + " --lanes=abc",
            "stream_soak: --lanes=abc is not an integer"},
        std::pair<std::string, std::string>{
            std::string(QEC_STREAM_SOAK) + " --lanes=2 --mhz=fast",
            "stream_soak: --mhz=fast is not a number"},
        std::pair<std::string, std::string>{
            std::string(QEC_LANE_SCALING) + " --rounds=1e",
            "lane_scaling: --rounds=1e is not an integer"},
        std::pair<std::string, std::string>{
            std::string(QEC_ENGINE_FUZZ) + " --iters=many",
            "engine_fuzz: --iters=many is not an integer"}}) {
    const auto [status, output] = run_command(command);
    EXPECT_NE(status, 0) << command << "\n" << output;
    EXPECT_NE(status, -1) << command << " must exit, not terminate";
    EXPECT_NE(output.find(message), std::string::npos)
        << command << "\n" << output;
  }
}

TEST(MalformedNumbers, NonPositiveDispatchIsRejected) {
  for (const char* dispatch : {"0", "-3"}) {
    const std::string command = std::string(QEC_STREAM_SOAK) +
                                " --lanes=2 --rounds=4 --dispatch=" + dispatch;
    const auto [status, output] = run_command(command);
    EXPECT_EQ(status, 1) << command << "\n" << output;
    EXPECT_NE(output.find("rounds_per_dispatch must be >= 1"),
              std::string::npos)
        << command << "\n" << output;
  }
}

/// A regular file, so "<it>/x" can never be opened for writing.
std::string not_a_directory() {
  const std::string path = ::testing::TempDir() + "robustness_notadir";
  std::ofstream(path) << "a file, not a directory\n";
  return path;
}

TEST(UnwritableOutputs, SweepCsvsFailBeforeTheSweepRuns) {
  // The sweeps used to write their CSVs through a silently failed stream,
  // print "written to" and exit 0.
  const std::string bad = not_a_directory() + "/a.csv";
  for (const auto& [command, never] :
       {std::pair<std::string, std::string>{
            std::string(QEC_LANE_SCALING) +
                " --lanes=2 --rounds=2 --mhz=40 --csv=" + bad,
            "scaling curve written"},
        std::pair<std::string, std::string>{
            std::string(QEC_POOL_SCALING) +
                " --lanes=2 --rounds=2 --mhz=40 --engines=1 --csv=" + bad,
            "sweep written"},
        std::pair<std::string, std::string>{
            std::string(QEC_POOL_SCALING) +
                " --lanes=2 --rounds=2 --mhz=40 --engines=1 --latency-csv=" +
                bad,
            "latency written"}}) {
    const auto [status, output] = run_command(command);
    EXPECT_EQ(status, 1) << command << "\n" << output;
    EXPECT_NE(output.find("cannot write " + bad), std::string::npos)
        << command << "\n" << output;
    EXPECT_EQ(output.find(never), std::string::npos)
        << command << "\n" << output;
  }
}

TEST(ObsFlags, SloCsvWithoutSloFailsBeforeTheRun) {
  // Without --slo there are no verdicts, so the run used to finish and
  // then fail with a misleading "cannot write".
  const std::string path = ::testing::TempDir() + "robustness_slo.csv";
  for (const char* binary : {QEC_STREAM_SOAK, QEC_LANE_SCALING,
                             QEC_POOL_SCALING}) {
    std::remove(path.c_str());
    const std::string command = std::string(binary) +
                                " --lanes=2 --rounds=4 --slo-csv=" + path;
    const auto [status, output] = run_command(command);
    EXPECT_EQ(status, 1) << command << "\n" << output;
    EXPECT_NE(output.find("--slo-csv=" + path + " needs --slo"),
              std::string::npos)
        << command << "\n" << output;
    EXPECT_EQ(output.find("cannot write"), std::string::npos)
        << command << "\n" << output;
    EXPECT_FALSE(std::ifstream(path).good()) << command << " created " << path;
  }
}

TEST(UnwritableOutputs, ObsBundleDumpFailureIsNamed) {
  const std::string bad = not_a_directory() + "/b";
  const std::string command = std::string(QEC_STREAM_SOAK) +
                              " --lanes=2 --rounds=4 --dump-obs-on-exit=" + bad;
  const auto [status, output] = run_command(command);
  EXPECT_EQ(status, 1) << command << "\n" << output;
  EXPECT_NE(output.find("cannot write obs bundle to " + bad),
            std::string::npos)
      << command << "\n" << output;
}

TEST(UnwritableOutputs, FuzzOutputDirFailsBeforeTheFirstIteration) {
  // engine_fuzz used to accept an --out it could not create, fuzz, and
  // exit 0 when nothing failed; the error surfaced only while saving a
  // failing input. The path sits under a regular file because root can
  // create any other missing directory.
  const std::string bad = not_a_directory() + "/sub";
  for (const char* flag : {" --out=", " --save-corpus="}) {
    const std::string command =
        std::string(QEC_ENGINE_FUZZ) + " --iters=1" + flag + bad;
    const auto [status, output] = run_command(command);
    EXPECT_EQ(status, 2) << command << "\n" << output;
    EXPECT_NE(output.find("engine_fuzz: cannot create " + bad + ": "),
              std::string::npos)
        << command << "\n" << output;
    for (const char* never : {"iterations in", "wrote "}) {
      EXPECT_EQ(output.find(never), std::string::npos)
          << command << "\n" << output;
    }
  }
}

}  // namespace
}  // namespace qec
