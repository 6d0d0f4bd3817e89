// Coverage-guided engine fuzzer CLI (src/fuzz, docs/fuzzing.md). Three
// modes:
//
//   fuzz (default)    mutate defect patterns inside valid QTRC traces and
//                     run the differential-oracle battery; divergences are
//                     minimized and saved as .qtrc reproducers.
//   --replay=DIR      replay every corpus trace through the oracles and
//                     print one verdict line per entry (byte-identical at
//                     any --threads).
//   --minimize=FILE   shrink a failing trace file with the delta-debugging
//                     minimizer and write FILE.min.qtrc.
//   --save-corpus=DIR record the seed matrix as .qtrc files (the checked-in
//                     tests/corpus seeds come from this).
//
// CI runs: engine_fuzz --time-budget=30 --seed=1 (must find nothing) and
// engine_fuzz --iters=N --inject-fault=cache-replay --expect-failure (the
// harness self-check: a planted engine bug must be found).
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "common/cli.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/minimize.hpp"
#include "fuzz/oracle.hpp"
#include "qecool/config.hpp"
#include "stream/service.hpp"
#include "stream/trace.hpp"

namespace {

constexpr const char* kSummary =
    "coverage-guided differential fuzzer for the on-line QECOOL engine";

constexpr const char* kOptions =
    "  --time-budget=0      fuzz wall-clock budget in seconds (0: iters only)\n"
    "  --iters=0            fuzz iteration cap (0: time budget only)\n"
    "  --seed=1             fuzzer RNG seed (fixed seed => fixed sequence)\n"
    "  --d=5,9              seed-trace code distances\n"
    "  --p=1e-4,3e-3        seed-trace physical error rates\n"
    "  --lanes=2            lanes per seed trace\n"
    "  --rounds=12          noisy rounds per seed trace\n"
    "  --cycles=4           per-round cycle budget of the oracle arms\n"
    "                       (0: unconstrained)\n"
    "  --cache=clock        decode-cache arm: clock | off\n"
    "  --thv=3              engine vertical threshold (-1: eager decode —\n"
    "                       single-layer windows recur, so the cache hits)\n"
    "  --corpus=DIR         extra seed traces (*.qtrc) to start from\n"
    "  --out=DIR            write failing inputs + minimized reproducers here\n"
    "  --no-minimize        keep failing inputs unshrunk\n"
    "  --inject-fault=NAME  plant a test-only engine bug: cache-replay |\n"
    "                       cycle-report (harness self-check)\n"
    "  --expect-failure     exit 0 iff the fuzz run FOUND a failure\n"
    "  --replay=DIR         replay mode: run every *.qtrc in DIR\n"
    "  --threads=1          replay worker threads\n"
    "  --report=FILE        also write the replay report to FILE\n"
    "  --minimize=FILE      minimize mode: shrink one failing trace file\n"
    "  --save-corpus=DIR    record the seed matrix into DIR (created if\n"
    "                       missing) and exit\n";

std::vector<double> parse_doubles(const std::string& csv) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string item = csv.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!item.empty()) out.push_back(std::stod(item));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

int parse_fault(const std::string& name) {
  if (name.empty() || name == "none") return qec::QecoolConfig::kFaultNone;
  if (name == "cache-replay") return qec::QecoolConfig::kFaultCacheReplay;
  if (name == "cycle-report") return qec::QecoolConfig::kFaultCycleReport;
  std::fprintf(stderr, "engine_fuzz: unknown --inject-fault=%s\n",
               name.c_str());
  std::exit(2);
}

std::vector<qec::fuzz::FuzzSeedSpec> build_seeds(const qec::CliArgs& args) {
  const auto distances = parse_doubles(args.get_or("d", "5,9"));
  const auto ps = parse_doubles(args.get_or("p", "1e-4,3e-3"));
  const int lanes = static_cast<int>(args.get_int_or("lanes", 2));
  const int rounds = static_cast<int>(args.get_int_or("rounds", 12));
  std::vector<qec::fuzz::FuzzSeedSpec> seeds;
  int i = 0;
  for (const double d : distances) {
    for (const double p : ps) {
      qec::fuzz::FuzzSeedSpec spec;
      spec.distance = static_cast<int>(d);
      spec.p = p;
      spec.lanes = lanes;
      spec.rounds = rounds;
      spec.seed = 2021 + static_cast<std::uint64_t>(i++);
      seeds.push_back(spec);
    }
  }
  return seeds;
}

qec::fuzz::OracleConfig build_oracle(const qec::CliArgs& args) {
  qec::fuzz::OracleConfig oracle;
  oracle.online.cycles_per_round = args.get_double_or("cycles", 4.0);
  oracle.online.engine.thv = static_cast<int>(args.get_int_or("thv", 3));
  const std::string cache = args.get_or("cache", "clock");
  if (cache == "off") {
    oracle.online.engine.cache.enabled = false;
  } else if (cache != "clock" && cache != "on") {
    std::fprintf(stderr, "engine_fuzz: unknown --cache=%s\n", cache.c_str());
    std::exit(2);
  }
  oracle.fault = parse_fault(args.get_or("inject-fault", ""));
  return oracle;
}

int run_replay(const qec::CliArgs& args, const std::string& dir) {
  const auto paths = qec::fuzz::list_corpus(dir);
  if (paths.empty()) {
    std::fprintf(stderr, "engine_fuzz: no *.qtrc under %s\n", dir.c_str());
    return 2;
  }
  const int threads = qec::threads_override(args, 1);
  const auto report =
      qec::fuzz::replay_corpus(paths, build_oracle(args), threads);
  const std::string text = report.to_text();
  std::fputs(text.c_str(), stdout);
  const std::string report_path = args.get_or("report", "");
  if (!report_path.empty()) {
    std::FILE* f = std::fopen(report_path.c_str(), "wb");
    if (!f) {
      std::fprintf(stderr, "engine_fuzz: cannot write %s\n",
                   report_path.c_str());
      return 2;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
  return report.ok() ? 0 : 1;
}

int run_minimize(const qec::CliArgs& args, const std::string& path) {
  const auto trace = qec::SyndromeTrace::load(path);
  const auto oracle = build_oracle(args);
  const auto failing = [&](const qec::SyndromeTrace& t) {
    return !qec::fuzz::run_oracles(t, oracle).ok();
  };
  if (!failing(trace)) {
    std::fprintf(stderr,
                 "engine_fuzz: %s passes all oracles; nothing to minimize\n",
                 path.c_str());
    return 1;
  }
  const auto result = qec::fuzz::minimize_trace(trace, failing);
  const std::string out = path + ".min.qtrc";
  result.trace.save(out);
  std::printf("%s: %d lanes x %d rounds -> %d lanes x %d rounds (%d runs)\n",
              out.c_str(), trace.lanes(), trace.rounds(), result.trace.lanes(),
              result.trace.rounds(), result.predicate_calls);
  return 0;
}

int run_save_corpus(const qec::CliArgs& args, const std::string& dir) {
  qec::fuzz::FuzzConfig config;
  config.seeds = build_seeds(args);
  // One oracle pass over each recorded seed (max_iterations=0 would throw;
  // a single iteration keeps the run cheap and validates every seed).
  config.oracle = build_oracle(args);
  config.max_iterations = 1;
  config.out_dir = dir;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "engine_fuzz: cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  int written = 0;
  for (const auto& spec : config.seeds) {
    qec::StreamConfig stream;
    stream.lanes = spec.lanes;
    stream.distance = spec.distance;
    stream.p = spec.p;
    stream.rounds = spec.rounds;
    stream.seed = spec.seed;
    const auto trace = qec::record_trace(stream);
    const auto report = qec::fuzz::run_oracles(trace, config.oracle);
    if (!report.ok()) {
      std::fprintf(stderr, "engine_fuzz: seed d=%d p=%g diverges: %s\n",
                   spec.distance, spec.p,
                   qec::fuzz::summarize_report(report).c_str());
      return 1;
    }
    char name[64];
    std::snprintf(name, sizeof(name), "seed-d%d-p%g-l%d-r%d.qtrc",
                  spec.distance, spec.p, spec.lanes, spec.rounds);
    std::string out = dir;
    if (!out.empty() && out.back() != '/') out += '/';
    trace.save(out + name);
    std::printf("wrote %s%s\n", out.c_str(), name);
    ++written;
  }
  return written > 0 ? 0 : 1;
}

int run(int argc, char** argv) {
  const qec::CliArgs args(argc, argv);
  if (qec::handle_help(args, "engine_fuzz", kSummary, kOptions)) return 0;

  const std::string replay_dir = args.get_or("replay", "");
  if (!replay_dir.empty()) return run_replay(args, replay_dir);
  const std::string minimize_path = args.get_or("minimize", "");
  if (!minimize_path.empty()) return run_minimize(args, minimize_path);
  const std::string save_dir = args.get_or("save-corpus", "");
  if (!save_dir.empty()) return run_save_corpus(args, save_dir);

  qec::fuzz::FuzzConfig config;
  config.seeds = build_seeds(args);
  config.oracle = build_oracle(args);
  config.rng_seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  config.max_iterations = static_cast<int>(args.get_int_or("iters", 0));
  std::string budget = args.get_or("time-budget", "0");
  if (!budget.empty() && budget.back() == 's') budget.pop_back();
  config.time_budget_s = budget.empty() ? 0.0 : std::stod(budget);
  if (config.max_iterations <= 0 && config.time_budget_s <= 0.0) {
    config.time_budget_s = 30.0;  // the CI smoke default
  }
  config.corpus_dir = args.get_or("corpus", "");
  config.out_dir = args.get_or("out", "");
  config.minimize = !args.get_flag("no-minimize");

  const auto stats = qec::fuzz::run_fuzzer(config);
  std::printf(
      "fuzz: %d iterations in %.1fs, %llu oracle runs, corpus %d, "
      "%d coverage cells, cache %llu hits / %llu misses\n",
      stats.iterations, stats.elapsed_s,
      static_cast<unsigned long long>(stats.oracle_runs), stats.corpus_size,
      stats.coverage_cells, static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.cache_misses));
  for (const auto& failure : stats.failures) {
    std::printf("FAILURE (iteration %d): %s\n", failure.iteration,
                failure.summary.c_str());
    std::printf("  input: %d lanes x %d rounds -> minimized %d lanes x %d "
                "rounds (%d predicate runs)\n",
                failure.trace.lanes(), failure.trace.rounds(),
                failure.minimized.lanes(), failure.minimized.rounds(),
                failure.predicate_calls);
    if (!failure.saved_path.empty()) {
      std::printf("  reproducer: %s\n", failure.saved_path.c_str());
    }
  }

  const bool expect_failure = args.get_flag("expect-failure");
  if (expect_failure) {
    if (stats.found_failure()) {
      std::printf("self-check ok: the planted fault was detected\n");
      return 0;
    }
    std::fprintf(stderr,
                 "self-check FAILED: no divergence found — the oracle "
                 "harness is blind\n");
    return 1;
  }
  return stats.found_failure() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A TraceError (unreadable, corrupt, or unwritable trace) or a malformed
  // numeric flag ends in a named error and a non-zero exit, never
  // std::terminate.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "engine_fuzz: %s\n", e.what());
    return 2;
  }
}
