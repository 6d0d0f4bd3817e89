#include "fuzz/fuzzer.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "sim/executor.hpp"
#include "stream/service.hpp"

namespace qec::fuzz {

namespace fs = std::filesystem;

std::vector<FuzzSeedSpec> default_seed_matrix() {
  std::vector<FuzzSeedSpec> seeds;
  int i = 0;
  for (const int d : {5, 9}) {
    for (const double p : {1e-4, 3e-3}) {
      FuzzSeedSpec spec;
      spec.distance = d;
      spec.p = p;
      spec.lanes = 2;
      spec.rounds = 12;
      spec.seed = 2021 + static_cast<std::uint64_t>(i++);
      seeds.push_back(spec);
    }
  }
  return seeds;
}

std::vector<std::string> list_corpus(const std::string& dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  if (dir.empty() || !fs::is_directory(dir, ec)) return paths;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".qtrc") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

namespace {

SyndromeTrace record_seed(const FuzzSeedSpec& spec) {
  StreamConfig config;
  config.lanes = spec.lanes;
  config.distance = spec.distance;
  config.p = spec.p;
  config.rounds = spec.rounds;
  config.seed = spec.seed;
  return record_trace(config);
}

/// In-memory corpus entry: the trace plus its fitness when admitted.
struct CorpusEntry {
  SyndromeTrace trace;
  int fresh_cells = 0;
};

std::string save_trace(const SyndromeTrace& trace, const std::string& dir,
                       const std::string& name) {
  if (dir.empty()) return {};
  const std::string path = (fs::path(dir) / name).string();
  trace.save(path);
  return path;
}

}  // namespace

void create_output_dir(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw std::runtime_error("cannot create " + dir + ": " + ec.message());
  }
}

FuzzStats run_fuzzer(const FuzzConfig& config) {
  if (config.max_iterations <= 0 && config.time_budget_s <= 0.0) {
    throw std::invalid_argument(
        "run_fuzzer: set max_iterations and/or time_budget_s");
  }
  if (!config.out_dir.empty()) create_output_dir(config.out_dir);
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };

  // The window-boundary mutation operator aligns against the engine shape
  // the oracles actually run.
  MutatorConfig mutator_config = config.mutator;
  mutator_config.reg_depth = config.oracle.online.engine.reg_depth;
  mutator_config.thv = config.oracle.online.engine.thv;
  TraceMutator mutator(config.rng_seed, mutator_config);
  Xoshiro256ss& rng = mutator.rng();

  FuzzStats stats;
  CoverageMap coverage;
  std::vector<CorpusEntry> corpus;

  const auto ingest = [&](SyndromeTrace trace, int iteration) -> bool {
    OracleReport report = run_oracles(trace, config.oracle);
    ++stats.oracle_runs;
    if (!report.ok()) {
      FuzzFailure failure;
      failure.summary = summarize_report(report);
      failure.iteration = iteration;
      failure.trace = trace;
      const auto idx = std::to_string(stats.failures.size());
      failure.original_path =
          save_trace(trace, config.out_dir, "failure-" + idx + ".qtrc");
      if (config.minimize) {
        MinimizeResult min = minimize_trace(
            trace,
            [&](const SyndromeTrace& candidate) {
              ++stats.oracle_runs;
              return !run_oracles(candidate, config.oracle).ok();
            });
        failure.minimized = std::move(min.trace);
        failure.predicate_calls = min.predicate_calls;
      } else {
        failure.minimized = trace;
      }
      failure.saved_path = save_trace(failure.minimized, config.out_dir,
                                      "failure-" + idx + ".min.qtrc");
      stats.failures.push_back(std::move(failure));
      return true;
    }
    const int fresh = coverage.merge(report.features);
    if ((fresh > 0 || iteration < 0) &&
        static_cast<int>(corpus.size()) < config.max_corpus) {
      corpus.push_back({std::move(trace), fresh});
    }
    return false;
  };

  // Initial corpus: the recorded seed matrix plus any on-disk traces.
  // Seeds are always admitted (iteration < 0) — a parent pool must exist
  // even if the first seed saturates the early coverage cells.
  const std::vector<FuzzSeedSpec> seeds =
      config.seeds.empty() ? default_seed_matrix() : config.seeds;
  for (const auto& spec : seeds) {
    if (ingest(record_seed(spec), -1)) break;
  }
  for (const auto& path : list_corpus(config.corpus_dir)) {
    if (static_cast<int>(stats.failures.size()) >= config.max_failures) break;
    ingest(SyndromeTrace::load(path), -1);
  }
  if (corpus.empty() && stats.failures.empty()) {
    throw std::runtime_error("run_fuzzer: empty initial corpus");
  }

  // The AFL loop: pick a parent, mutate, run, keep what's interesting.
  int iteration = 0;
  while (static_cast<int>(stats.failures.size()) < config.max_failures &&
         !corpus.empty()) {
    if (config.max_iterations > 0 && iteration >= config.max_iterations) break;
    if (config.time_budget_s > 0.0 && elapsed() >= config.time_budget_s) break;

    const std::size_t pick = rng.below(corpus.size());
    SyndromeTrace child = corpus[pick].trace;

    // Occasionally cross with a same-geometry sibling, then stack a few
    // point mutations (AFL havoc-style).
    if (corpus.size() > 1 && rng.below(8) == 0) {
      const std::size_t donor =
          (pick + 1 + rng.below(corpus.size() - 1)) % corpus.size();
      mutator.splice(child, corpus[donor].trace);
    }
    const int stack = 1 + static_cast<int>(rng.below(4));
    for (int i = 0; i < stack; ++i) {
      mutator.mutate(child);
    }

    ingest(std::move(child), iteration);
    ++iteration;
  }

  stats.iterations = iteration;
  stats.corpus_size = static_cast<int>(corpus.size());
  stats.coverage_cells = coverage.covered();
  stats.elapsed_s = elapsed();
  return stats;
}

std::string ReplayReport::to_text() const {
  std::ostringstream out;
  for (const auto& entry : entries) {
    out << fs::path(entry.path).filename().string() << ": " << entry.summary
        << "\n";
  }
  out << entries.size() << " entries, " << failures << " failures\n";
  return out.str();
}

ReplayReport replay_corpus(const std::vector<std::string>& paths,
                           const OracleConfig& config, int threads) {
  ReplayReport report;
  report.entries.resize(paths.size());
  // Per-entry slots filled in parallel, assembled in input order — the
  // report bytes are a pure function of (paths, config).
  parallel_for(static_cast<int>(paths.size()), threads, [&](int i) {
    ReplayEntry& entry = report.entries[static_cast<std::size_t>(i)];
    entry.path = paths[static_cast<std::size_t>(i)];
    try {
      const SyndromeTrace trace = SyndromeTrace::load(entry.path);
      const OracleReport r = run_oracles(trace, config);
      entry.summary = summarize_report(r);
      entry.ok = r.ok();
    } catch (const std::exception& e) {
      entry.summary = std::string("load error: ") + e.what();
      entry.ok = false;
    }
  });
  for (const auto& entry : report.entries) {
    if (!entry.ok) ++report.failures;
  }
  return report;
}

}  // namespace qec::fuzz
