// Shared helpers for the paper-reproduction bench binaries.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/json.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/slo.hpp"
#include "stream/service.hpp"

namespace qec::bench {

/// Splits "a,b,c" into items, dropping empty segments.
inline std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= text.size()) {
    const auto comma = text.find(',', start);
    const auto end = comma == std::string::npos ? text.size() : comma;
    if (end > start) items.push_back(text.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return items;
}

/// Parses a comma-separated list of numbers; throws std::invalid_argument
/// naming the first non-numeric item.
inline std::vector<double> split_doubles(const std::string& text) {
  std::vector<double> values;
  for (const auto& item : split_list(text)) {
    std::size_t used = 0;
    double value = 0.0;
    try {
      value = std::stod(item, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != item.size()) {
      throw std::invalid_argument("not a number in list: '" + item + "'");
    }
    values.push_back(value);
  }
  return values;
}

/// snprintf-to-std::string with a printf spec (CSV/table cells).
inline std::string fmt(double value, const char* spec = "%.4g") {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), spec, value);
  return buffer;
}

/// Estimated expected defect count for a phenomenological run (empirical
/// density ~= 4.9 p per check per layer; see DESIGN.md).
inline double expected_defects(int distance, double p, int rounds) {
  return 4.9 * p * distance * (distance - 1) * (rounds + 1);
}

/// MWPM decode cost grows ~cubically in the defect count; adapt the trial
/// count so a single sweep point stays within `budget_ms` while never
/// dropping below a statistical floor.
inline int mwpm_trials(int base, int distance, double p, int rounds,
                       double budget_ms = 10000.0) {
  const double defects = expected_defects(distance, p, rounds);
  const double cost_ms = 1.2e-5 * defects * defects * defects + 0.05;
  const int affordable = static_cast<int>(budget_ms / cost_ms);
  return std::clamp(affordable, 24, base);
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("==== %s ====\n", title);
  std::printf("reproduces: %s\n\n", paper_ref);
}

/// Uniform "--foo-csv=FILE written" reporting: prints the success line or
/// the cannot-write error. Returns `ok` so callers can fold it into their
/// exit status (`if (!report_written(...)) return 1;`).
inline bool report_written(bool ok, const char* what, const std::string& path) {
  if (!ok) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("%s written to %s\n", what, path.c_str());
  return true;
}

/// Opens a sweep's CSV before the first cell runs, so an unwritable path
/// fails (std::runtime_error naming it) before any sweep time is spent.
/// No CSV when `path` is empty.
inline std::optional<CsvWriter> open_csv(const std::string& path,
                                         std::vector<std::string> header) {
  if (path.empty()) return std::nullopt;
  std::optional<CsvWriter> csv(std::in_place, path, std::move(header));
  if (!csv->ok()) throw std::runtime_error("cannot write " + path);
  return csv;
}

// ---- machine-readable bench records (--json=FILE) ----------------------
//
// Every perf claim in this repo is pinned to a JSON run record (see
// BENCH_lane_scaling.json): the exact config, the git revision the binary
// was built from, and the measured per-cell numbers. The emitter is
// deliberately tiny — objects and arrays are composed as strings — because
// the records are flat and the only consumers are tools/check_bench_json.py
// and a human with a diff.

/// Incremental JSON object: add() accepts strings (quoted + escaped),
/// numbers, and raw JSON fragments (nested objects/arrays).
class JsonObject {
 public:
  JsonObject& add(const std::string& key, const std::string& value) {
    return add_raw(key, json_string(value));
  }
  JsonObject& add(const std::string& key, const char* value) {
    return add(key, std::string(value));
  }
  JsonObject& add(const std::string& key, double value) {
    return add_raw(key, fmt(value, "%.10g"));
  }
  JsonObject& add(const std::string& key, std::int64_t value) {
    return add_raw(key, std::to_string(value));
  }
  JsonObject& add(const std::string& key, int value) {
    return add_raw(key, std::to_string(value));
  }
  JsonObject& add_raw(const std::string& key, const std::string& raw_json) {
    if (!body_.empty()) body_ += ", ";
    body_ += json_string(key) + ": " + raw_json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Joins raw JSON fragments into an array.
inline std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ", ";
    out += items[i];
  }
  return out + "]";
}

inline std::string json_array(const std::vector<double>& values) {
  std::vector<std::string> items;
  items.reserve(values.size());
  for (const double v : values) items.push_back(fmt(v, "%.10g"));
  return json_array(items);
}

/// HEAD revision of the repo the bench runs from, or "unknown" outside a
/// work tree — provenance for pinned perf records.
inline std::string git_revision() {
  std::string rev;
#if defined(_WIN32)
  FILE* pipe = nullptr;
#else
  FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r");
#endif
  if (pipe) {
    char buf[128];
    if (std::fgets(buf, sizeof(buf), pipe)) rev = buf;
#if !defined(_WIN32)
    ::pclose(pipe);
#endif
  }
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
    rev.pop_back();
  }
  const bool plausible =
      rev.size() == 40 &&
      rev.find_first_not_of("0123456789abcdef") == std::string::npos;
  return plausible ? rev : "unknown";
}

/// Writes one JSON document to `path`; throws std::runtime_error on I/O
/// failure (a silently missing perf record is worse than a failed bench).
inline void write_json_file(const std::string& path,
                            const std::string& json) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (!out) throw std::runtime_error("cannot open '" + path + "' for writing");
  const bool ok = std::fputs(json.c_str(), out) >= 0 &&
                  std::fputc('\n', out) != EOF;
  if (std::fclose(out) != 0 || !ok) {
    throw std::runtime_error("short write to '" + path + "'");
  }
}

// ---- obs exports of the streaming benches ------------------------------

/// --help lines of the obs flags StreamObsExports parses; shared by
/// stream_soak, lane_scaling and pool_scaling.
inline constexpr const char* kStreamObsOptions =
    "  --trace-json=FILE     event timeline as Chrome trace JSON (open in\n"
    "                        Perfetto / chrome://tracing; ts = logical round)\n"
    "  --trace-ring=16384    per-track event ring capacity (flight recorder:\n"
    "                        oldest events drop once full)\n"
    "  --metrics-csv=FILE    windowed metrics time-series CSV\n"
    "  --metrics-window=64   rounds per metrics window\n"
    "  --profile-csv=FILE    per-stage wall-clock self-profile CSV (enables\n"
    "                        profiling; wall-clock values are explicitly\n"
    "                        non-deterministic — docs/observability.md)\n"
    "  --slo=SPEC            SLO burn-rate objectives, e.g.\n"
    "                        'sojourn_p99<8,window=256' (implies windowed\n"
    "                        metrics; verdicts are thread-count invariant)\n"
    "  --slo-csv=FILE        per-window SLO verdict CSV (needs --slo)\n"
    "  --prom-snapshot=FILE  Prometheus text-exposition snapshot of the\n"
    "                        final cumulative metrics (implies metrics)\n";

/// Precedes kStreamObsOptions in a sweep bench's --help.
inline constexpr const char* kSweepObsNote =
    "  (obs exports below cover the LAST cell; tracing, profiling and\n"
    "  SLOs run for every cell, and per-cell event counts and SLO\n"
    "  compliance land in the --json record)\n";

/// The obs export flags of the streaming benches, parsed once into
/// StreamConfig::obs and written once through report_written. A sweep
/// keep()s every cell's outcome, so the exports cover its LAST cell.
class StreamObsExports {
 public:
  /// Parses the flags into `obs`; throws on a malformed number or SLO
  /// spec, or on --slo-csv without --slo, before any trace is recorded.
  StreamObsExports(const CliArgs& args, StreamObsConfig& obs)
      : trace_json_(args.get_or("trace-json", "")),
        metrics_csv_(args.get_or("metrics-csv", "")),
        profile_csv_(args.get_or("profile-csv", "")),
        slo_csv_(args.get_or("slo-csv", "")),
        prom_snapshot_(args.get_or("prom-snapshot", "")) {
    obs.trace = !trace_json_.empty();
    obs.trace_ring =
        static_cast<int>(args.get_int_or("trace-ring", obs.trace_ring));
    obs.metrics = !metrics_csv_.empty() || !prom_snapshot_.empty();
    obs.metrics_window =
        static_cast<int>(args.get_int_or("metrics-window", obs.metrics_window));
    obs.profile = !profile_csv_.empty();
    obs.slo = args.get_or("slo", "");
    if (!obs.slo.empty()) obs::parse_slo_spec(obs.slo);
    if (!slo_csv_.empty() && obs.slo.empty()) {
      throw std::invalid_argument(
          "--slo-csv=" + slo_csv_ +
          " needs --slo=SPEC: without SLO objectives there are no verdicts "
          "to write");
    }
  }

  /// The run whose obs objects write() exports.
  void keep(const StreamOutcome& outcome) {
    tracer_ = outcome.tracer;
    metrics_ = outcome.metrics;
    profiler_ = outcome.profiler;
    slo_ = outcome.slo;
  }

  /// Per-cell obs and SLO blocks of a sweep's --json record.
  static void add_to_cell(JsonObject& cell, const StreamOutcome& outcome,
                          std::int64_t lane_rounds) {
    if (outcome.tracer) {
      const auto emitted = outcome.tracer->emitted();
      cell.add_raw(
          "obs",
          JsonObject()
              .add("events", static_cast<std::int64_t>(emitted))
              .add("dropped",
                   static_cast<std::int64_t>(outcome.tracer->dropped()))
              .add("events_per_lane_round",
                   lane_rounds ? static_cast<double>(emitted) /
                                     static_cast<double>(lane_rounds)
                               : 0.0)
              .str());
    }
    if (outcome.slo) cell.add_raw("slo", outcome.slo->summary_json());
  }

  /// Writes every requested export, each line tagged with `suffix`;
  /// false after the first that cannot be written (or has no source).
  bool write(const std::string& suffix = "") const {
    {
      // Export time shows up as the kTraceExport stage when profiling.
      obs::ScopedStage prof(profiler_.get(), obs::Stage::kTraceExport);
      if (!trace_json_.empty() &&
          !report_written(tracer_ && obs::write_chrome_trace(
                                         *tracer_, trace_json_,
                                         profiler_.get()),
                          ("event trace" + suffix).c_str(), trace_json_)) {
        return false;
      }
      if (!metrics_csv_.empty() &&
          !report_written(metrics_ && metrics_->write_csv(metrics_csv_),
                          ("windowed metrics" + suffix).c_str(),
                          metrics_csv_)) {
        return false;
      }
      if (!slo_csv_.empty() &&
          !report_written(slo_ && slo_->write_csv(slo_csv_),
                          ("slo verdicts" + suffix).c_str(), slo_csv_)) {
        return false;
      }
      if (!prom_snapshot_.empty() &&
          !report_written(metrics_ && obs::write_prom_snapshot(
                                          *metrics_, slo_.get(),
                                          prom_snapshot_),
                          ("prometheus snapshot" + suffix).c_str(),
                          prom_snapshot_)) {
        return false;
      }
    }
    return profile_csv_.empty() ||
           report_written(profiler_ && profiler_->write_csv(profile_csv_),
                          ("wall-clock profile" + suffix).c_str(),
                          profile_csv_);
  }

 private:
  std::string trace_json_, metrics_csv_, profile_csv_, slo_csv_,
      prom_snapshot_;
  std::shared_ptr<obs::Tracer> tracer_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  std::shared_ptr<obs::Profiler> profiler_;
  std::shared_ptr<obs::SloEngine> slo_;
};

}  // namespace qec::bench
