// Repository benchmark program. Runs one workload of the QECOOL
// reproduction through the library's public API for a fixed wall-clock
// budget, checks every simulated outcome, and prints the metrics as the
// last stdout line (one JSON object). perfbench/run.py builds and runs it;
// perfbench/README.md documents the workloads and metrics.
//
//   qecool_perfbench --workload=stream_sparse|pool_qos|mc_threshold
//                    --seed=N --seconds=S --trace=0|1
//                    --workdir=DIR --reference=FILE
//
// --trace=0 reports the end-to-end metrics. --trace=1 reports the
// per-layer metrics instead: the program wraps each call it makes into a
// layer in a span (name, start, end, parent, run id), keeps the spans in
// memory and writes them to DIR once at exit. Spans come only from this
// file; nothing inside the library is instrumented.
//
// The simulated outcomes are a pure function of the seed, so every
// operation's outcome must equal the first one observed in the run, and on
// the reference seed the digest stored in FILE. A mismatch or an exception
// counts as a failed operation and makes the process exit 1.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "decoder/decoder.hpp"
#include "decoder/registry.hpp"
#include "noise/phenomenological.hpp"
#include "qecool/online_runner.hpp"
#include "sim/executor.hpp"
#include "sim/monte_carlo.hpp"
#include "sim/sweep.hpp"
#include "stream/service.hpp"
#include "stream/trace.hpp"
#include "surface_code/planar_lattice.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Quartile distance (Q3 - Q1) by Python's statistics.quantiles(n=4)
/// default "exclusive" method, so spreads read the same as the tooling's.
double iqr(std::vector<double> values) {
  const int n = static_cast<int>(values.size());
  if (n < 2) return 0.0;
  std::sort(values.begin(), values.end());
  const auto quartile = [&](int i) {
    const int m = n + 1;
    int j = i * m / 4;
    j = std::clamp(j, 1, n - 1);
    const int delta = i * m - j * 4;
    return (values[static_cast<std::size_t>(j - 1)] * (4 - delta) +
            values[static_cast<std::size_t>(j)] * delta) /
           4.0;
  };
  return quartile(3) - quartile(1);
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string hex(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ------------------------------------------------------------------ spans

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int run = 0;  ///< shared by a root span and everything under it
};

/// In-memory span recorder for the traced run (single-threaded: every
/// span is opened and closed by the benchmark's own thread).
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  int open(const std::string& name) {
    if (current_ < 0) ++run_;  // a root span starts a new run
    spans_.push_back({name, now_ns(), 0, current_, run_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }
  /// A closed span under the current one, for work whose boundaries are
  /// only observed after the fact (sweep cells, via run_sweep's progress
  /// callback).
  void add(const std::string& name, std::int64_t start_ns,
           std::int64_t end_ns) {
    if (current_ < 0) ++run_;
    spans_.push_back({name, start_ns, end_ns, current_, run_});
  }
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  /// Durations of every span called `name`, in ms.
  std::vector<double> durations_ms(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(1e-6 * double(s.end_ns - s.start_ns));
    }
    return out;
  }

  /// Per-name total and self time (span minus the part its children
  /// cover; children never overlap, the benchmark's calls are sequential).
  std::map<std::string, std::pair<double, double>> totals_ms() const {
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ms[static_cast<std::size_t>(s.parent)] +=
            1e-6 * double(s.end_ns - s.start_ns);
      }
    }
    std::map<std::string, std::pair<double, double>> totals;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const double ms = 1e-6 * double(spans_[i].end_ns - spans_[i].start_ns);
      auto& entry = totals[spans_[i].name];
      entry.first += ms;
      entry.second += ms - child_ms[i];
    }
    return totals;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"run\":" << s.run << "}\n";
    }
  }

 private:
  int run_ = 0;
  Clock::time_point origin_;
  int current_ = -1;
  std::vector<Span> spans_;
};

/// RAII span; a null log (the untraced run) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name)
      : log_(log), id_(log ? log->open(name) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Operation accounting: every record_trace/run_stream call, sweep cell
/// and invariant drive is one operation; it fails when it throws or its
/// outcome differs from the expected one.
struct Ops {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> errors;

  void fail(const std::string& why, long count = 1) {
    failed += count;
    if (errors.size() < 8) errors.push_back(why);
  }
  /// Checks one attempted operation's outcome `got`; an empty `expected`
  /// (no reference for this seed) is defined by the first outcome seen.
  /// Returns whether the outcome matched.
  bool expect(std::string& expected, const std::string& got,
              const std::string& what) {
    if (expected.empty()) expected = got;
    if (got == expected) return true;
    fail(what + ": outcome differs from expected");
    return false;
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 2021;
  double seconds = 20.0;
  bool trace = false;
  std::string workdir = ".";
  std::string reference;
};

/// Outcome digest stored for the reference seed, or "" when the seed is
/// not the reference one (only the invariants are checked then).
std::string reference_outcome(const Args& args) {
  if (args.reference.empty()) return "";
  std::istringstream lines(read_file(args.reference));
  std::string line;
  bool seen = false;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string workload;
    std::uint64_t seed = 0;
    if (!(fields >> workload >> seed) || workload != args.workload) continue;
    seen = true;
    if (seed != args.seed) continue;
    std::string digest;
    std::getline(fields, digest);
    digest.erase(0, digest.find_first_not_of(' '));
    return digest;
  }
  if (seen) return "";
  throw std::runtime_error("no reference outcome for workload " +
                           args.workload + " in " + args.reference);
}

// ------------------------------------------------------- stream outcomes

/// Rows of a CSV the service wrote (its fields never contain commas).
std::vector<std::vector<std::string>> read_csv(const std::string& path) {
  std::vector<std::vector<std::string>> rows;
  std::istringstream lines(read_file(path));
  std::string line;
  while (std::getline(lines, line)) {
    std::vector<std::string> row;
    std::stringstream fields(line);
    std::string field;
    while (std::getline(fields, field, ',')) row.push_back(field);
    rows.push_back(row);
  }
  if (rows.empty()) throw std::runtime_error("empty CSV " + path);
  return rows;
}

std::string column(const std::vector<std::vector<std::string>>& rows,
                   const std::vector<std::string>& row,
                   const std::string& name) {
  const auto& header = rows.front();
  const auto it = std::find(header.begin(), header.end(), name);
  if (it == header.end() ||
      static_cast<std::size_t>(it - header.begin()) >= row.size()) {
    throw std::runtime_error("CSV has no column " + name);
  }
  return row[static_cast<std::size_t>(it - header.begin())];
}

const std::vector<std::string>& row_where(
    const std::vector<std::vector<std::string>>& rows, std::size_t col,
    const std::string& value) {
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].size() > col && rows[i][col] == value) return rows[i];
  }
  throw std::runtime_error("CSV has no row '" + value + "'");
}

/// Simulated statistics of one run_stream call, read from StreamOutcome
/// counts and the service's frozen CSV exports (outcome, schedule,
/// latency) — never from telemetry internals.
struct StreamDigest {
  std::string text;  ///< canonical outcome string (what gets compared)
  int lanes = 0;
  int overflow = 0;
  int failed = 0;
  long long lane_rounds = 0;
  double utilization = 0.0;
  long long starved = 0;
  long long paused = 0;
  double soj_p99 = 0.0;
};

StreamDigest digest_stream(const qec::StreamOutcome& outcome,
                           const std::string& workdir) {
  const std::string outcome_csv = workdir + "/outcome.csv";
  const std::string schedule_csv = workdir + "/schedule.csv";
  const std::string latency_csv = workdir + "/latency.csv";
  if (!outcome.telemetry.write_csv(outcome_csv) ||
      !outcome.telemetry.write_schedule_csv(schedule_csv) ||
      !outcome.telemetry.write_latency_csv(latency_csv)) {
    throw std::runtime_error("cannot write stream CSVs under " + workdir);
  }
  StreamDigest d;
  d.lanes = outcome.lanes;
  d.overflow = outcome.overflow_lanes;
  d.failed = outcome.failed_lanes;

  const std::string outcome_bytes = read_file(outcome_csv);
  const auto lanes = read_csv(outcome_csv);
  const auto& all = row_where(lanes, 0, "all");
  d.lane_rounds = std::stoll(column(lanes, all, "rounds")) +
                  std::stoll(column(lanes, all, "drain_rounds"));

  const auto schedule = read_csv(schedule_csv);
  const auto& pool = row_where(schedule, 0, "pool");
  const std::string utilization = column(schedule, pool, "utilization");
  d.utilization = std::stod(utilization);
  d.paused = std::stoll(column(schedule, pool, "paused_rounds"));
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    if (schedule[i][0] == "lane") {
      d.starved += std::stoll(column(schedule, schedule[i], "rounds_inactive"));
    }
  }
  const auto latency = read_csv(latency_csv);
  const std::string soj_p99 =
      column(latency, row_where(latency, 0, "all"), "soj_p99");
  d.soj_p99 = std::stod(soj_p99);

  std::ostringstream text;
  text << "lanes=" << d.lanes << " lane_rounds=" << d.lane_rounds
       << " overflow=" << d.overflow << " drained=" << outcome.drained_lanes
       << " failed=" << d.failed << " logical=" << outcome.logical_failures
       << " starved=" << d.starved << " paused=" << d.paused
       << " util=" << utilization << " soj_p99=" << soj_p99
       << " outcome_csv_fnv=" << hex(fnv1a(outcome_bytes));
  d.text = text.str();
  return d;
}

// ------------------------------------------------- per-lane stepper drive

/// Host time spent inside OnlineStepper::push / ::spend and scoring.
struct CallTimes {
  double push_s = 0.0;
  double spend_s = 0.0;
  double score_s = 0.0;
  long long pushes = 0;
  long long spends = 0;
  long long scored = 0;
  std::uint64_t cycles = 0;
};

struct DriveResult {
  int overflow = 0;
  int failed = 0;
};

/// Drives one lane through a dedicated OnlineStepper the way the service
/// does for K == N: push each round's layer and spend the round's budget
/// while the lane lives, then push clean layers until it drains or the
/// drain bound runs out. `times` (nullable) accumulates per-call timings.
template <typename Layer>
qec::OnlineResult drive_lane(qec::OnlineStepper& stepper,
                             const std::vector<const Layer*>& layers,
                             const qec::OnlineConfig& online,
                             CallTimes* times) {
  const auto push = [&](auto&& call) {
    if (!times) return call();
    const auto t0 = Clock::now();
    const bool ok = call();
    times->push_s += seconds_since(t0);
    ++times->pushes;
    return ok;
  };
  const auto spend = [&] {
    if (!times) return static_cast<void>(stepper.spend(online.cycles_per_round));
    const auto t0 = Clock::now();
    times->cycles += stepper.spend(online.cycles_per_round);
    times->spend_s += seconds_since(t0);
    ++times->spends;
  };
  for (const Layer* layer : layers) {
    if (stepper.overflowed()) break;
    if (push([&] { return stepper.push(*layer); })) spend();
  }
  for (int k = 0; k < online.max_drain_rounds; ++k) {
    if (stepper.overflowed() || stepper.drained()) break;
    if (push([&] { return stepper.push_clean(); })) spend();
  }
  return stepper.result();
}

/// logical_failure of `correction` against the ground-truth error.
bool logically_wrong(const qec::PlanarLattice& lattice,
                     const qec::BitVec& correction, const qec::BitVec& truth,
                     CallTimes* times) {
  const auto t0 = Clock::now();
  qec::SyndromeHistory history;
  history.final_error = truth;
  qec::DecodeResult decode;
  decode.correction = correction;
  const bool wrong = qec::logical_failure(lattice, history, decode);
  if (times) {
    times->score_s += seconds_since(t0);
    ++times->scored;
  }
  return wrong;
}

/// One dedicated stepper per lane over the whole trace (lane by lane, one
/// thread): the engine work of a K == N replay without the service's
/// scheduling, reduction, telemetry and decode-window memoization.
DriveResult drive_trace(const qec::SyndromeTrace& trace,
                        const qec::OnlineConfig& online, CallTimes* times) {
  const qec::PlanarLattice lattice(static_cast<int>(trace.header().distance));
  DriveResult out;
  std::vector<const qec::PackedBits*> layers(
      static_cast<std::size_t>(trace.rounds()));
  for (int lane = 0; lane < trace.lanes(); ++lane) {
    for (int r = 0; r < trace.rounds(); ++r) {
      layers[static_cast<std::size_t>(r)] = &trace.layer(lane, r);
    }
    qec::OnlineStepper stepper(lattice, online);
    const qec::OnlineResult result = drive_lane(stepper, layers, online, times);
    out.overflow += result.overflow ? 1 : 0;
    out.failed += result.failed_operationally() ||
                  logically_wrong(lattice, result.correction,
                                  trace.final_error(lane), times);
  }
  return out;
}

qec::OnlineConfig online_config(const qec::StreamConfig& config) {
  qec::OnlineConfig online;
  online.engine = qec::online_engine_config(config.engine);
  online.cycles_per_round = config.cycles_per_round;
  online.max_drain_rounds = config.max_drain_rounds;
  return online;
}

/// Noise layer alone: sample_history for as many lanes as `config`
/// records, at the same distance, p and rounds, on the same executor and
/// thread count as record_trace (own per-lane RNG streams: the cost does
/// not depend on which stream is drawn). Returns seconds; adds the sampled
/// bits (stored rounds x (checks + data qubits) per history).
double sample_lanes(const qec::StreamConfig& config, double* bits) {
  const qec::PlanarLattice lattice(config.distance);
  const qec::NoiseParams params{config.p, config.p, config.rounds};
  std::vector<std::size_t> layers(static_cast<std::size_t>(config.lanes));
  const auto t0 = Clock::now();
  qec::parallel_for(config.lanes, config.threads, [&](int lane) {
    qec::Xoshiro256ss rng(config.seed ^ (0x9e3779b97f4a7c15ULL * (lane + 1)));
    layers[static_cast<std::size_t>(lane)] =
        qec::sample_history(lattice, params, rng).difference.size();
  });
  const double elapsed = seconds_since(t0);
  std::size_t total = 0;
  for (const std::size_t n : layers) total += n;
  *bits += static_cast<double>(total) *
           (lattice.num_checks() + lattice.num_data());
  return elapsed;
}

double payload_bytes(const qec::SyndromeTrace& trace,
                     const std::string& workdir) {
  const std::string path = workdir + "/trace.qtrc";
  trace.save(path);
  const std::string bytes = read_file(path);
  std::remove(path.c_str());
  return static_cast<double>(qec::SyndromeTrace::payload_size(
      std::vector<std::uint8_t>(bytes.begin(), bytes.end())));
}

// --------------------------------------------------------------- workloads

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< printed above the JSON line
  std::string outcome;             ///< observed outcome digest
};

/// Work done in the timed phase. Rates divide the total work by the total
/// timed seconds: when the host alternates between fast and slow phases
/// this averages them, where a per-repetition median jumps between modes.
struct Timed {
  double seconds = 0.0;
  double lane_rounds = 0.0;
  double trials = 0.0;
  int reps = 0;

  void add(double s, double rounds, double n) {
    seconds += s;
    lane_rounds += rounds;
    trials += n;
    ++reps;
  }
  void report(Report& r) const {
    r.metrics.push_back(
        {"lane_rounds_per_s", lane_rounds / seconds, "lane-rounds/s"});
    r.metrics.push_back({"trials_per_s", trials / seconds, "trials/s"});
    r.notes.push_back("timed repetitions: " + std::to_string(reps) + " in " +
                      std::to_string(seconds) + " s");
  }
};

// A run is kSetups blocks, each a set-up followed by timed repetitions for
// an equal share of --seconds. Set-up is everything before a block's clock
// starts: building the inputs (pool_qos: recording its trace) and one
// warm-up operation; setup_s reports the median. Spreading the set-ups
// over the run makes them sample the same host conditions as the timed
// work, and ten of them keep one slow set-up from moving the median.
constexpr int kSetups = 10;

/// Runs the blocks and returns the set-up seconds; `rep` runs at least
/// once per block.
template <typename Setup, typename Rep>
std::vector<double> run_blocks(double seconds, const Setup& setup,
                               const Rep& rep) {
  std::vector<double> setups;
  for (int block = 0; block < kSetups; ++block) {
    const auto t0 = Clock::now();
    setup();
    setups.push_back(seconds_since(t0));
    const auto start = Clock::now();
    do {
      rep();
    } while (seconds_since(start) < seconds / kSetups);
  }
  return setups;
}

/// Runs `body`; an exception fails `count` operations (already attempted).
void guarded(Ops& ops, const std::string& what, long count,
             const std::function<void()>& body) {
  try {
    body();
  } catch (const std::exception& e) {
    ops.fail(what + ": " + e.what(), count);
  }
}

qec::StreamConfig stream_sparse_config(std::uint64_t seed) {
  qec::StreamConfig c;
  c.lanes = 4096;
  c.distance = 9;
  c.p = 1e-3;
  c.rounds = 64;
  c.seed = seed;
  c.cycles_per_round = qec::cycles_per_microsecond(160e6);
  c.engines = 0;  // dedicated: K == N
  c.policy = "dedicated";
  c.admission = "overflow";
  c.threads = 1;
  return c;
}

qec::StreamConfig pool_qos_config(std::uint64_t seed) {
  qec::StreamConfig c;
  c.lanes = 2048;
  c.distance = 9;
  c.p = 3e-3;
  c.rounds = 128;
  c.seed = seed;
  c.cycles_per_round = qec::cycles_per_microsecond(160e6);
  c.engines = 512;
  c.policy = "fq";
  c.admission = "codel";
  c.threads = 2;
  return c;
}

void stream_sim_metrics(Report& r, const StreamDigest& d) {
  r.metrics.push_back({"service.lane_rounds", double(d.lane_rounds), "count"});
  r.metrics.push_back({"sched.utilization", d.utilization, "fraction"});
  r.metrics.push_back({"sched.starved_lane_rounds", double(d.starved), "count"});
  r.metrics.push_back(
      {"admission.paused_lane_rounds", double(d.paused), "count"});
  r.metrics.push_back({"service.soj_p99_rounds", d.soj_p99, "rounds"});
  r.metrics.push_back({"service.failed_lane_frac",
                       double(d.failed) / double(d.lanes), "fraction"});
}

/// Mean interval a pair of clock reads measures around no work: the
/// timer's own share of every per-call timing, which call_metrics
/// subtracts (on a KVM guest it is tens of ns, next to 100-300 ns calls).
double timer_overhead_s() {
  constexpr int kPairs = 200000;
  double total = 0.0;
  for (int i = 0; i < kPairs; ++i) {
    const auto t0 = Clock::now();
    total += seconds_since(t0);
  }
  return total / kPairs;
}

void call_metrics(Report& r, const CallTimes& t) {
  const double timer_s = timer_overhead_s();
  // Mean per call with the timer's share removed; 0 when nothing ran.
  const auto per = [&](double total_s, double calls, double count,
                       double scale) {
    return count > 0 ? scale * (total_s - timer_s * calls) / count : 0.0;
  };
  const double pushes = double(t.pushes), spends = double(t.spends);
  r.metrics.push_back(
      {"qecool.push_ns", per(t.push_s, pushes, pushes, 1e9), "ns"});
  r.metrics.push_back(
      {"qecool.spend_ns", per(t.spend_s, spends, spends, 1e9), "ns"});
  r.metrics.push_back({"qecool.cycles", double(t.cycles), "count"});
  r.metrics.push_back({"qecool.host_ns_per_cycle",
                       per(t.spend_s, spends, double(t.cycles), 1e9), "ns"});
  r.metrics.push_back({"decoder.score_us",
                       per(t.score_s, double(t.scored), double(t.scored), 1e6),
                       "us"});
  r.notes.push_back("timer pair overhead subtracted from per-call times: " +
                    std::to_string(1e9 * timer_s) + " ns");
}

/// Each traced record_trace paired with a probe of the noise layer alone,
/// run right after it so both see the same host conditions.
struct RecordPairs {
  std::vector<double> record_s, noise_s;
  double bits = 0.0;  ///< sampled per probe

  void add(SpanLog* spans, const qec::StreamConfig& config, double record) {
    ScopedSpan span(spans, "noise.sample_history");
    bits = 0.0;
    noise_s.push_back(sample_lanes(config, &bits));
    record_s.push_back(record);
  }
};

/// Median over pairs of a[i] - b[i].
double median_difference(const std::vector<double>& a,
                         const std::vector<double>& b) {
  std::vector<double> diff;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    diff.push_back(a[i] - b[i]);
  }
  return median(diff);
}

/// Noise and record-path layer metrics of one recorded trace.
void record_metrics(Report& r, const RecordPairs& pairs,
                    const qec::SyndromeTrace& trace,
                    const std::string& workdir) {
  r.metrics.push_back({"noise.sample_ns_per_bit",
                       1e9 * median(pairs.noise_s) / pairs.bits, "ns/bit"});
  r.metrics.push_back({"noise.bits", pairs.bits, "count"});
  r.metrics.push_back(
      {"trace.record_ms", 1e3 * median(pairs.record_s), "ms"});
  // A difference of two runs: record_trace minus sample_history alone.
  r.metrics.push_back(
      {"trace.pack_ms", 1e3 * median_difference(pairs.record_s, pairs.noise_s),
       "ms"});
  r.metrics.push_back(
      {"trace.payload_bytes", payload_bytes(trace, workdir), "bytes"});
}

/// stream_sparse: a fresh record_trace + run_stream per repetition.
Report run_stream_sparse(const Args& args, Ops& ops, SpanLog* spans) {
  Report r;
  qec::StreamConfig config;
  std::string expected = reference_outcome(args);
  StreamDigest digest;
  qec::SyndromeTrace trace;
  // One repetition (two operations): record + replay, timed together; the
  // outcome check runs after the clock stops. Returns the timed seconds,
  // 0 when an operation threw (failing the pair) or the outcome differed.
  double record_s = 0.0, replay_s = 0.0;  // of the latest repetition
  const auto rep = [&](SpanLog* log) {
    double seconds = 0.0;
    ops.attempted += 2;
    guarded(ops, "stream_sparse record+replay", 2, [&] {
      trace = qec::SyndromeTrace();  // one trace alive at a time
      qec::StreamOutcome outcome;
      const auto t0 = Clock::now();
      {
        ScopedSpan op(log, "op");
        {
          ScopedSpan span(log, "trace.record");
          trace = qec::record_trace(config);
        }
        record_s = seconds_since(t0);
        ScopedSpan span(log, "service.run_stream");
        outcome = qec::run_stream(trace, config);
      }
      const double elapsed = seconds_since(t0);
      replay_s = elapsed - record_s;
      digest = digest_stream(outcome, args.workdir);
      if (ops.expect(expected, digest.text, "stream_sparse run_stream")) {
        seconds = elapsed;
      }
    });
    return seconds;
  };

  // Invariant (one operation): a dedicated stepper per lane agrees with
  // run_stream on the overflow and failed counts. Returns the drive's
  // seconds, which the traced run subtracts from the replay.
  const auto drive = [&] {
    const qec::OnlineConfig online = online_config(config);
    double seconds = 0.0;
    ++ops.attempted;
    guarded(ops, "stream_sparse stepper drive", 1, [&] {
      ScopedSpan span(spans, "qecool.stepper_drive");
      const auto t0 = Clock::now();
      const DriveResult d = drive_trace(trace, online, nullptr);
      seconds = seconds_since(t0);
      if (d.overflow != digest.overflow || d.failed != digest.failed) {
        ops.fail("stream_sparse: stepper drive overflow/failed " +
                 std::to_string(d.overflow) + "/" + std::to_string(d.failed) +
                 " != run_stream " + std::to_string(digest.overflow) + "/" +
                 std::to_string(digest.failed));
      }
    });
    return seconds;
  };

  Timed timed;
  RecordPairs records;
  std::vector<double> untraced, traced, replays, drives;
  const auto setup = [&] {
    config = stream_sparse_config(args.seed);
    rep(nullptr);  // warm-up
    if (r.outcome.empty()) r.outcome = digest.text;
  };
  const std::vector<double> setups = run_blocks(args.seconds, setup, [&] {
    const double t = rep(nullptr);
    if (t <= 0.0) return;
    untraced.push_back(t);
    timed.add(t, double(digest.lane_rounds), double(digest.lanes));
    if (!spans) return;
    if (rep(spans) <= 0.0) return;
    traced.push_back(record_s + replay_s);
    records.add(spans, config, record_s);
    replays.push_back(replay_s);
    drives.push_back(drive());
  });

  if (!spans) {
    drive();
    timed.report(r);
  } else {
    CallTimes calls;
    {
      ScopedSpan span(spans, "qecool.stepper_drive_timed");
      drive_trace(trace, online_config(config), &calls);
    }
    record_metrics(r, records, trace, args.workdir);
    r.metrics.push_back({"service.replay_ms", 1e3 * median(replays), "ms"});
    // A difference of two runs: run_stream minus the bare stepper drive.
    r.metrics.push_back(
        {"service.self_ms", 1e3 * median_difference(replays, drives), "ms"});
    stream_sim_metrics(r, digest);
    call_metrics(r, calls);
    r.metrics.push_back({"bench.trace_overhead_frac",
                         median(traced) / median(untraced) - 1.0, "fraction"});
    r.notes.push_back("traced repetitions: " + std::to_string(traced.size()));
  }
  r.metrics.push_back({"setup_s", median(setups), "s"});
  return r;
}

/// pool_qos: the trace is recorded during set-up; each repetition replays
/// it through the oversubscribed fq/codel pool.
Report run_pool_qos(const Args& args, Ops& ops, SpanLog* spans) {
  Report r;
  qec::StreamConfig config;
  qec::SyndromeTrace trace;
  std::string expected = reference_outcome(args);
  StreamDigest digest;
  // One replay (one operation); returns its seconds, 0 when it threw.
  const auto replay = [&](SpanLog* log, int threads) {
    qec::StreamConfig c = config;
    c.threads = threads;
    double seconds = 0.0;
    ++ops.attempted;
    guarded(ops, "pool_qos run_stream", 1, [&] {
      qec::StreamOutcome outcome;
      const auto t0 = Clock::now();
      {
        ScopedSpan span(log, "service.run_stream:threads=" +
                                 std::to_string(threads));
        outcome = qec::run_stream(trace, c);
      }
      const double elapsed = seconds_since(t0);
      digest = digest_stream(outcome, args.workdir);
      if (ops.expect(expected, digest.text,
                     "pool_qos run_stream threads=" + std::to_string(threads))) {
        seconds = elapsed;
      }
    });
    return seconds;
  };

  Timed timed;
  RecordPairs records;
  std::vector<double> untraced, speedup;
  bool one_first = false;  // alternates which thread count replays first
  const auto setup = [&] {
    ++ops.attempted;
    guarded(ops, "pool_qos record_trace", 1, [&] {
      qec::SyndromeTrace recorded;
      const auto t0 = Clock::now();
      {
        ScopedSpan span(spans, "trace.record");
        config = pool_qos_config(args.seed);
        recorded = qec::record_trace(config);
      }
      if (spans) records.add(spans, config, seconds_since(t0));
      if (trace.lanes() > 0 && !(recorded == trace)) {
        ops.fail("pool_qos: record_trace is not deterministic");
      }
      trace = std::move(recorded);
    });
    replay(nullptr, config.threads);  // warm-up
    if (r.outcome.empty()) r.outcome = digest.text;
  };
  const std::vector<double> setups = run_blocks(args.seconds, setup, [&] {
    const double t = replay(nullptr, config.threads);
    if (t <= 0.0) return;
    untraced.push_back(t);
    timed.add(t, double(digest.lane_rounds), double(digest.lanes));
    if (spans) {
      // Paired replays; alternating their order keeps host drift within a
      // pair from biasing the ratio one way.
      double one = 0.0, two = 0.0;
      if (one_first) one = replay(spans, 1);
      two = replay(spans, config.threads);
      if (!one_first) one = replay(spans, 1);
      one_first = !one_first;
      if (one > 0.0 && two > 0.0) speedup.push_back(one / two);
    }
  });
  if (!spans) {
    // Invariant: one worker thread gives the identical outcome (the traced
    // run replayed at one thread every repetition).
    replay(nullptr, 1);
    timed.report(r);
  } else {
    CallTimes calls;
    {
      ScopedSpan span(spans, "qecool.stepper_drive_timed");
      drive_trace(trace, online_config(config), &calls);
    }
    record_metrics(r, records, trace, args.workdir);
    const std::string two = "service.run_stream:threads=" +
                            std::to_string(config.threads);
    const double replay_ms = median(spans->durations_ms(two));
    r.metrics.push_back({"service.replay_ms", replay_ms, "ms"});
    r.metrics.push_back({"service.thread_speedup", median(speedup), "x"});
    r.metrics.push_back({"service.thread_speedup_iqr", iqr(speedup), "x"});
    stream_sim_metrics(r, digest);
    call_metrics(r, calls);
    r.metrics.push_back({"bench.trace_overhead_frac",
                         replay_ms / (1e3 * median(untraced)) - 1.0,
                         "fraction"});
    r.notes.push_back("traced repetitions: " + std::to_string(speedup.size()) +
                      ", service.thread_speedup samples:");
    for (const double s : speedup) r.notes.back() += " " + std::to_string(s);
  }
  r.metrics.push_back({"setup_s", median(setups), "s"});
  return r;
}

// ------------------------------------------------------------ mc_threshold

constexpr const char* kOnline = "qecool-online-2GHz";
constexpr const char* kMwpm = "mwpm";
// Trials per cell, set so each decoder takes a third to two thirds of a
// sweep's time.
constexpr int kOnlineTrials = 1600;
constexpr int kMwpmTrials = 320;

/// On-line QECOOL at 2 GHz with a 1 us round (paper fig 7's p_th ~ 1%).
qec::OnlineConfig online_2ghz() {
  qec::OnlineConfig online;
  online.cycles_per_round = qec::cycles_per_microsecond(2e9);
  return online;
}

std::vector<qec::SweepGrid> mc_grids(std::uint64_t seed, int threads) {
  qec::SweepGrid on;
  on.variants.push_back(qec::online_variant(kOnline, online_2ghz()));
  on.distances = {5, 7, 9, 11, 13};
  on.ps = {0.005, 0.0075, 0.01, 0.015};
  on.trials = kOnlineTrials;
  on.seed = seed;
  on.threads = threads;
  on.shards = 16;
  qec::SweepGrid mwpm = on;
  mwpm.variants = {qec::decoder_variant(kMwpm, "mwpm")};
  mwpm.distances = {5, 7, 9};
  mwpm.trials = kMwpmTrials;
  return {on, mwpm};
}

std::string cell_text(const qec::SweepCell& cell) {
  std::ostringstream text;
  text << cell.variant << ":d" << cell.distance << ":p" << cell.p
       << ":t" << cell.result.trials << ":f" << cell.result.failures
       << ":o" << cell.result.operational_failures;
  return text.str();
}

struct SweepRun {
  std::vector<qec::SweepResult> results;  ///< one per grid
  std::vector<double> seconds;            ///< one per grid
  double trials = 0.0;
  double lane_rounds = 0.0;  ///< stored syndrome rounds, (d + 1) per trial
  bool ok = true;            ///< every cell ran and matched
};

/// Per-trial host time of each layer of the sweep pipeline.
struct TrialTimes {
  double sample_s = 0.0, online_s = 0.0, mwpm_s = 0.0, bits = 0.0;
  double online_trials = 0.0, mwpm_trials = 0.0;
  CallTimes calls;  ///< stepper push/spend and logical_failure scoring
};

/// Calls fn(history) for every trial of a sweep cell, in the sweep's
/// shard order on the shard's own RNG stream and trial split. Returns the
/// seconds spent in sample_history and adds the sampled bits.
template <typename Fn>
double for_each_trial(const qec::ExperimentConfig& config,
                      const qec::PlanarLattice& lattice, double* bits,
                      const Fn& fn) {
  const qec::NoiseParams params{config.p_data, config.p_meas, config.rounds};
  const int shards = qec::resolve_shards(config);
  double sample_s = 0.0;
  for (int shard = 0; shard < shards; ++shard) {
    qec::Xoshiro256ss rng = qec::experiment_rng(config, shard);
    const int trials =
        config.trials / shards + (shard < config.trials % shards ? 1 : 0);
    for (int trial = 0; trial < trials; ++trial) {
      const auto t0 = Clock::now();
      const qec::SyndromeHistory history =
          qec::sample_history(lattice, params, rng);
      sample_s += seconds_since(t0);
      *bits += double(history.difference.size()) *
               (lattice.num_checks() + lattice.num_data());
      fn(history);
    }
  }
  return sample_s;
}

/// Re-runs one sweep cell trial by trial at one thread (sample_history ->
/// decode -> logical_failure), timing each layer call, and returns the
/// cell outcome text, which must equal the sweep's. On-line cells then
/// replay the same trials through a bare stepper for push/spend timings.
std::string replay_cell(const qec::SweepCell& cell, bool online_cell,
                        TrialTimes& t) {
  const qec::PlanarLattice lattice(cell.config.distance);
  const qec::OnlineConfig online = online_2ghz();
  const auto mwpm = online_cell ? nullptr : qec::make_decoder("mwpm");
  qec::ExperimentResult result;
  t.sample_s += for_each_trial(
      cell.config, lattice, &t.bits, [&](const qec::SyndromeHistory& history) {
        bool failed = false;
        qec::BitVec correction;
        const auto t0 = Clock::now();
        if (online_cell) {
          qec::OnlineResult run = qec::run_online(lattice, history, online);
          t.online_s += seconds_since(t0);
          ++t.online_trials;
          failed = run.failed_operationally();
          if (failed) ++result.operational_failures;
          correction = std::move(run.correction);
        } else {
          correction = mwpm->decode(lattice, history).correction;
          t.mwpm_s += seconds_since(t0);
          ++t.mwpm_trials;
        }
        failed = failed || logically_wrong(lattice, correction,
                                           history.final_error, &t.calls);
        if (failed) ++result.failures;
        ++result.trials;
      });
  if (online_cell) {
    double bits = 0.0;
    for_each_trial(cell.config, lattice, &bits,
                   [&](const qec::SyndromeHistory& history) {
                     std::vector<const qec::BitVec*> layers;
                     for (const auto& layer : history.difference) {
                       layers.push_back(&layer);
                     }
                     qec::OnlineStepper stepper(lattice, online);
                     drive_lane(stepper, layers, online, &t.calls);
                   });
  }
  qec::SweepCell replayed = cell;
  replayed.result = result;
  return cell_text(replayed);
}

Report run_mc_threshold(const Args& args, Ops& ops, SpanLog* spans) {
  Report r;
  std::vector<qec::SweepGrid> grids = mc_grids(args.seed, 2);
  const std::vector<qec::SweepGrid> grids_1t = mc_grids(args.seed, 1);

  // Expected outcome per cell, in sweep order; the stored reference digest
  // is the cells' texts joined by spaces.
  std::size_t cells = 0;
  for (const auto& grid : grids) cells += grid.distances.size() * grid.ps.size();
  std::vector<std::string> expected;
  {
    std::istringstream reference(reference_outcome(args));
    std::string cell;
    while (reference >> cell) expected.push_back(cell);
  }
  if (!expected.empty() && expected.size() != cells) {
    throw std::runtime_error("reference digest has " +
                             std::to_string(expected.size()) + " cells, the " +
                             "sweep " + std::to_string(cells));
  }
  expected.resize(cells);

  // One repetition: both sweeps; every cell is one operation.
  const auto sweep = [&](const std::vector<qec::SweepGrid>& gs, SpanLog* log) {
    SweepRun run;
    std::size_t grid_start = 0;  // index of the grid's first cell
    for (const qec::SweepGrid& grid : gs) {
      const long grid_cells = long(grid.distances.size() * grid.ps.size());
      std::size_t cell_index = grid_start;
      grid_start += static_cast<std::size_t>(grid_cells);
      const std::string label = grid.variants.front().label;
      ops.attempted += grid_cells;
      qec::SweepResult result;
      double seconds = 0.0;
      bool returned = false;
      guarded(ops, "mc_threshold run_sweep " + label, grid_cells, [&] {
        ScopedSpan span(log, "sim.run_sweep:" + label + ":threads=" +
                                 std::to_string(grid.threads));
        std::int64_t cell_start = log ? log->now_ns() : 0;
        const auto progress = [&](const qec::SweepCell&) {
          if (!log) return;
          const std::int64_t now = log->now_ns();
          log->add("sim.cell:" + label, cell_start, now);
          cell_start = now;
        };
        const auto t0 = Clock::now();
        result = qec::run_sweep(grid, "", progress);
        seconds = seconds_since(t0);
        returned = true;
      });
      run.ok &= returned;
      for (const qec::SweepCell& cell : result.cells) {
        run.trials += double(cell.result.trials);
        run.lane_rounds += double(cell.result.trials) * (cell.config.rounds + 1);
        run.ok &= ops.expect(expected[cell_index], cell_text(cell),
                             "mc_threshold cell " + std::to_string(cell_index));
        ++cell_index;
      }
      run.results.push_back(std::move(result));
      run.seconds.push_back(seconds);
    }
    return run;
  };

  SweepRun first;
  Timed timed;
  std::vector<double> untraced, traced, speedup, online_rps, mwpm_rps;
  bool one_first = false;
  const auto setup = [&] {
    grids = mc_grids(args.seed, 2);
    SweepRun warm = sweep(grids, nullptr);  // warm-up
    if (first.results.empty()) first = std::move(warm);
  };
  const std::vector<double> setups = run_blocks(args.seconds, setup, [&] {
    const SweepRun run = sweep(grids, nullptr);
    if (!run.ok) return;
    const double t = sum(run.seconds);
    untraced.push_back(t);
    timed.add(t, run.lane_rounds, run.trials);
    if (spans) {
      // Paired sweeps in alternating order, as for pool_qos's replays.
      SweepRun one, two;
      if (one_first) one = sweep(grids_1t, spans);
      two = sweep(grids, spans);
      if (!one_first) one = sweep(grids_1t, spans);
      one_first = !one_first;
      if (!two.ok || !one.ok) return;
      traced.push_back(sum(two.seconds));
      speedup.push_back(sum(one.seconds) / sum(two.seconds));
      double online_trials = 0.0, mwpm_trials = 0.0;
      for (const auto& cell : two.results[0].cells) {
        online_trials += double(cell.result.trials);
      }
      for (const auto& cell : two.results[1].cells) {
        mwpm_trials += double(cell.result.trials);
      }
      online_rps.push_back(online_trials / two.seconds[0]);
      mwpm_rps.push_back(mwpm_trials / two.seconds[1]);
    }
  });

  for (const auto& result : first.results) {
    for (const auto& cell : result.cells) {
      if (!r.outcome.empty()) r.outcome += ' ';
      r.outcome += cell_text(cell);
    }
  }
  if (!spans) {
    // Invariant: one worker thread gives identical cells (the traced run
    // swept at one thread every repetition).
    sweep(grids_1t, nullptr);
    timed.report(r);
  } else {
    // The trial-by-trial replay sits between two one-thread sweeps, so the
    // two halves of sim.self_frac see the same host conditions.
    TrialTimes t;
    const SweepRun before = sweep(grids_1t, spans);
    {
      ScopedSpan span(spans, "sim.trial_replay:threads=1");
      std::size_t cell_index = 0;
      for (std::size_t g = 0; g < first.results.size(); ++g) {
        for (const qec::SweepCell& cell : first.results[g].cells) {
          ++ops.attempted;
          guarded(ops, "mc_threshold trial replay", 1, [&] {
            ops.expect(expected[cell_index], replay_cell(cell, g == 0, t),
                       "mc_threshold trial replay cell " +
                           std::to_string(cell_index));
          });
          ++cell_index;
        }
      }
    }
    const SweepRun after = sweep(grids_1t, spans);
    const double sweep_1t_s = 0.5 * (sum(before.seconds) + sum(after.seconds));
    const double pipeline_s =
        t.sample_s + t.online_s + t.mwpm_s + t.calls.score_s;
    r.metrics.push_back({"noise.sample_ns_per_bit",
                         1e9 * t.sample_s / std::max(1.0, t.bits), "ns/bit"});
    r.metrics.push_back({"noise.bits", t.bits, "count"});
    call_metrics(r, t.calls);
    r.metrics.push_back({"qecool.run_online_us",
                         1e6 * t.online_s / std::max(1.0, t.online_trials),
                         "us"});
    r.metrics.push_back({"mwpm.decode_us",
                         1e6 * t.mwpm_s / std::max(1.0, t.mwpm_trials), "us"});
    r.metrics.push_back(
        {"sim.online_trials_per_s", median(online_rps), "trials/s"});
    r.metrics.push_back({"sim.mwpm_trials_per_s", median(mwpm_rps), "trials/s"});
    r.metrics.push_back(
        {"sim.self_frac", 1.0 - pipeline_s / sweep_1t_s, "fraction"});
    r.metrics.push_back({"sim.thread_speedup", median(speedup), "x"});
    r.metrics.push_back({"bench.trace_overhead_frac",
                         median(traced) / median(untraced) - 1.0, "fraction"});
    r.notes.push_back("traced repetitions: " + std::to_string(traced.size()));
  }

  // Paper anchor (information only): threshold crossings of the sampled
  // curves next to the paper's values.
  if (first.results.size() == 2) {
    const auto show = [](const std::optional<double>& p) {
      return p ? std::to_string(*p) : std::string("no crossing for p <= 0.015");
    };
    r.notes.push_back("p_th on-line QECOOL @ 2 GHz: " +
                      show(first.results[0].threshold(kOnline)) +
                      "   (paper fig 7: ~0.010)");
    r.notes.push_back("p_th MWPM: " + show(first.results[1].threshold(kMwpm)) +
                      "   (paper fig 4a: ~0.030)");
  }
  r.metrics.push_back({"setup_s", median(setups), "s"});
  return r;
}

// -------------------------------------------------------------------- main

/// Every per-layer metric the traced run reports; a layer a workload does
/// not exercise reads 0 there (README.md lists which apply where).
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"noise.sample_ns_per_bit", "ns/bit"},
      {"noise.bits", "count"},
      {"trace.record_ms", "ms"},
      {"trace.pack_ms", "ms"},
      {"trace.payload_bytes", "bytes"},
      {"service.replay_ms", "ms"},
      {"service.lane_rounds", "count"},
      {"service.self_ms", "ms"},
      {"service.thread_speedup", "x"},
      {"service.thread_speedup_iqr", "x"},
      {"sched.utilization", "fraction"},
      {"sched.starved_lane_rounds", "count"},
      {"admission.paused_lane_rounds", "count"},
      {"service.soj_p99_rounds", "rounds"},
      {"service.failed_lane_frac", "fraction"},
      {"qecool.push_ns", "ns"},
      {"qecool.spend_ns", "ns"},
      {"qecool.cycles", "count"},
      {"qecool.host_ns_per_cycle", "ns"},
      {"qecool.run_online_us", "us"},
      {"mwpm.decode_us", "us"},
      {"decoder.score_us", "us"},
      {"sim.online_trials_per_s", "trials/s"},
      {"sim.mwpm_trials_per_s", "trials/s"},
      {"sim.self_frac", "fraction"},
      {"sim.thread_speedup", "x"},
      {"bench.trace_overhead_frac", "fraction"},
  };
  return names;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      throw std::invalid_argument("expected --key=value, got '" + arg + "'");
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      args.workload = value;
    } else if (key == "seed") {
      args.seed = std::stoull(value);
    } else if (key == "seconds") {
      args.seconds = std::stod(value);
    } else if (key == "trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace must be 0 or 1");
      }
      args.trace = value == "1";
    } else if (key == "workdir") {
      args.workdir = value;
    } else if (key == "reference") {
      args.reference = value;
    } else {
      throw std::invalid_argument("unknown option --" + key);
    }
  }
  if (args.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qecool_perfbench: %s\n", e.what());
    return 2;
  }
  const std::map<std::string, Report (*)(const Args&, Ops&, SpanLog*)>
      workloads = {{"stream_sparse", run_stream_sparse},
                   {"pool_qos", run_pool_qos},
                   {"mc_threshold", run_mc_threshold}};
  const auto workload = workloads.find(args.workload);
  if (workload == workloads.end()) {
    std::fprintf(stderr, "qecool_perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  Ops ops;
  SpanLog spans;
  Report report;
  try {
    report = workload->second(args, ops, args.trace ? &spans : nullptr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qecool_perfbench: %s\n", e.what());
    return 2;
  }
  if (ops.attempted < 1) {
    ops.attempted = 1;
    ops.fail("no operation ran");
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    for (const auto& [name, unit] : layer_metrics()) {
      double value = 0.0;
      for (const Metric& m : report.metrics) {
        if (m.name == name) value = m.value;
      }
      metrics.push_back({name, value, unit});
    }
    const std::string path = args.workdir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".jsonl";
    try {
      spans.write(path);
      std::printf("spans written to %s\n", path.c_str());
    } catch (const std::exception& e) {
      ops.fail(e.what());
    }
    std::printf("%-36s %12s %12s\n", "span", "total ms", "self ms");
    for (const auto& [name, t] : spans.totals_ms()) {
      std::printf("%-36s %12.3f %12.3f\n", name.c_str(), t.first, t.second);
    }
  } else {
    for (const Metric& m : report.metrics) metrics.push_back(m);
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  }

  const double failed_frac = double(ops.failed) / double(ops.attempted);
  std::printf("workload %s  seed %llu  trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  for (const std::string& note : report.notes) std::printf("%s\n", note.c_str());
  for (const std::string& error : ops.errors) {
    std::printf("FAILED: %s\n", error.c_str());
  }
  std::printf("outcome: %s\n", report.outcome.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-30s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-30s %18.6f %s  (%ld of %ld operations)\n", "failed_ops_frac",
              failed_frac, "fraction", ops.failed, ops.attempted);

  const bool correct = ops.failed == 0;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(ops.attempted) +
                     ", \"failed\": " + std::to_string(ops.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", " : "") + std::string("\"") + metrics[i].name +
            "\": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
