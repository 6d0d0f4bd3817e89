#include "stream/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/csv.hpp"

namespace qec {
namespace {

std::string fmt_double(double value, const char* spec = "%.6g") {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), spec, value);
  return buffer;
}

}  // namespace

RankSummary rank_summary(std::vector<std::uint64_t> samples) {
  RankSummary summary;
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  const auto pct = [&samples](double q) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q / 100.0 * static_cast<double>(samples.size())));
    return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
  };
  std::uint64_t sum = 0;
  for (const std::uint64_t v : samples) sum += v;
  summary.count = samples.size();
  summary.p50 = pct(50);
  summary.p95 = pct(95);
  summary.p99 = pct(99);
  summary.max = samples.back();
  summary.mean = static_cast<double>(sum) / static_cast<double>(samples.size());
  return summary;
}

double LaneTelemetry::mean_depth() const {
  std::uint64_t rounds = 0, weighted = 0;
  for (std::size_t k = 0; k < depth_hist.size(); ++k) {
    rounds += depth_hist[k];
    weighted += depth_hist[k] * k;
  }
  return rounds ? static_cast<double>(weighted) / static_cast<double>(rounds)
                : 0.0;
}

int LaneTelemetry::max_depth() const {
  for (std::size_t k = depth_hist.size(); k-- > 0;) {
    if (depth_hist[k]) return static_cast<int>(k);
  }
  return 0;
}

void LaneTelemetry::merge(const LaneTelemetry& other) {
  overflow |= other.overflow;
  drained &= other.drained;
  logical_failure |= other.logical_failure;
  rounds_streamed += other.rounds_streamed;
  drain_rounds += other.drain_rounds;
  served_rounds += other.served_rounds;
  starved_rounds += other.starved_rounds;
  paused_rounds += other.paused_rounds;
  pauses += other.pauses;
  resumes += other.resumes;
  popped_layers += other.popped_layers;
  total_cycles += other.total_cycles;
  if (depth_hist.size() < other.depth_hist.size()) {
    depth_hist.resize(other.depth_hist.size(), 0);
  }
  for (std::size_t k = 0; k < other.depth_hist.size(); ++k) {
    depth_hist[k] += other.depth_hist[k];
  }
  layer_cycles.insert(layer_cycles.end(), other.layer_cycles.begin(),
                      other.layer_cycles.end());
  sojourn_rounds.insert(sojourn_rounds.end(), other.sojourn_rounds.begin(),
                        other.sojourn_rounds.end());
  matches.merge(other.matches);
}

LaneTelemetry StreamTelemetry::aggregate() const {
  LaneTelemetry all;
  all.lane = -1;
  all.drained = !lanes.empty();
  for (const auto& lane : lanes) all.merge(lane);
  return all;
}

int StreamTelemetry::overflow_lanes() const {
  return static_cast<int>(std::count_if(
      lanes.begin(), lanes.end(), [](const auto& l) { return l.overflow; }));
}

int StreamTelemetry::drained_lanes() const {
  return static_cast<int>(std::count_if(
      lanes.begin(), lanes.end(), [](const auto& l) { return l.drained; }));
}

int StreamTelemetry::failed_lanes() const {
  return static_cast<int>(std::count_if(
      lanes.begin(), lanes.end(), [](const auto& l) { return l.failed(); }));
}

int StreamTelemetry::ever_paused_lanes() const {
  return static_cast<int>(std::count_if(
      lanes.begin(), lanes.end(), [](const auto& l) { return l.pauses > 0; }));
}

double StreamTelemetry::pool_utilization() const {
  std::int64_t busy = 0, idle = 0;
  for (const auto& e : engine_stats) {
    busy += e.busy_rounds;
    idle += e.idle_rounds;
  }
  return busy + idle
             ? static_cast<double>(busy) / static_cast<double>(busy + idle)
             : 0.0;
}

double StreamTelemetry::fairness_index() const {
  double sum = 0.0, sum_sq = 0.0;
  for (const auto& lane : lanes) {
    const auto s = static_cast<double>(lane.served_rounds);
    sum += s;
    sum_sq += s * s;
  }
  if (sum_sq <= 0.0) return 1.0;
  return sum * sum / (static_cast<double>(lanes.size()) * sum_sq);
}

bool StreamTelemetry::write_csv(const std::string& path) const {
  std::size_t depth_bins = 0;
  for (const auto& lane : lanes) {
    depth_bins = std::max(depth_bins, lane.depth_hist.size());
  }

  std::vector<std::string> header = {
      "lane",         "distance",     "p",
      "engine",       "budget",       "overflow",
      "drained",      "logical_fail", "rounds",
      "drain_rounds", "popped",       "total_cycles",
      "cyc_p50",      "cyc_p95",      "cyc_p99",
      "cyc_max",      "depth_mean",   "depth_max"};
  for (std::size_t k = 0; k < depth_bins; ++k) {
    header.push_back("depth_" + std::to_string(k));
  }
  CsvWriter csv(path, header);
  if (!csv.ok()) return false;

  const auto emit = [&](const LaneTelemetry& t, const std::string& label,
                        std::uint64_t overflow_count,
                        std::uint64_t drained_count,
                        std::uint64_t logical_count) {
    const RankSummary cyc = rank_summary(t.layer_cycles);
    std::vector<std::string> row = {
        label,
        std::to_string(distance),
        fmt_double(p),
        engine,
        fmt_double(cycles_per_round),
        std::to_string(overflow_count),
        std::to_string(drained_count),
        std::to_string(logical_count),
        std::to_string(t.rounds_streamed),
        std::to_string(t.drain_rounds),
        std::to_string(t.popped_layers),
        std::to_string(t.total_cycles),
        std::to_string(cyc.p50),
        std::to_string(cyc.p95),
        std::to_string(cyc.p99),
        std::to_string(cyc.max),
        fmt_double(t.mean_depth(), "%.4f"),
        std::to_string(t.max_depth())};
    for (std::size_t k = 0; k < depth_bins; ++k) {
      row.push_back(std::to_string(
          k < t.depth_hist.size() ? t.depth_hist[k] : std::uint64_t{0}));
    }
    csv.add_row(row);
  };

  for (const auto& lane : lanes) {
    emit(lane, std::to_string(lane.lane), lane.overflow ? 1 : 0,
         lane.drained ? 1 : 0, lane.logical_failure ? 1 : 0);
  }
  emit(aggregate(), "all", static_cast<std::uint64_t>(overflow_lanes()),
       static_cast<std::uint64_t>(drained_lanes()),
       static_cast<std::uint64_t>(std::count_if(
           lanes.begin(), lanes.end(),
           [](const auto& l) { return l.logical_failure; })));
  csv.flush();
  return true;
}

bool StreamTelemetry::write_schedule_csv(const std::string& path) const {
  CsvWriter csv(path, {"kind", "id", "policy", "admission", "engines",
                       "lanes", "rounds_active", "rounds_inactive",
                       "paused_rounds", "pauses", "resumes", "cycles",
                       "utilization", "fairness"});
  if (!csv.ok()) return false;

  const std::string pool_engines = std::to_string(engines);
  const std::string pool_lanes = std::to_string(lanes.size());
  std::int64_t busy = 0, idle = 0;
  std::uint64_t cycles = 0;
  for (const auto& e : engine_stats) {
    busy += e.busy_rounds;
    idle += e.idle_rounds;
    cycles += e.cycles;
    csv.add_row({"engine", std::to_string(e.engine), policy, admission,
                 pool_engines, pool_lanes, std::to_string(e.busy_rounds),
                 std::to_string(e.idle_rounds), "", "", "",
                 std::to_string(e.cycles), fmt_double(e.utilization(), "%.4f"),
                 ""});
  }
  int paused_rounds = 0, pauses = 0, resumes = 0;
  for (const auto& lane : lanes) {
    paused_rounds += lane.paused_rounds;
    pauses += lane.pauses;
    resumes += lane.resumes;
    csv.add_row({"lane", std::to_string(lane.lane), policy, admission,
                 pool_engines, pool_lanes, std::to_string(lane.served_rounds),
                 std::to_string(lane.starved_rounds),
                 std::to_string(lane.paused_rounds),
                 std::to_string(lane.pauses), std::to_string(lane.resumes),
                 std::to_string(lane.total_cycles), "", ""});
  }
  csv.add_row({"pool", "all", policy, admission, pool_engines, pool_lanes,
               std::to_string(busy), std::to_string(idle),
               std::to_string(paused_rounds), std::to_string(pauses),
               std::to_string(resumes), std::to_string(cycles),
               fmt_double(pool_utilization(), "%.4f"),
               fmt_double(fairness_index(), "%.4f")});
  csv.flush();
  return true;
}

bool StreamTelemetry::write_latency_csv(const std::string& path) const {
  CsvWriter csv(path, {"lane", "distance", "p", "engine", "policy",
                       "admission", "engines", "budget", "pauses",
                       "paused_rounds", "samples", "soj_p50", "soj_p95",
                       "soj_p99", "soj_max", "soj_mean"});
  if (!csv.ok()) return false;

  const std::string pool_engines = std::to_string(engines);
  const auto emit = [&](const LaneTelemetry& t, const std::string& label) {
    const RankSummary soj = rank_summary(t.sojourn_rounds);
    csv.add_row({label, std::to_string(distance), fmt_double(p), engine,
                 policy, admission, pool_engines,
                 fmt_double(cycles_per_round), std::to_string(t.pauses),
                 std::to_string(t.paused_rounds), std::to_string(soj.count),
                 std::to_string(soj.p50), std::to_string(soj.p95),
                 std::to_string(soj.p99), std::to_string(soj.max),
                 fmt_double(soj.mean, "%.4f")});
  };

  for (const auto& lane : lanes) emit(lane, std::to_string(lane.lane));
  emit(aggregate(), "all");
  csv.flush();
  return true;
}

bool StreamTelemetry::write_timeline_csv(const std::string& path) const {
  CsvWriter csv(path, {"round", "phase", "live", "served", "starved",
                       "paused", "overflowed", "depth_sum", "depth_mean",
                       "depth_max", "cycles", "watts"});
  if (!csv.ok()) return false;
  const std::string watts_col = fmt_double(watts);
  for (const auto& s : timeline) {
    csv.add_row({std::to_string(s.round), s.drain ? "drain" : "stream",
                 std::to_string(s.live_lanes), std::to_string(s.served_lanes),
                 std::to_string(s.starved_lanes),
                 std::to_string(s.paused_lanes),
                 std::to_string(s.overflowed_lanes),
                 std::to_string(s.depth_sum),
                 fmt_double(s.depth_mean(), "%.4f"),
                 std::to_string(s.depth_max), std::to_string(s.cycles),
                 watts_col});
  }
  csv.flush();
  return true;
}

}  // namespace qec
