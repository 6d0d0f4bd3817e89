#include "stream/service.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <utility>

#include <cstdio>

#include "common/json.hpp"
#include "decoder/registry.hpp"
#include "obs/postmortem.hpp"
#include "qecool/online_runner.hpp"
#include "sim/executor.hpp"
#include "stream/admission.hpp"
#include "stream/qos.hpp"
#include "stream/scheduler.hpp"
#include "surface_code/planar_lattice.hpp"

namespace qec {
namespace {

/// Lane k's noise stream: the seed mixed with the lane index and every
/// structural parameter through SplitMix64 avalanches (the experiment_rng
/// recipe), so streams are independent per lane and stable under changes
/// to lane count, thread count, or scheduling.
Xoshiro256ss lane_rng(const StreamConfig& config, int lane, int rounds) {
  std::uint64_t state = config.seed;
  const auto feed = [&state](std::uint64_t value) {
    state ^= value;
    state = splitmix64(state);
  };
  feed(static_cast<std::uint64_t>(lane));
  feed(static_cast<std::uint64_t>(config.distance));
  feed(static_cast<std::uint64_t>(rounds));
  feed(std::bit_cast<std::uint64_t>(config.p));
  return Xoshiro256ss(state);
}

struct Lane {
  Lane(const PlanarLattice& lattice, const OnlineConfig& online, int id,
       int depth_bins)
      : stepper(lattice, online) {
    telemetry.lane = id;
    telemetry.depth_hist.assign(static_cast<std::size_t>(depth_bins), 0);
  }

  /// Stored Reg layers: the lane's queue depth.
  int depth() const { return stepper.engine().stored_layers(); }

  void record_depth() {
    const auto bin = static_cast<std::size_t>(depth());
    if (bin < telemetry.depth_hist.size()) ++telemetry.depth_hist[bin];
  }

  /// Overflowed, or consumed the whole trace and drained its queue. A
  /// paused lane is never finished: its clock is frozen mid-stream.
  bool finished(int trace_rounds) const {
    if (stepper.overflowed()) return true;
    return !stepper.paused() && cursor >= trace_rounds && stepper.drained();
  }

  OnlineStepper stepper;
  LaneTelemetry telemetry;

  /// Sojourn clock: timestamps every pushed layer with the global round
  /// and closes a latency sample on every pop spend() reports. Mutated
  /// only inside the lane-parallel region (lane-local); read on the
  /// scheduling thread between dispatches (head_age for CoDel).
  LatencyTracker qos;

  /// CoDel control law state (admission=codel only); driven on the
  /// scheduling thread in lane order.
  CodelControl codel;

  /// Next trace layer this lane will consume; past the trace end the lane
  /// pushes clean drain layers. A paused lane's cursor freezes while the
  /// global round marches on.
  int cursor = 0;

  /// Observability (src/obs): the lane's event track, null when tracing
  /// is off — every hook below guards on it, so a disabled tracer costs
  /// one branch. Written only inside the lane-parallel region (plus the
  /// scheduling thread between joins), so the ring stays single-writer.
  obs::Track* track = nullptr;

  /// Sojourn samples already fed to the metrics histogram. The parallel
  /// region records the cumulative sample count per (lane, round) slot;
  /// the reduction consumes the delta in fixed round order, so the
  /// windowed histogram is invariant under threads and batching.
  std::size_t obs_consumed = 0;
};

/// The service's windowed instruments. Registration order is CSV column
/// order — keep it stable, goldens pin it.
enum Metric : int {
  kPushes, kDrainPushes, kPops, kServes, kStarves, kOverflows, kPauses,
  kResumes, kLiveLanes, kPausedLanes, kOverflowedLanes, kDepth, kSojourn,
  kMetricCount,
};

/// A counter sums its RoundSample field over the window, a gauge reports
/// the field's value at the window's close; the two histograms have no
/// field — they observe every lane's depth and sojourn samples instead.
struct MetricDef {
  const char* name;
  int (obs::MetricsRegistry::*add)(const std::string&);
  int RoundSample::*field;
};

constexpr auto kCounter = &obs::MetricsRegistry::add_counter;
constexpr auto kGauge = &obs::MetricsRegistry::add_gauge;
constexpr auto kHistogram = &obs::MetricsRegistry::add_histogram;

constexpr MetricDef kMetricDefs[kMetricCount] = {
    {"pushes", kCounter, &RoundSample::pushes},
    {"drain_pushes", kCounter, &RoundSample::drain_pushes},
    {"pops", kCounter, &RoundSample::pops},
    {"serves", kCounter, &RoundSample::served_lanes},
    {"starves", kCounter, &RoundSample::starved_lanes},
    {"overflows", kCounter, &RoundSample::overflows},
    {"pauses", kCounter, &RoundSample::pauses},
    {"resumes", kCounter, &RoundSample::resumes},
    {"live_lanes", kGauge, &RoundSample::live_lanes},
    {"paused_lanes", kGauge, &RoundSample::paused_lanes},
    {"overflowed_lanes", kGauge, &RoundSample::overflowed_lanes},
    {"depth", kHistogram, nullptr},
    {"sojourn", kHistogram, nullptr},
};

/// Wall-clock profile feed, one counter per obs::Stage in stage order.
constexpr const char* kProfileMetrics[obs::kStageCount] = {
    "prof_dispatch_ns", "prof_lane_ns", "prof_reduce_ns", "prof_telemetry_ns",
    "prof_export_ns"};

/// Orchestrates the shared engine pool over one run. Each dispatch covers
/// up to `batch` rounds: admission transitions, then the policy's
/// engine->lane assignments plus drain grants for paused lanes (on the
/// calling thread, in round order), then lane-parallel execution with all
/// writes going to lane-local slots, then one reduction of engine
/// accounting and the round timeline on the calling thread — so every
/// outcome and CSV is independent of the worker-thread count.
class PoolScheduler {
 public:
  PoolScheduler(std::vector<Lane>& lanes, const SyndromeTrace& trace,
                SchedulerPolicy& policy, int engines,
                const StreamConfig& config, const AdmissionConfig& admission,
                StreamTelemetry& telemetry,
                obs::Tracer* tracer, obs::MetricsRegistry* metrics,
                obs::Profiler* profiler)
      : lanes_(lanes),
        trace_(trace),
        policy_(policy),
        config_(config),
        admission_(admission),
        telemetry_(telemetry),
        tracer_(tracer),
        metrics_(metrics),
        profiler_(profiler),
        engines_(engines),
        // Multi-round batches need a policy that never reads lane state
        // and a law that never pauses; everything else needs fresh queue
        // depths every round.
        batch_(policy.dynamic() || admission.pause()
                   ? 1 : config.rounds_per_dispatch) {
    telemetry_.engine_stats.resize(static_cast<std::size_t>(engines_));
    for (int e = 0; e < engines_; ++e) {
      telemetry_.engine_stats[static_cast<std::size_t>(e)].engine = e;
    }
    depth_.resize(lanes_.size());
    finished_.resize(lanes_.size());
    paused_.resize(lanes_.size());
    assignment_.assign(static_cast<std::size_t>(engines_), -1);
    if (metrics_) {
      std::size_t k = 0;
      for (const MetricDef& def : kMetricDefs) {
        m_[k++] = (metrics_->*def.add)(def.name);
      }
      // Only with profiling on, so the default schema is untouched: these
      // columns measure real time, the ONE part of the CSV exempt from the
      // byte-identical contract. trace_export runs after the run, so its
      // column stays 0 here and lives in the profile CSV instead.
      if (profiler_) {
        for (int s = 0; s < obs::kStageCount; ++s) {
          m_prof_[static_cast<std::size_t>(s)] =
              metrics_->add_counter(kProfileMetrics[s]);
        }
      }
    }
  }

  int batch() const { return batch_; }

  /// Runs `count` rounds starting at global round `start`. Every unfinished
  /// lane takes part: an admitted lane pushes the trace layer at its
  /// cursor (a clean layer once the trace is consumed), a paused lane only
  /// spends whatever grant it receives. Returns false, running nothing,
  /// once every lane has finished.
  bool dispatch(std::int64_t start, int count) {
    const auto slots = lanes_.size() * static_cast<std::size_t>(count);
    grant_.assign(slots, -1);
    cycles_.assign(slots, 0);
    flags_.assign(slots, 0);
    depth_scratch_.assign(slots, 0);
    pops_.assign(slots, 0);
    samples_after_.assign(slots, 0);
    {
      // Profiler stage scopes (here and below) cost one branch each when
      // profiling is off and never touch any outcome — timing is observed,
      // not consulted.
      obs::ScopedStage prof(profiler_, obs::Stage::kDispatchAssign);
      if (!admit(start)) return false;
      assign(start, count);
    }
    execute(start, count);
    reduce(start, count);
    return true;
  }

  /// Flushes the trailing partial metrics window (feeding it the last
  /// profile deltas first) — the run_stream epilogue. Transitions the
  /// final admission pass applied (a resume that finished the last lane)
  /// have no round to ride on; the registry folds them into its last
  /// window, so every counter column still sums to the whole-run total.
  void finish_metrics() {
    if (!metrics_) return;
    obs::ScopedStage prof_close(profiler_, obs::Stage::kTelemetryClose);
    metrics_->count(m_[kPauses], static_cast<std::uint64_t>(pending_.pauses));
    metrics_->count(m_[kResumes], static_cast<std::uint64_t>(pending_.resumes));
    feed_profile();
    metrics_->finish();
  }

 private:
  /// Pre-round lane state and admission transitions, in lane order: the
  /// policy view (depth, finished, paused) and the paused lanes awaiting a
  /// drain grant, deepest queue first (lane-index ties). Batches only
  /// occur under a law that never pauses, so this state is fresh for every
  /// round a pausing law sees. Returns false when every lane has finished.
  bool admit(std::int64_t round) {
    const int trace_rounds = trace_.rounds();
    bool any_unfinished = false;
    drainable_.clear();
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      Lane& lane = lanes_[i];
      const int depth = lane.depth();
      depth_[i] = depth;
      bool finished = lane.finished(trace_rounds);
      // Only a resume can finish a lane: a fully drained lane with no
      // trace left finishes on resume.
      if (!finished && transition(lane, round, depth)) {
        finished = lane.finished(trace_rounds);
      }
      finished_[i] = finished ? 1 : 0;
      paused_[i] = (!finished && lane.stepper.paused()) ? 1 : 0;
      if (paused_[i]) drainable_.push_back(static_cast<int>(i));
      any_unfinished |= !finished;
    }
    std::sort(drainable_.begin(), drainable_.end(), [this](int a, int b) {
      const int da = depth_[static_cast<std::size_t>(a)];
      const int db = depth_[static_cast<std::size_t>(b)];
      return da != db ? da > db : a < b;
    });
    return any_unfinished;
  }

  /// Applies the admission law's verdict for one unfinished lane. Returns
  /// true when the lane was paused or resumed.
  bool transition(Lane& lane, std::int64_t round, int depth) {
    const AdmissionStep step =
        admission_step(admission_, lane.codel, round, lane.stepper.paused(),
                       depth, lane.qos.head_age(round));
    if (step == AdmissionStep::kStay) return false;
    if (step == AdmissionStep::kResume) {
      lane.stepper.resume();
      ++lane.telemetry.resumes;
      ++pending_.resumes;
      if (lane.track) trace_admission_resume(*lane.track, round, depth);
      return true;
    }
    // checkpoint() freezes the clock; the returned patch snapshot is the
    // host-offload view, which the service itself does not need — tests
    // exercise it directly.
    (void)lane.stepper.checkpoint();
    ++lane.telemetry.pauses;
    ++pending_.pauses;
    if (lane.track) {
      trace_admission_pause(*lane.track, round,
                            step == AdmissionStep::kPauseCodel, depth);
    }
    return true;
  }

  /// Engine assignments for the whole batch, in round order on this
  /// thread: the policy's grants (paused lanes visible as
  /// non-schedulable), then drain grants — engines the policy leaves idle
  /// or points at finished lanes serve the paused lanes' backlogs, so a
  /// paused lane always eventually drains, independent of the policy.
  void assign(std::int64_t start, int count) {
    const int n = static_cast<int>(lanes_.size());
    assignments_.assign(static_cast<std::size_t>(count) * engines_, -1);
    ScheduleView view;
    view.lanes = n;
    view.engines = engines_;
    view.depth = depth_.data();
    view.finished = finished_.data();
    view.paused = paused_.data();
    view.grant_cycles = config_.cycles_per_round;
    for (int r = 0; r < count; ++r) {
      view.round = start + r;
      // Reset so a policy that leaves an engine's entry untouched idles it
      // instead of inheriting the previous round's grant.
      std::fill(assignment_.begin(), assignment_.end(), -1);
      policy_.assign(view, assignment_);
      int* row = assignments_.data() + static_cast<std::size_t>(r) * engines_;
      const auto grant = [&](int lane) -> int& {
        return grant_[static_cast<std::size_t>(lane) * count +
                      static_cast<std::size_t>(r)];
      };
      for (int e = 0; e < engines_; ++e) {
        const int lane = assignment_[static_cast<std::size_t>(e)];
        row[e] = lane;
        if (lane < 0) continue;
        if (lane >= n) {
          throw std::logic_error("stream: policy assigned engine " +
                                 std::to_string(e) + " to nonexistent lane " +
                                 std::to_string(lane));
        }
        if (grant(lane) >= 0) {
          throw std::logic_error(
              "stream: policy assigned two engines to lane " +
              std::to_string(lane) + " in one round");
        }
        grant(lane) = e;
      }
      // Drain grants, skipping paused lanes the policy already granted.
      auto next = drainable_.begin();
      for (int e = 0; e < engines_ && next != drainable_.end(); ++e) {
        if (row[e] >= 0 && !finished_[static_cast<std::size_t>(row[e])]) {
          continue;
        }
        next = std::find_if(next, drainable_.end(),
                            [&](int lane) { return grant(lane) < 0; });
        if (next == drainable_.end()) break;
        row[e] = *next++;
        grant(row[e]) = e;
      }
    }
  }

  /// Lane-parallel execution in contiguous lane blocks; every write below
  /// lands in lane-local state or the lane's own scratch slots.
  void execute(std::int64_t start, int count) {
    const int trace_rounds = trace_.rounds();
    parallel_for_blocks(static_cast<int>(lanes_.size()), config_.threads,
                        [&](int i) {
      obs::ScopedStage prof(profiler_, obs::Stage::kLaneExecute);
      Lane& lane = lanes_[static_cast<std::size_t>(i)];
      for (int r = 0; r < count; ++r) {
        const std::size_t idx = static_cast<std::size_t>(i) * count +
                                static_cast<std::size_t>(r);
        if (lane.finished(trace_rounds)) continue;
        const std::int64_t round = start + r;
        if (lane.track) lane.track->set_round(round);
        std::uint8_t flags = kPaused;
        bool serve = true;  // a paused lane spends any grant it receives
        if (lane.stepper.paused()) {
          ++lane.telemetry.paused_rounds;
        } else {
          flags = kActive;
          // Backlog before this round's layer lands: the starvation test.
          const bool backlog = lane.depth() > 0;
          const bool real = lane.cursor < trace_rounds;
          if (real) flags |= kTraceLayer;
          // trace.layer() hands out PackedBits: this push is a word copy
          // into the engine Reg, never a byte-per-bit repack.
          serve = real ? lane.stepper.push(trace_.layer(i, lane.cursor))
                       : lane.stepper.push_clean();
          if (serve) {
            flags |= kPushed;
            if (real) ++lane.cursor;
            lane.qos.on_push(round, real);
            if (lane.track) {
              lane.track->emit(obs::EventKind::kPush,
                               static_cast<std::uint64_t>(lane.depth()),
                               real ? 1 : 0);
            }
            if (grant_[idx] < 0 && backlog) {
              flags |= kStarved;
              ++lane.telemetry.starved_rounds;
              if (lane.track) {
                lane.track->emit(obs::EventKind::kStarve,
                                 static_cast<std::uint64_t>(lane.depth()));
              }
            }
          } else if (lane.track) {
            lane.track->emit(obs::EventKind::kOverflow,
                             static_cast<std::uint64_t>(lane.depth()));
          }
        }
        if (serve && grant_[idx] >= 0) {
          cycles_[idx] = lane.stepper.spend(config_.cycles_per_round);
          lane.qos.on_pops(lane.stepper.last_spend_pops(), round);
          flags |= kServed;
          ++lane.telemetry.served_rounds;
          if (lane.track) {
            lane.track->emit(obs::EventKind::kSpend, cycles_[idx]);
          }
          pops_[idx] = lane.stepper.last_spend_pops();
        }
        lane.record_depth();
        depth_scratch_[idx] = lane.depth();
        samples_after_[idx] = lane.qos.samples().size();
        flags_[idx] = flags;
      }
    });
  }

  /// The one place a round's lane slots become aggregates: the round's
  /// RoundSample (timeline row and metrics feed alike) and the engine
  /// accounting, in fixed (round, lane/engine) order on this thread.
  void reduce(std::int64_t start, int count) {
    obs::ScopedStage prof_reduce(profiler_, obs::Stage::kReduction);
    const std::size_t n = lanes_.size();
    for (int r = 0; r < count; ++r) {
      RoundSample sample;
      sample.round = start + r;
      // A drain round: no admitted lane had trace layers left to push
      // (whether or not its push overflowed).
      bool streaming = false;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t idx = i * count + static_cast<std::size_t>(r);
        const std::uint8_t flags = flags_[idx];
        if (!(flags & (kActive | kPaused))) continue;
        if (flags & kActive) {
          ++sample.live_lanes;
          if (flags & kTraceLayer) streaming = true;
          if (flags & kStarved) ++sample.starved_lanes;
          if (!(flags & kPushed)) {
            ++sample.overflows;
          } else if (flags & kTraceLayer) {
            ++sample.pushes;
          } else {
            ++sample.drain_pushes;
          }
        } else {
          ++sample.paused_lanes;
        }
        if (flags & kServed) {
          ++sample.served_lanes;
          sample.pops += pops_[idx];
        }
        sample.depth_sum += static_cast<std::uint64_t>(depth_scratch_[idx]);
        sample.depth_max = std::max(sample.depth_max, depth_scratch_[idx]);
        if (metrics_) {
          metrics_->observe(m_[kDepth],
                            static_cast<std::uint64_t>(depth_scratch_[idx]));
          consume_sojourn(lanes_[i], samples_after_[idx]);
        }
      }
      overflowed_so_far_ += sample.overflows;
      sample.overflowed_lanes = overflowed_so_far_;
      sample.drain = !streaming;
      // Rounds where every lane has already finished are scheduling
      // artifacts (a batch outlives the fleet): account nothing, so engine
      // stats — like the timeline — cover exactly the rounds some lane
      // took part in and stay invariant under rounds_per_dispatch.
      if (sample.live_lanes + sample.paused_lanes == 0) continue;
      sample.pauses = std::exchange(pending_.pauses, 0);
      sample.resumes = std::exchange(pending_.resumes, 0);
      if (tracer_) served_.assign(static_cast<std::size_t>(engines_), -1);
      for (int e = 0; e < engines_; ++e) {
        EngineTelemetry& stats = telemetry_.engine_stats[static_cast<std::size_t>(e)];
        const int lane = assignments_[static_cast<std::size_t>(r) * engines_ +
                                      static_cast<std::size_t>(e)];
        const std::size_t idx = lane < 0
                                    ? 0
                                    : static_cast<std::size_t>(lane) * count +
                                          static_cast<std::size_t>(r);
        if (lane >= 0 && (flags_[idx] & kServed)) {
          ++stats.busy_rounds;
          stats.cycles += cycles_[idx];
          sample.cycles += cycles_[idx];
          if (tracer_) served_[static_cast<std::size_t>(e)] = lane;
        } else {
          ++stats.idle_rounds;
        }
      }
      telemetry_.timeline.push_back(sample);
      if (tracer_) {
        trace_round_schedule(*tracer_, sample.round, served_, sample.drain);
      }
      if (metrics_) {
        obs::ScopedStage prof_close(profiler_, obs::Stage::kTelemetryClose);
        for (int k = 0; k < kMetricCount; ++k) {
          const MetricDef& def = kMetricDefs[k];
          const int value = def.field ? sample.*def.field : 0;
          if (def.add == kCounter) {
            metrics_->count(m_[k], static_cast<std::uint64_t>(value));
          } else if (def.add == kGauge) {
            metrics_->set_gauge(m_[k], value);
          }
        }
        feed_profile();
        metrics_->tick(sample.round);
      }
    }
  }

  /// Feeds the lane's sojourn samples [obs_consumed, upto) to the windowed
  /// histogram. Called only from the reductions, in fixed (round, lane)
  /// order, so window attribution never depends on threads or batching.
  void consume_sojourn(Lane& lane, std::size_t upto) {
    const auto& samples = lane.qos.samples();
    for (std::size_t k = lane.obs_consumed; k < upto; ++k) {
      metrics_->observe(m_[kSojourn], samples[k]);
    }
    lane.obs_consumed = upto;
  }

  /// Feeds the wall-clock nanoseconds accrued since the previous feed into
  /// the prof_* counters, so each metrics window carries its own share.
  /// Scopes still open when this runs (the enclosing reduction, the
  /// telemetry close itself) are attributed to the window open when they
  /// end — wall-clock values are non-deterministic either way.
  void feed_profile() {
    if (!profiler_) return;
    for (int s = 0; s < obs::kStageCount; ++s) {
      metrics_->count(m_prof_[static_cast<std::size_t>(s)],
                      profiler_->take_window_nanos(static_cast<obs::Stage>(s)));
    }
  }

  static constexpr std::uint8_t kActive = 1;   ///< admitted this round
  static constexpr std::uint8_t kPushed = 2;   ///< layer accepted (no overflow)
  static constexpr std::uint8_t kServed = 4;   ///< consumed an engine grant
  static constexpr std::uint8_t kStarved = 8;  ///< backlogged, no grant
  static constexpr std::uint8_t kPaused = 16;  ///< frozen by admission
  static constexpr std::uint8_t kTraceLayer = 32;  ///< tried a trace layer

  std::vector<Lane>& lanes_;
  const SyndromeTrace& trace_;
  SchedulerPolicy& policy_;
  const StreamConfig& config_;
  const AdmissionConfig admission_;
  StreamTelemetry& telemetry_;
  obs::Tracer* const tracer_ = nullptr;            ///< null = tracing off
  obs::MetricsRegistry* const metrics_ = nullptr;  ///< null = metrics off
  obs::Profiler* const profiler_ = nullptr;        ///< null = profiling off
  const int engines_;
  const int batch_;
  int overflowed_so_far_ = 0;
  /// Admission transitions not yet carried by a recorded round.
  RoundSample pending_;

  std::array<int, kMetricCount> m_{};           ///< instrument ids by Metric
  std::array<int, obs::kStageCount> m_prof_{};  ///< per-stage nanos counters

  std::vector<int> depth_;             // pre-round, for the policy view
  std::vector<std::uint8_t> finished_;
  std::vector<std::uint8_t> paused_;   // frozen by admission this round
  std::vector<int> drainable_;         // paused lanes, deepest first
  std::vector<int> assignment_;        // one round, engine -> lane
  std::vector<int> assignments_;       // whole batch, [round][engine]
  std::vector<int> grant_;             // [lane][round]: engine or -1
  std::vector<std::uint64_t> cycles_;  // [lane][round]: cycles consumed
  std::vector<std::uint8_t> flags_;    // [lane][round]: kActive | ...
  std::vector<int> depth_scratch_;     // [lane][round]: post-round depth
  std::vector<int> served_;            // tracer: per-round consumed grants
  std::vector<int> pops_;              // [lane][round]: layers popped
  std::vector<std::size_t> samples_after_;  // [lane][round]: sojourn count
};

std::string json_double(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// Configuration echo for the postmortem bundle: enough to rerun the
/// exact scenario (the trace seed/shape plus every service knob).
std::string stream_config_json(const StreamConfig& config, int trace_rounds,
                               int engines) {
  std::string out = "{";
  out += "\"lanes\": " + std::to_string(config.lanes);
  out += ", \"distance\": " + std::to_string(config.distance);
  out += ", \"p\": " + json_double(config.p);
  out += ", \"rounds\": " + std::to_string(config.rounds);
  out += ", \"trace_rounds\": " + std::to_string(trace_rounds);
  out += ", \"seed\": " + std::to_string(config.seed);
  out += ", \"engine\": " + json_string(config.engine);
  out += ", \"cycles_per_round\": " + json_double(config.cycles_per_round);
  out += ", \"max_drain_rounds\": " + std::to_string(config.max_drain_rounds);
  out += ", \"engines\": " + std::to_string(engines);
  out += ", \"policy\": " + json_string(config.policy);
  out += ", \"rounds_per_dispatch\": " +
         std::to_string(config.rounds_per_dispatch);
  out += ", \"admission\": " + json_string(config.admission);
  out += ", \"budget_w\": " + json_double(config.budget_w);
  out += ", \"threads\": " + std::to_string(config.threads);
  const auto flag = [](bool on) { return std::string(on ? "true" : "false"); };
  out += ", \"obs\": {\"trace\": " + flag(config.obs.trace);
  out += ", \"trace_ring\": " + std::to_string(config.obs.trace_ring);
  out += ", \"metrics\": " + flag(config.obs.metrics);
  out += ", \"metrics_window\": " + std::to_string(config.obs.metrics_window);
  out += ", \"profile\": " + flag(config.obs.profile);
  out += ", \"slo\": " + json_string(config.obs.slo);
  out += ", \"dump_dir\": " + json_string(config.obs.dump_dir);
  out += "}}";
  return out;
}

}  // namespace

SyndromeTrace record_trace(const StreamConfig& config) {
  if (config.lanes < 1) throw std::invalid_argument("stream: lanes must be >= 1");
  const int noisy_rounds = config.rounds > 0 ? config.rounds : config.distance;
  const PlanarLattice lattice(config.distance);

  TraceHeader header;
  header.distance = static_cast<std::uint32_t>(config.distance);
  header.lanes = static_cast<std::uint32_t>(config.lanes);
  // Stored rounds include the final perfect round the sampler appends.
  header.rounds = static_cast<std::uint32_t>(noisy_rounds + 1);
  header.checks = static_cast<std::uint32_t>(lattice.num_checks());
  header.data_qubits = static_cast<std::uint32_t>(lattice.num_data());
  header.seed = config.seed;
  header.p_data = config.p;
  header.p_meas = config.p;

  SyndromeTrace trace(header);
  parallel_for_blocks(config.lanes, config.threads, [&](int lane) {
    Xoshiro256ss rng = lane_rng(config, lane, noisy_rounds);
    PhenomenologicalSampler sampler(lattice,
                                    {config.p, config.p, noisy_rounds});
    // Each round's words land in the trace's own preallocated slot (disjoint
    // per lane: no cross-lane writes). Moving per-lane layers in instead
    // would scatter the slots that replay walks round-major.
    for (int t = 0; t < trace.rounds(); ++t) {
      sampler.next_round(rng, trace.layer_slot(lane, t));
    }
    trace.set_final_error(lane, sampler.take_error());
  });
  return trace;
}

StreamOutcome run_stream(const SyndromeTrace& trace,
                         const StreamConfig& user_config) {
  const int n = trace.lanes();
  if (n < 1) throw std::invalid_argument("stream: trace has no lanes");
  if (user_config.rounds_per_dispatch < 1) {
    throw std::invalid_argument(
        "stream: rounds_per_dispatch must be >= 1, got " +
        std::to_string(user_config.rounds_per_dispatch));
  }
  // Arming the flight recorder implies the recorders it dumps: a
  // postmortem bundle without the event trace and the metrics heartbeat
  // would be useless at triage time. Profiling and SLOs stay opt-in.
  StreamConfig config = user_config;
  if (!config.obs.dump_dir.empty()) {
    config.obs.trace = true;
    config.obs.metrics = true;
  }
  // Resolve the engine, policy, and admission specs before any lane (or
  // thread) exists so a typo fails loudly up front.
  const QecoolConfig engine_config = online_engine_config(config.engine);
  const auto policy = make_scheduler_policy(config.policy);
  const AdmissionConfig admission = resolve_admission(
      parse_admission_spec(config.admission), engine_config.reg_depth);
  // The SLO spec parses with the same up-front loudness; it implies a
  // metrics registry (verdicts are a function of windowed metrics) and its
  // window= option overrides the metrics window.
  const bool slo_enabled = !config.obs.slo.empty();
  obs::SloConfig slo_config;
  if (slo_enabled) slo_config = obs::parse_slo_spec(config.obs.slo);
  int engines = config.engines <= 0 ? n : config.engines;

  // The pool size is ultimately a watts decision: a positive budget_w
  // caps K at the largest pool whose modelled ERSFQ dissipation fits the
  // 4-K stage (Table V). The clock sets the watts, so an unconstrained
  // cycle budget cannot be power-capped.
  const double freq_hz =
      config.cycles_per_round > 0 ? config.cycles_per_round * 1e6 : 0.0;
  if (config.budget_w > 0) {
    if (freq_hz <= 0) {
      throw std::invalid_argument(
          "stream: budget_w needs a positive cycles_per_round — an "
          "unconstrained clock has no defined power");
    }
    const int fit = PoolPowerModel::max_engines(
        config.budget_w, static_cast<int>(trace.header().distance), freq_hz);
    if (fit < 1) {
      throw std::invalid_argument(
          "stream: power budget cannot supply even one engine at this "
          "distance and clock");
    }
    engines = std::min(engines, fit);
  }
  if (engines < 1 || engines > n) {
    throw std::invalid_argument("stream: engines must be in [1, lanes], got " +
                                std::to_string(engines));
  }
  policy->validate(n, engines);

  OnlineConfig online;
  online.engine = engine_config;
  online.cycles_per_round = config.cycles_per_round;
  online.max_drain_rounds = config.max_drain_rounds;

  const PlanarLattice lattice(static_cast<int>(trace.header().distance));
  std::vector<Lane> lanes;
  lanes.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    lanes.emplace_back(lattice, online, i, engine_config.reg_depth + 1);
    if (admission.codel()) {
      lanes.back().codel = CodelControl(admission.target, admission.interval);
    }
  }

  StreamOutcome outcome;
  if (config.obs.trace) {
    outcome.tracer = std::make_shared<obs::Tracer>(
        n, engines,
        static_cast<std::size_t>(std::max(1, config.obs.trace_ring)));
    for (int i = 0; i < n; ++i) {
      Lane& lane = lanes[static_cast<std::size_t>(i)];
      lane.track = &outcome.tracer->lane(i);
      lane.stepper.set_obs_track(lane.track);  // engine pop events
      lane.codel.set_obs_track(lane.track);    // CoDel arm/disarm events
    }
  }
  if (config.obs.metrics || slo_enabled) {
    int metrics_window = std::max(1, config.obs.metrics_window);
    if (slo_enabled && slo_config.window > 0) metrics_window = slo_config.window;
    outcome.metrics = std::make_shared<obs::MetricsRegistry>(metrics_window);
  }
  if (config.obs.profile) {
    outcome.profiler = std::make_shared<obs::Profiler>(
        static_cast<std::size_t>(std::max(1, config.obs.profile_ring)));
  }
  outcome.telemetry.distance = static_cast<int>(trace.header().distance);
  outcome.telemetry.p = trace.header().p_data;
  outcome.telemetry.cycles_per_round = config.cycles_per_round;
  outcome.telemetry.engine = config.engine;
  outcome.telemetry.policy = config.policy;
  outcome.telemetry.admission = config.admission;
  outcome.telemetry.engines = engines;
  outcome.telemetry.budget_w = config.budget_w;
  if (freq_hz > 0) {
    const PoolPowerModel power{engines,
                               static_cast<int>(trace.header().distance),
                               freq_hz};
    outcome.telemetry.watts = power.watts();
  }

  PoolScheduler scheduler(lanes, trace, *policy, engines, config, admission,
                          outcome.telemetry,
                          outcome.tracer.get(), outcome.metrics.get(),
                          outcome.profiler.get());

  // The SLO engine attaches after every other instrument is registered,
  // so its slo_ok/slo_warning/slo_page counters are the trailing metrics
  // columns; unknown objective metrics fail loudly here, before any round
  // executes.
  if (slo_enabled) {
    outcome.slo = std::make_shared<obs::SloEngine>(slo_config);
    outcome.slo->attach(*outcome.metrics,
                        outcome.tracer ? &outcome.tracer->control() : nullptr);
  }

  // Arm the process-wide flight recorder before the first round so a
  // mid-run SIGUSR1 (or a fatal-signal handler installed by the bench)
  // can snapshot the live obs objects; the shared_ptr sources keep the
  // bundle writable after this function returns.
  const bool dump_armed = !config.obs.dump_dir.empty();
  if (dump_armed) {
    obs::PostmortemSources sources;
    sources.tracer = outcome.tracer;
    sources.metrics = outcome.metrics;
    sources.profiler = outcome.profiler;
    sources.slo = outcome.slo;
    sources.config_json = stream_config_json(config, trace.rounds(), engines);
    sources.dir = config.obs.dump_dir;
    obs::FlightRecorder::instance().arm(std::move(sources));
  }
  const auto poll_dump_request = [dump_armed]() {
    if (dump_armed && obs::FlightRecorder::take_dump_request()) {
      obs::FlightRecorder::instance().dump("sigusr1");
    }
  };

  // Round t reaches every admitted lane before any lane sees round t+1,
  // mirroring syndrome arrival in hardware. The run ends once every lane
  // finished, or at the trace length plus the drain budget (QEC never stops
  // in hardware): a lane that spent rounds paused lags the global round by
  // that many and must finish inside the same bound.
  const std::int64_t max_rounds = static_cast<std::int64_t>(trace.rounds()) +
                                  std::max(0, config.max_drain_rounds);
  for (std::int64_t t = 0; t < max_rounds;) {
    poll_dump_request();
    const int count = static_cast<int>(
        std::min<std::int64_t>(scheduler.batch(), max_rounds - t));
    if (!scheduler.dispatch(t, count)) break;
    t += count;
  }

  // Finalize each lane (the logical scoring decodes nothing, but keep it
  // in the parallel region: it is per-lane work too).
  parallel_for_blocks(n, config.threads, [&](int i) {
    obs::ScopedStage prof(outcome.profiler.get(), obs::Stage::kLaneExecute);
    Lane& lane = lanes[static_cast<std::size_t>(i)];
    const OnlineResult result = lane.stepper.result();
    LaneTelemetry& t = lane.telemetry;
    t.overflow = result.overflow;
    t.rounds_streamed = lane.cursor;
    t.drain_rounds = lane.stepper.rounds_stepped() - lane.cursor;
    // A lane can reach the round bound paused, or mid-trace with an empty
    // queue (it spent rounds paused): it never consumed the remaining
    // syndrome layers, so it is NOT drained and must not be scored
    // against the full-trace ground truth.
    const bool drained = result.drained && !lane.stepper.paused() &&
                         lane.cursor >= trace.rounds();
    t.drained = drained;
    // The drained event lands at the lane's last executed round (its
    // track cursor) — deterministic, since a lane participates in the
    // same rounds regardless of threads or batching.
    if (drained && lane.track) lane.track->emit(obs::EventKind::kDrained);
    t.popped_layers = static_cast<int>(result.layer_cycles.size());
    t.total_cycles = result.total_cycles;
    t.layer_cycles = result.layer_cycles;
    t.sojourn_rounds = lane.qos.take_samples();
    t.matches = result.matches;
    if (!result.overflow && drained) {
      SyndromeHistory truth;
      truth.final_error = trace.final_error(i);
      DecodeResult decode;
      decode.correction = result.correction;
      t.logical_failure = logical_failure(lattice, truth, decode);
    }
  });

  outcome.lanes = n;
  outcome.telemetry.lanes.reserve(static_cast<std::size_t>(n));
  for (auto& lane : lanes) {
    outcome.telemetry.lanes.push_back(std::move(lane.telemetry));
  }
  outcome.overflow_lanes = outcome.telemetry.overflow_lanes();
  outcome.drained_lanes = outcome.telemetry.drained_lanes();
  outcome.failed_lanes = outcome.telemetry.failed_lanes();
  for (const auto& lane : outcome.telemetry.lanes) {
    outcome.logical_failures += lane.logical_failure ? 1 : 0;
  }
  scheduler.finish_metrics();  // flush the trailing partial window
  return outcome;
}

StreamOutcome run_stream(const StreamConfig& config) {
  return run_stream(record_trace(config), config);
}

}  // namespace qec
