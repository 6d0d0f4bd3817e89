#include "stream/service.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include <cstdio>

#include "decoder/registry.hpp"
#include "obs/postmortem.hpp"
#include "qecool/decode_cache.hpp"
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

  void record_depth() {
    const auto depth = static_cast<std::size_t>(stepper.engine().stored_layers());
    if (depth < telemetry.depth_hist.size()) ++telemetry.depth_hist[depth];
  }

  bool finished() const { return stepper.overflowed() || stepper.drained(); }

  /// Finished test under admission control: a paused lane is never
  /// finished (its clock is frozen mid-stream), and a lane with trace
  /// layers still to consume is not done just because its queue drained.
  bool finished_admission(int trace_rounds) const {
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

  /// Next trace layer this lane will consume (admission pause mode: a
  /// paused lane's cursor freezes while the global round marches on).
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

  /// Decode-cache counters already fed to the metrics registry (same
  /// cumulative-snapshot / consume-delta pattern as obs_consumed).
  DecodeCacheStats cache_consumed;
};

/// How the decode cache is sharded over the lane fleet: lanes
/// [s * block, (s + 1) * block) share shard s and execute sequentially on
/// whichever worker claims the shard, so cache contents are a pure
/// function of (trace, config) — independent of the worker thread count.
struct CacheLayout {
  bool enabled = false;
  int shards = 0;
  int block = 0;  ///< lanes per shard (last shard may be short)
};

/// Orchestrates the shared engine pool over one run: per dispatch it asks
/// the policy for up to `batch` rounds of engine->lane assignments (on the
/// calling thread, in round order), executes them lane-parallel with all
/// writes going to lane-local slots, then reduces engine accounting and
/// the round timeline on the calling thread — so every outcome and CSV is
/// independent of the worker-thread count.
class PoolScheduler {
 public:
  PoolScheduler(std::vector<Lane>& lanes, SchedulerPolicy& policy, int engines,
                const StreamConfig& config, const AdmissionConfig& admission,
                const CacheLayout& cache, StreamTelemetry& telemetry,
                obs::Tracer* tracer, obs::MetricsRegistry* metrics,
                obs::Profiler* profiler)
      : lanes_(lanes),
        policy_(policy),
        config_(config),
        admission_(admission),
        cache_(cache),
        telemetry_(telemetry),
        tracer_(tracer),
        metrics_(metrics),
        profiler_(profiler),
        engines_(engines),
        // A shared cache shard makes per-lane hit counters sensitive to
        // execution order, so the cache clamps the batch to 1 like a
        // dynamic policy does — outcomes never depended on the batch;
        // this keeps the cache CSV independent of it too.
        batch_(policy.dynamic() || cache.enabled
                   ? 1
                   : std::max(1, config.rounds_per_dispatch)) {
    telemetry_.engine_stats.resize(static_cast<std::size_t>(engines_));
    for (int e = 0; e < engines_; ++e) {
      telemetry_.engine_stats[static_cast<std::size_t>(e)].engine = e;
    }
    depth_.resize(lanes_.size());
    finished_.resize(lanes_.size());
    paused_.resize(lanes_.size());
    assignment_.assign(static_cast<std::size_t>(engines_), -1);
    if (metrics_) {
      // Registration order is CSV column order — keep it stable, goldens
      // pin it.
      m_pushes_ = metrics_->add_counter("pushes");
      m_drain_pushes_ = metrics_->add_counter("drain_pushes");
      m_pops_ = metrics_->add_counter("pops");
      m_serves_ = metrics_->add_counter("serves");
      m_starves_ = metrics_->add_counter("starves");
      m_overflows_ = metrics_->add_counter("overflows");
      m_pauses_ = metrics_->add_counter("pauses");
      m_resumes_ = metrics_->add_counter("resumes");
      m_live_ = metrics_->add_gauge("live_lanes");
      m_paused_ = metrics_->add_gauge("paused_lanes");
      m_overflowed_ = metrics_->add_gauge("overflowed_lanes");
      m_depth_ = metrics_->add_histogram("depth");
      m_sojourn_ = metrics_->add_histogram("sojourn");
      // Decode-cache counters append after the PR 7 instruments so the
      // established column order is untouched. They stay registered (all
      // zero except the fast-path counters) when the cache is off, so the
      // metrics CSV header does not depend on the cache spec.
      m_cache_hits_ = metrics_->add_counter("cache_hits");
      m_cache_misses_ = metrics_->add_counter("cache_misses");
      m_cache_installs_ = metrics_->add_counter("cache_installs");
      m_cache_evictions_ = metrics_->add_counter("cache_evictions");
      m_cache_zero_rounds_ = metrics_->add_counter("cache_zero_rounds");
      m_cache_zero_pushes_ = metrics_->add_counter("cache_zero_pushes");
      m_cache_bypasses_ = metrics_->add_counter("cache_bypasses");
      // Wall-clock profile feed: registered only when profiling is on, so
      // the default metrics CSV schema is untouched — and these columns
      // are the ONE part of the CSV exempt from the byte-identical
      // contract (they measure real time). Values are nanoseconds accrued
      // per window; trace_export happens after the run, so its column
      // stays 0 here and lives in the profile CSV instead.
      if (profiler_) {
        m_prof_[0] = metrics_->add_counter("prof_dispatch_ns");
        m_prof_[1] = metrics_->add_counter("prof_lane_ns");
        m_prof_[2] = metrics_->add_counter("prof_reduce_ns");
        m_prof_[3] = metrics_->add_counter("prof_cache_ns");
        m_prof_[4] = metrics_->add_counter("prof_telemetry_ns");
        m_prof_[5] = metrics_->add_counter("prof_export_ns");
      }
    }
  }

  int batch() const { return batch_; }

  /// Runs `count` rounds starting at global round `start`. Streaming
  /// rounds (drain == false) push trace layer (start + r) into every lane
  /// that has not overflowed; drain rounds push clean layers into every
  /// unfinished lane.
  void dispatch(std::int64_t start, int count, bool drain,
                const SyndromeTrace* trace) {
    const int n = static_cast<int>(lanes_.size());
    const auto slots = static_cast<std::size_t>(n) * static_cast<std::size_t>(count);
    grant_.assign(slots, -1);
    cycles_.assign(slots, 0);
    flags_.assign(slots, 0);
    depth_scratch_.assign(slots, 0);
    if (metrics_) {
      pops_.assign(slots, 0);
      samples_after_.assign(slots, 0);
      cache_after_.assign(slots, DecodeCacheStats{});
    }

    {
      // Profiler stage scopes (here and below) cost one branch each when
      // profiling is off and never touch any outcome — timing is observed,
      // not consulted.
      obs::ScopedStage prof(profiler_, obs::Stage::kDispatchAssign);

      // Pre-round lane state for the policy. Fresh only when count == 1,
      // which the constructor forces for dynamic policies; static policies
      // never read it.
      for (int i = 0; i < n; ++i) {
        const Lane& lane = lanes_[static_cast<std::size_t>(i)];
        depth_[static_cast<std::size_t>(i)] = lane.stepper.engine().stored_layers();
        finished_[static_cast<std::size_t>(i)] =
            (drain ? lane.finished() : lane.stepper.overflowed()) ? 1 : 0;
      }

      // Assignments for the whole batch, in round order on this thread.
      assignments_.assign(static_cast<std::size_t>(count) *
                              static_cast<std::size_t>(engines_),
                          -1);
      ScheduleView view;
      view.lanes = n;
      view.engines = engines_;
      view.depth = depth_.data();
      view.finished = finished_.data();
      view.grant_cycles = config_.cycles_per_round;
      for (int r = 0; r < count; ++r) {
        view.round = start + r;
        // Reset so a policy that leaves an engine's entry untouched idles it
        // instead of inheriting the previous round's grant.
        std::fill(assignment_.begin(), assignment_.end(), -1);
        policy_.assign(view, assignment_);
        for (int e = 0; e < engines_; ++e) {
          const int lane = assignment_[static_cast<std::size_t>(e)];
          assignments_[static_cast<std::size_t>(r) * engines_ +
                       static_cast<std::size_t>(e)] = lane;
          if (lane < 0) continue;
          if (lane >= n) {
            throw std::logic_error("stream: policy assigned engine " +
                                   std::to_string(e) + " to nonexistent lane " +
                                   std::to_string(lane));
          }
          auto& slot = grant_[static_cast<std::size_t>(lane) * count +
                              static_cast<std::size_t>(r)];
          if (slot >= 0) {
            throw std::logic_error(
                "stream: policy assigned two engines to lane " +
                std::to_string(lane) + " in one round");
          }
          slot = e;
        }
      }
    }

    // Lane-parallel execution; every write below lands in lane-local
    // state or the lane's own scratch slots. (Shard-sequential when the
    // decode cache is on: see for_lanes.)
    for_lanes(n, [&](int i) {
      obs::ScopedStage prof(profiler_, obs::Stage::kLaneExecute);
      Lane& lane = lanes_[static_cast<std::size_t>(i)];
      for (int r = 0; r < count; ++r) {
        const std::size_t idx = static_cast<std::size_t>(i) * count +
                                static_cast<std::size_t>(r);
        if (drain ? lane.finished() : lane.stepper.overflowed()) continue;
        if (lane.track) lane.track->set_round(start + r);
        // Backlog before this round's layer lands: the starvation test.
        const bool backlog = lane.stepper.engine().stored_layers() > 0;
        const bool pushed =
            drain ? lane.stepper.push_clean()
                  : lane.stepper.push(trace->layer(i, static_cast<int>(start) + r));
        std::uint8_t flags = kActive;
        if (pushed) {
          flags |= kPushed;
          if (lane.track) {
            lane.track->emit(
                obs::EventKind::kPush,
                static_cast<std::uint64_t>(lane.stepper.engine().stored_layers()),
                drain ? 0 : 1);
          }
          lane.qos.on_push(start + r, /*real=*/!drain);
          if (drain) {
            ++lane.telemetry.drain_rounds;
          } else {
            ++lane.telemetry.rounds_streamed;
          }
          if (grant_[idx] >= 0) {
            cycles_[idx] = lane.stepper.spend(config_.cycles_per_round);
            lane.qos.on_pops(lane.stepper.last_spend_pops(), start + r);
            flags |= kServed;
            ++lane.telemetry.served_rounds;
            if (lane.track) {
              lane.track->emit(obs::EventKind::kSpend, cycles_[idx]);
            }
            if (metrics_) {
              pops_[idx] = lane.stepper.last_spend_pops();
            }
          } else if (backlog) {
            flags |= kStarved;
            ++lane.telemetry.starved_rounds;
            if (lane.track) {
              lane.track->emit(obs::EventKind::kStarve,
                               static_cast<std::uint64_t>(
                                   lane.stepper.engine().stored_layers()));
            }
          }
        } else if (lane.track) {
          lane.track->emit(obs::EventKind::kOverflow,
                           static_cast<std::uint64_t>(
                               lane.stepper.engine().stored_layers()));
        }
        lane.record_depth();
        depth_scratch_[idx] = lane.stepper.engine().stored_layers();
        if (metrics_) {
          samples_after_[idx] = lane.qos.samples().size();
          cache_after_[idx] = lane.stepper.engine().cache_stats();
        }
        flags_[idx] = flags;
      }
    });

    // Reductions in fixed (round, lane/engine) order on this thread.
    obs::ScopedStage prof_reduce(profiler_, obs::Stage::kReduction);
    for (int r = 0; r < count; ++r) {
      RoundSample sample;
      sample.round = start + r;
      sample.drain = drain;
      for (int i = 0; i < n; ++i) {
        const std::size_t idx = static_cast<std::size_t>(i) * count +
                                static_cast<std::size_t>(r);
        const std::uint8_t flags = flags_[idx];
        if (!(flags & kActive)) continue;
        ++sample.live_lanes;
        if (flags & kServed) ++sample.served_lanes;
        if (flags & kStarved) ++sample.starved_lanes;
        if (!(flags & kPushed)) ++overflowed_so_far_;
        sample.depth_sum += static_cast<std::uint64_t>(depth_scratch_[idx]);
        sample.depth_max = std::max(sample.depth_max, depth_scratch_[idx]);
        if (metrics_) {
          if (flags & kPushed) {
            metrics_->count(drain ? m_drain_pushes_ : m_pushes_);
          } else {
            metrics_->count(m_overflows_);
          }
          if (flags & kServed) {
            metrics_->count(m_serves_);
            metrics_->count(m_pops_, static_cast<std::uint64_t>(pops_[idx]));
          }
          if (flags & kStarved) metrics_->count(m_starves_);
          metrics_->observe(m_depth_,
                            static_cast<std::uint64_t>(depth_scratch_[idx]));
          consume_sojourn(lanes_[static_cast<std::size_t>(i)],
                          samples_after_[idx]);
          consume_cache(lanes_[static_cast<std::size_t>(i)],
                        cache_after_[idx]);
        }
      }
      sample.overflowed_lanes = overflowed_so_far_;
      // Rounds where every lane has already finished are scheduling
      // artifacts (a batch outlives the fleet, or the trace outlives an
      // all-overflow run): account nothing, so engine stats — like the
      // timeline — cover exactly the rounds with live lanes and stay
      // invariant under rounds_per_dispatch.
      if (sample.live_lanes == 0) continue;
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
      if (tracer_) trace_round_schedule(*tracer_, start + r, served_, drain);
      if (metrics_) {
        obs::ScopedStage prof_close(profiler_, obs::Stage::kTelemetryClose);
        metrics_->set_gauge(m_live_, sample.live_lanes);
        metrics_->set_gauge(m_paused_, sample.paused_lanes);
        metrics_->set_gauge(m_overflowed_, overflowed_so_far_);
        feed_profile();
        metrics_->tick(start + r);
      }
    }
  }

  /// One admission-controlled round (admission=pause). Differs from
  /// dispatch() in three ways: every lane consumes the trace through its
  /// own cursor (a paused lane's logical clock freezes while the global
  /// round marches on), the admission controller pauses and re-admits
  /// lanes around the watermarks before the policy runs, and engines the
  /// policy leaves idle (or points at finished lanes) are granted to
  /// paused lanes, deepest queue first, so a paused backlog always
  /// eventually drains. All decisions are made on the calling thread in
  /// lane order — outcomes stay a pure function of (trace, config).
  /// Returns false once every lane has finished.
  bool dispatch_admission(std::int64_t round, const SyndromeTrace& trace) {
    const int n = static_cast<int>(lanes_.size());
    const int trace_rounds = trace.rounds();
    grant_.assign(static_cast<std::size_t>(n), -1);
    cycles_.assign(static_cast<std::size_t>(n), 0);
    flags_.assign(static_cast<std::size_t>(n), 0);
    depth_scratch_.assign(static_cast<std::size_t>(n), 0);
    if (metrics_) {
      pops_.assign(static_cast<std::size_t>(n), 0);
      samples_after_.assign(static_cast<std::size_t>(n), 0);
      cache_after_.assign(static_cast<std::size_t>(n), DecodeCacheStats{});
    }

    std::unique_ptr<obs::ScopedStage> prof_assign;
    if (profiler_) {
      prof_assign = std::make_unique<obs::ScopedStage>(
          profiler_, obs::Stage::kDispatchAssign);
    }

    // Pre-round state and admission transitions, in lane order. A paused
    // lane re-admits once its backlog reaches the low-water mark; an
    // admitted lane at or above the high-water mark is paused instead of
    // being allowed to push toward overflow.
    bool any_unfinished = false;
    for (int i = 0; i < n; ++i) {
      Lane& lane = lanes_[static_cast<std::size_t>(i)];
      const int depth = lane.stepper.engine().stored_layers();
      depth_[static_cast<std::size_t>(i)] = depth;
      bool finished = lane.finished_admission(trace_rounds);
      if (!finished) {
        if (lane.stepper.paused()) {
          // Codel re-admits when the standing latency dissolved (head
          // sojourn back under target) or the backlog drained to the
          // low-water mark — whichever comes first; pause mode uses the
          // depth mark alone.
          const bool readmit =
              depth <= admission_.low_water ||
              (admission_.codel() &&
               lane.codel.should_resume(lane.qos.head_age(round), depth));
          if (readmit) {
            lane.stepper.resume();
            ++lane.telemetry.resumes;
            if (admission_.codel()) lane.codel.on_resume(round);
            if (lane.track) trace_admission_resume(*lane.track, round, depth);
            if (metrics_) metrics_->count(m_resumes_);
            // A fully drained lane with no trace left finishes on resume.
            finished = lane.finished_admission(trace_rounds);
          }
        } else {
          bool freeze;
          bool by_codel = false;
          if (admission_.codel()) {
            // The CoDel law observes every admitted round (the call arms
            // and disarms its deadline); the depth high-water mark stays
            // behind it as the overflow backstop, so codel never loses a
            // lane that pause mode would have kept.
            by_codel = lane.codel.should_pause(round, lane.qos.head_age(round),
                                               depth);
            freeze = by_codel || depth >= admission_.high_water;
          } else {
            freeze = depth >= admission_.high_water;
          }
          if (freeze) {
            // checkpoint() freezes the clock; the returned patch snapshot
            // is the host-offload view, which the service itself does not
            // need — tests exercise it directly.
            (void)lane.stepper.checkpoint();
            ++lane.telemetry.pauses;
            if (lane.track) {
              trace_admission_pause(*lane.track, round, by_codel, depth);
            }
            if (metrics_) metrics_->count(m_pauses_);
          }
        }
      }
      finished_[static_cast<std::size_t>(i)] = finished ? 1 : 0;
      paused_[static_cast<std::size_t>(i)] =
          (!finished && lane.stepper.paused()) ? 1 : 0;
      any_unfinished |= !finished;
    }
    if (!any_unfinished) return false;

    // Policy assignment (paused lanes visible as non-schedulable).
    ScheduleView view;
    view.round = round;
    view.lanes = n;
    view.engines = engines_;
    view.depth = depth_.data();
    view.finished = finished_.data();
    view.paused = paused_.data();
    view.grant_cycles = config_.cycles_per_round;
    std::fill(assignment_.begin(), assignment_.end(), -1);
    policy_.assign(view, assignment_);
    assignments_.assign(static_cast<std::size_t>(engines_), -1);
    for (int e = 0; e < engines_; ++e) {
      const int lane = assignment_[static_cast<std::size_t>(e)];
      assignments_[static_cast<std::size_t>(e)] = lane;
      if (lane < 0) continue;
      if (lane >= n) {
        throw std::logic_error("stream: policy assigned engine " +
                               std::to_string(e) + " to nonexistent lane " +
                               std::to_string(lane));
      }
      auto& slot = grant_[static_cast<std::size_t>(lane)];
      if (slot >= 0) {
        throw std::logic_error("stream: policy assigned two engines to lane " +
                               std::to_string(lane) + " in one round");
      }
      slot = e;
    }

    // Admission drain grants: engines left idle or pointed at finished
    // lanes serve the paused lanes' backlogs, deepest first (lane-index
    // ties) — deterministic, and independent of the policy in use.
    drainable_.clear();
    for (int i = 0; i < n; ++i) {
      if (paused_[static_cast<std::size_t>(i)] &&
          grant_[static_cast<std::size_t>(i)] < 0) {
        drainable_.push_back(i);
      }
    }
    std::sort(drainable_.begin(), drainable_.end(), [this](int a, int b) {
      const int da = depth_[static_cast<std::size_t>(a)];
      const int db = depth_[static_cast<std::size_t>(b)];
      return da != db ? da > db : a < b;
    });
    std::size_t next_drain = 0;
    for (int e = 0; e < engines_ && next_drain < drainable_.size(); ++e) {
      const int lane = assignments_[static_cast<std::size_t>(e)];
      if (lane >= 0 && !finished_[static_cast<std::size_t>(lane)]) continue;
      const int target = drainable_[next_drain++];
      assignments_[static_cast<std::size_t>(e)] = target;
      grant_[static_cast<std::size_t>(target)] = e;
    }
    prof_assign.reset();

    // Lane-parallel execution; writes stay lane-local (shard-sequential
    // when the decode cache is on: see for_lanes).
    for_lanes(n, [&](int i) {
      obs::ScopedStage prof(profiler_, obs::Stage::kLaneExecute);
      Lane& lane = lanes_[static_cast<std::size_t>(i)];
      const auto idx = static_cast<std::size_t>(i);
      if (finished_[idx]) return;
      if (lane.track) lane.track->set_round(round);
      std::uint8_t flags = 0;
      if (paused_[idx]) {
        flags = kPausedF;
        ++lane.telemetry.paused_rounds;
        if (grant_[idx] >= 0) {
          cycles_[idx] = lane.stepper.spend(config_.cycles_per_round);
          lane.qos.on_pops(lane.stepper.last_spend_pops(), round);
          flags |= kServed;
          ++lane.telemetry.served_rounds;
          if (lane.track) {
            lane.track->emit(obs::EventKind::kSpend, cycles_[idx]);
          }
          if (metrics_) pops_[idx] = lane.stepper.last_spend_pops();
        }
      } else {
        flags = kActive;
        const bool backlog = lane.stepper.engine().stored_layers() > 0;
        bool pushed = false;
        if (lane.cursor < trace_rounds) {
          // trace.layer() hands out PackedBits: this push is a word copy
          // into the engine Reg, never a byte-per-bit repack.
          pushed = lane.stepper.push(trace.layer(i, lane.cursor));
          if (pushed) {
            ++lane.cursor;
            ++lane.telemetry.rounds_streamed;
            lane.qos.on_push(round, /*real=*/true);
            flags |= kRealPush;
          }
        } else {
          pushed = lane.stepper.push_clean();
          if (pushed) {
            ++lane.telemetry.drain_rounds;
            lane.qos.on_push(round, /*real=*/false);
          }
        }
        if (pushed) {
          flags |= kPushed;
          if (lane.track) {
            lane.track->emit(
                obs::EventKind::kPush,
                static_cast<std::uint64_t>(lane.stepper.engine().stored_layers()),
                (flags & kRealPush) ? 1 : 0);
          }
          if (grant_[idx] >= 0) {
            cycles_[idx] = lane.stepper.spend(config_.cycles_per_round);
            lane.qos.on_pops(lane.stepper.last_spend_pops(), round);
            flags |= kServed;
            ++lane.telemetry.served_rounds;
            if (lane.track) {
              lane.track->emit(obs::EventKind::kSpend, cycles_[idx]);
            }
            if (metrics_) pops_[idx] = lane.stepper.last_spend_pops();
          } else if (backlog) {
            flags |= kStarved;
            ++lane.telemetry.starved_rounds;
            if (lane.track) {
              lane.track->emit(obs::EventKind::kStarve,
                               static_cast<std::uint64_t>(
                                   lane.stepper.engine().stored_layers()));
            }
          }
        } else if (lane.track) {
          lane.track->emit(obs::EventKind::kOverflow,
                           static_cast<std::uint64_t>(
                               lane.stepper.engine().stored_layers()));
        }
      }
      lane.record_depth();
      depth_scratch_[idx] = lane.stepper.engine().stored_layers();
      if (metrics_) {
        samples_after_[idx] = lane.qos.samples().size();
        cache_after_[idx] = lane.stepper.engine().cache_stats();
      }
      flags_[idx] = flags;
    });

    // Reductions in fixed lane/engine order on this thread.
    obs::ScopedStage prof_reduce(profiler_, obs::Stage::kReduction);
    RoundSample sample;
    sample.round = round;
    bool real_push = false;
    for (int i = 0; i < n; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const std::uint8_t flags = flags_[idx];
      if (!(flags & (kActive | kPausedF))) continue;
      if (flags & kActive) {
        ++sample.live_lanes;
        if (flags & kRealPush) real_push = true;
        if (flags & kStarved) ++sample.starved_lanes;
        if (!(flags & kPushed)) ++overflowed_so_far_;
        if (metrics_) {
          if (flags & kPushed) {
            metrics_->count((flags & kRealPush) ? m_pushes_ : m_drain_pushes_);
          } else {
            metrics_->count(m_overflows_);
          }
          if (flags & kStarved) metrics_->count(m_starves_);
        }
      } else {
        ++sample.paused_lanes;
      }
      if (flags & kServed) {
        ++sample.served_lanes;
        if (metrics_) {
          metrics_->count(m_serves_);
          metrics_->count(m_pops_, static_cast<std::uint64_t>(pops_[idx]));
        }
      }
      sample.depth_sum += static_cast<std::uint64_t>(depth_scratch_[idx]);
      sample.depth_max = std::max(sample.depth_max, depth_scratch_[idx]);
      if (metrics_) {
        metrics_->observe(m_depth_,
                          static_cast<std::uint64_t>(depth_scratch_[idx]));
        consume_sojourn(lanes_[idx], samples_after_[idx]);
        consume_cache(lanes_[idx], cache_after_[idx]);
      }
    }
    sample.overflowed_lanes = overflowed_so_far_;
    sample.drain = !real_push;
    if (tracer_) served_.assign(static_cast<std::size_t>(engines_), -1);
    for (int e = 0; e < engines_; ++e) {
      EngineTelemetry& stats =
          telemetry_.engine_stats[static_cast<std::size_t>(e)];
      const int lane = assignments_[static_cast<std::size_t>(e)];
      if (lane >= 0 && (flags_[static_cast<std::size_t>(lane)] & kServed)) {
        ++stats.busy_rounds;
        stats.cycles += cycles_[static_cast<std::size_t>(lane)];
        sample.cycles += cycles_[static_cast<std::size_t>(lane)];
        if (tracer_) served_[static_cast<std::size_t>(e)] = lane;
      } else {
        ++stats.idle_rounds;
      }
    }
    telemetry_.timeline.push_back(sample);
    if (tracer_) trace_round_schedule(*tracer_, round, served_, sample.drain);
    if (metrics_) {
      obs::ScopedStage prof_close(profiler_, obs::Stage::kTelemetryClose);
      metrics_->set_gauge(m_live_, sample.live_lanes);
      metrics_->set_gauge(m_paused_, sample.paused_lanes);
      metrics_->set_gauge(m_overflowed_, overflowed_so_far_);
      feed_profile();
      metrics_->tick(round);
    }
    return true;
  }

  /// Flushes the trailing partial metrics window (feeding it the last
  /// profile deltas first) — the run_stream epilogue.
  void finish_metrics() {
    if (!metrics_) return;
    obs::ScopedStage prof_close(profiler_, obs::Stage::kTelemetryClose);
    feed_profile();
    metrics_->finish();
  }

 private:
  /// Feeds the lane's sojourn samples [obs_consumed, upto) to the windowed
  /// histogram. Called only from the reductions, in fixed (round, lane)
  /// order, so window attribution never depends on threads or batching.
  void consume_sojourn(Lane& lane, std::size_t upto) {
    const auto& samples = lane.qos.samples();
    for (std::size_t k = lane.obs_consumed; k < upto; ++k) {
      metrics_->observe(m_sojourn_, samples[k]);
    }
    lane.obs_consumed = upto;
  }

  /// Feeds the delta between the lane's cumulative decode-cache counters
  /// and what was already consumed to the metrics registry. Same fixed
  /// reduction order as consume_sojourn, so window attribution never
  /// depends on threads or batching.
  void consume_cache(Lane& lane, const DecodeCacheStats& after) {
    const DecodeCacheStats& before = lane.cache_consumed;
    metrics_->count(m_cache_hits_, after.hits - before.hits);
    metrics_->count(m_cache_misses_, after.misses - before.misses);
    metrics_->count(m_cache_installs_, after.installs - before.installs);
    metrics_->count(m_cache_evictions_, after.evictions - before.evictions);
    metrics_->count(m_cache_zero_rounds_,
                    after.zero_rounds - before.zero_rounds);
    metrics_->count(m_cache_zero_pushes_,
                    after.zero_pushes - before.zero_pushes);
    metrics_->count(m_cache_bypasses_, after.bypasses - before.bypasses);
    lane.cache_consumed = after;
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

  /// The lane-parallel region: a plain parallel_for over lanes, unless the
  /// decode cache is on — then the unit of parallelism is the cache shard
  /// and the lanes sharing a shard run sequentially in lane order, so
  /// shard contents (and every hit/miss counter) are independent of the
  /// worker-thread count.
  template <typename Body>
  void for_lanes(int n, Body&& body) {
    if (!cache_.enabled) {
      parallel_for(n, config_.threads, body);
      return;
    }
    parallel_for(cache_.shards, config_.threads, [&](int s) {
      const int first = s * cache_.block;
      const int last = std::min(n, first + cache_.block);
      for (int i = first; i < last; ++i) body(i);
    });
  }

  static constexpr std::uint8_t kActive = 1;   ///< lane took part in the round
  static constexpr std::uint8_t kPushed = 2;   ///< layer accepted (no overflow)
  static constexpr std::uint8_t kServed = 4;   ///< consumed an engine grant
  static constexpr std::uint8_t kStarved = 8;  ///< backlogged, no grant
  static constexpr std::uint8_t kPausedF = 16;   ///< frozen by admission
  static constexpr std::uint8_t kRealPush = 32;  ///< pushed a trace layer

  std::vector<Lane>& lanes_;
  SchedulerPolicy& policy_;
  const StreamConfig& config_;
  const AdmissionConfig admission_;
  const CacheLayout cache_;
  StreamTelemetry& telemetry_;
  obs::Tracer* const tracer_ = nullptr;            ///< null = tracing off
  obs::MetricsRegistry* const metrics_ = nullptr;  ///< null = metrics off
  obs::Profiler* const profiler_ = nullptr;        ///< null = profiling off
  const int engines_;
  const int batch_;
  int overflowed_so_far_ = 0;

  // Metrics instrument ids (valid only when metrics_ is set).
  int m_pushes_ = -1;
  int m_drain_pushes_ = -1;
  int m_pops_ = -1;
  int m_serves_ = -1;
  int m_starves_ = -1;
  int m_overflows_ = -1;
  int m_pauses_ = -1;
  int m_resumes_ = -1;
  int m_live_ = -1;
  int m_paused_ = -1;
  int m_overflowed_ = -1;
  int m_depth_ = -1;
  int m_sojourn_ = -1;
  int m_cache_hits_ = -1;
  int m_cache_misses_ = -1;
  int m_cache_installs_ = -1;
  int m_cache_evictions_ = -1;
  int m_cache_zero_rounds_ = -1;
  int m_cache_zero_pushes_ = -1;
  int m_cache_bypasses_ = -1;
  std::array<int, obs::kStageCount> m_prof_{};  ///< per-stage nanos counters

  std::vector<int> depth_;             // pre-round, for the policy view
  std::vector<std::uint8_t> finished_;
  std::vector<std::uint8_t> paused_;   // pause mode: frozen this round
  std::vector<int> drainable_;         // pause mode: ungranted paused lanes
  std::vector<int> assignment_;        // one round, engine -> lane
  std::vector<int> assignments_;       // whole batch, [round][engine]
  std::vector<int> grant_;             // [lane][round]: engine or -1
  std::vector<std::uint64_t> cycles_;  // [lane][round]: cycles consumed
  std::vector<std::uint8_t> flags_;    // [lane][round]: kActive | ...
  std::vector<int> depth_scratch_;     // [lane][round]: post-round depth
  std::vector<int> served_;            // tracer: per-round consumed grants
  std::vector<int> pops_;              // metrics: [lane][round] layers popped
  std::vector<std::size_t> samples_after_;  // metrics: cumulative sojourn count
  std::vector<DecodeCacheStats> cache_after_;  // metrics: cumulative cache stats
};

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  out += "\"";
  return out;
}

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
  out += ", \"cache\": " + json_string(config.cache);
  out += ", \"threads\": " + std::to_string(config.threads);
  out += ", \"obs\": {";
  out += "\"trace\": ";
  out += config.obs.trace ? "true" : "false";
  out += ", \"trace_ring\": " + std::to_string(config.obs.trace_ring);
  out += ", \"metrics\": ";
  out += config.obs.metrics ? "true" : "false";
  out += ", \"metrics_window\": " + std::to_string(config.obs.metrics_window);
  out += ", \"profile\": ";
  out += config.obs.profile ? "true" : "false";
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
  parallel_for(config.lanes, config.threads, [&](int lane) {
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
  // Decode-window memoization: config.cache overrides the engine spec's
  // cache block when present (also validated eagerly, before any lane
  // exists). record_trace engines bypass the cache, so treat that as off.
  DecodeCacheConfig cache_cfg = engine_config.cache;
  if (!config.cache.empty()) cache_cfg = parse_decode_cache_spec(config.cache);
  CacheLayout cache_layout;
  cache_layout.enabled = cache_cfg.enabled && cache_cfg.entries > 0 &&
                         !engine_config.record_trace;
  if (cache_layout.enabled) {
    cache_layout.shards = decode_cache_shard_count(cache_cfg, n);
    cache_layout.block = (n + cache_layout.shards - 1) / cache_layout.shards;
  }
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
  }
  if (admission.codel()) {
    for (auto& lane : lanes) {
      lane.codel = CodelControl(admission.target, admission.interval);
    }
  }

  // Cache shards: lanes [s * block, (s + 1) * block) share shard s. The
  // shard count is a pure function of the config (never of --threads), so
  // which windows collide in a shard — and thus every hit/miss counter —
  // is reproducible across machines.
  std::vector<DecodeCache> cache_shards;
  if (cache_layout.enabled) {
    cache_shards.reserve(static_cast<std::size_t>(cache_layout.shards));
    for (int s = 0; s < cache_layout.shards; ++s) {
      cache_shards.emplace_back(cache_cfg.entries);
    }
    for (int i = 0; i < n; ++i) {
      lanes[static_cast<std::size_t>(i)].stepper.set_decode_cache(
          &cache_shards[static_cast<std::size_t>(i / cache_layout.block)]);
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
    for (auto& lane : lanes) {
      lane.stepper.set_profiler(outcome.profiler.get());  // kCache stage
    }
  }
  outcome.telemetry.distance = static_cast<int>(trace.header().distance);
  outcome.telemetry.p = trace.header().p_data;
  outcome.telemetry.cycles_per_round = config.cycles_per_round;
  outcome.telemetry.seed = trace.header().seed;
  outcome.telemetry.engine = config.engine;
  outcome.telemetry.policy = config.policy;
  outcome.telemetry.admission = config.admission;
  if (cache_layout.enabled) {
    DecodeCacheConfig resolved = cache_cfg;
    resolved.shards = cache_layout.shards;
    outcome.telemetry.cache = decode_cache_spec_string(resolved);
  } else {
    outcome.telemetry.cache = "off";
  }
  outcome.telemetry.engines = engines;
  outcome.telemetry.budget_w = config.budget_w;
  if (freq_hz > 0) {
    const PoolPowerModel power{engines,
                               static_cast<int>(trace.header().distance),
                               freq_hz};
    outcome.telemetry.watts = power.watts();
  }

  PoolScheduler scheduler(lanes, *policy, engines, config, admission,
                          cache_layout, outcome.telemetry,
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

  if (admission.pause()) {
    // Admission-controlled run: one round at a time, per-lane cursors.
    // Paused lanes lag behind the global round, so streaming and drain
    // interleave per lane; the total round count is bounded by the trace
    // length plus the drain budget, exactly like the two-phase loop.
    const std::int64_t max_rounds =
        static_cast<std::int64_t>(trace.rounds()) + config.max_drain_rounds;
    for (std::int64_t t = 0; t < max_rounds; ++t) {
      poll_dump_request();
      if (!scheduler.dispatch_admission(t, trace)) break;
    }
  } else {
    // Phase 1 — streaming: round t reaches every live lane before any lane
    // sees round t+1, mirroring syndrome arrival in hardware; the policy
    // grants engines round by round within each dispatch batch.
    for (std::int64_t t = 0; t < trace.rounds();) {
      poll_dump_request();
      const int count = static_cast<int>(
          std::min<std::int64_t>(scheduler.batch(), trace.rounds() - t));
      scheduler.dispatch(t, count, /*drain=*/false, &trace);
      t += count;
    }

    // Phase 2 — drain: clean layers until every lane overflowed or
    // drained, bounded by max_drain_rounds (QEC never stops in hardware).
    std::int64_t round = trace.rounds();
    for (int budget = config.max_drain_rounds; budget > 0;) {
      poll_dump_request();
      bool any_active = false;
      for (const auto& lane : lanes) any_active |= !lane.finished();
      if (!any_active) break;
      const int count = std::min(scheduler.batch(), budget);
      scheduler.dispatch(round, count, /*drain=*/true, nullptr);
      round += count;
      budget -= count;
    }
  }

  // Finalize each lane (the logical scoring decodes nothing, but keep it
  // in the parallel region: it is per-lane work too).
  const bool pause_mode = admission.pause();
  parallel_for(n, config.threads, [&](int i) {
    obs::ScopedStage prof(outcome.profiler.get(), obs::Stage::kLaneExecute);
    Lane& lane = lanes[static_cast<std::size_t>(i)];
    const OnlineResult result = lane.stepper.result();
    LaneTelemetry& t = lane.telemetry;
    t.overflow = result.overflow;
    // Under admission pause a lane can exit the round bound mid-trace
    // with an empty queue (it spent the tail paused): it never consumed
    // the remaining syndrome layers, so it is NOT drained and must not
    // be scored against the full-trace ground truth.
    const bool drained =
        result.drained &&
        (!pause_mode ||
         (lane.cursor >= trace.rounds() && !lane.stepper.paused()));
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
    t.cache = lane.stepper.engine().cache_stats();
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
