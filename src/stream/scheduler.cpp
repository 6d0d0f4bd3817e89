#include "stream/scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "stream/qos.hpp"

namespace qec {
namespace {

[[noreturn]] void bad_spec(const std::string& what) {
  throw std::invalid_argument("scheduler policy spec: " + what);
}

/// Engine i serves lane i every round — the pre-pool behaviour, kept as the
/// K == N special case so the refactor stays byte-identical to it.
class DedicatedPolicy final : public SchedulerPolicy {
 public:
  void validate(int lanes, int engines) const override {
    if (lanes != engines) {
      bad_spec("'dedicated' needs one engine per lane (engines == lanes); "
               "use round_robin, least_loaded, or fq for a shared pool");
    }
  }

  void assign(const ScheduleView& view,
              std::vector<int>& assignment) override {
    for (int e = 0; e < view.engines; ++e) assignment[static_cast<std::size_t>(e)] = e;
  }
};

/// Fixed rotation: engine j serves lane (round*K + j + offset) mod N, a TDM
/// crossbar schedule that ignores lane state entirely (so it can be
/// batched). With K == N every lane is served every round — identical to
/// dedicated.
class RoundRobinPolicy final : public SchedulerPolicy {
 public:
  explicit RoundRobinPolicy(int offset) : offset_(offset) {}

  void assign(const ScheduleView& view,
              std::vector<int>& assignment) override {
    const auto n = static_cast<std::int64_t>(view.lanes);
    // K consecutive lanes mod N are distinct whenever K <= N.
    std::int64_t base = view.round * view.engines + offset_;
    base %= n;
    if (base < 0) base += n;
    for (int e = 0; e < view.engines; ++e) {
      assignment[static_cast<std::size_t>(e)] =
          static_cast<int>((base + e) % n);
    }
  }

 private:
  int offset_ = 0;
};

/// Backpressure-aware: live lanes ranked by Reg queue depth (deepest
/// first, ties broken by lane index), top K get an engine. Reads runtime
/// queue state, so it is dynamic — one scheduling barrier per round.
class LeastLoadedPolicy final : public SchedulerPolicy {
 public:
  bool dynamic() const override { return true; }

  void assign(const ScheduleView& view,
              std::vector<int>& assignment) override {
    ranked_.clear();
    for (int lane = 0; lane < view.lanes; ++lane) {
      if (view.schedulable(lane)) ranked_.push_back(lane);
    }
    const auto takers =
        std::min<std::size_t>(ranked_.size(), static_cast<std::size_t>(view.engines));
    std::partial_sort(ranked_.begin(), ranked_.begin() + static_cast<std::ptrdiff_t>(takers),
                      ranked_.end(), [&view](int a, int b) {
                        const int da = view.depth[static_cast<std::size_t>(a)];
                        const int db = view.depth[static_cast<std::size_t>(b)];
                        return da != db ? da > db : a < b;
                      });
    for (int e = 0; e < view.engines; ++e) {
      assignment[static_cast<std::size_t>(e)] =
          static_cast<std::size_t>(e) < takers ? ranked_[static_cast<std::size_t>(e)] : -1;
    }
  }

 private:
  std::vector<int> ranked_;  // scratch, reused across rounds
};

using PolicyFactory =
    std::unique_ptr<SchedulerPolicy> (*)(const DecoderOptions& options);

/// The built-in policies, sorted by name.
constexpr std::pair<std::string_view, PolicyFactory> kPolicies[] = {
    {"dedicated",
     [](const DecoderOptions&) -> std::unique_ptr<SchedulerPolicy> {
       return std::make_unique<DedicatedPolicy>();
     }},
    {"fq",  // stream/qos.cpp: DRR over new/old lists
     [](const DecoderOptions& options) { return make_fq_policy(options); }},
    {"least_loaded",
     [](const DecoderOptions&) -> std::unique_ptr<SchedulerPolicy> {
       return std::make_unique<LeastLoadedPolicy>();
     }},
    {"round_robin",
     [](const DecoderOptions& options) -> std::unique_ptr<SchedulerPolicy> {
       return std::make_unique<RoundRobinPolicy>(options.get_int("offset", 0));
     }},
};

}  // namespace

void SchedulerPolicy::validate(int lanes, int engines) const {
  if (engines < 1 || engines > lanes) {
    bad_spec("engines must be in [1, lanes]");
  }
}

std::unique_ptr<SchedulerPolicy> make_scheduler_policy(std::string_view spec) {
  const auto colon = spec.find(':');
  const std::string_view name = spec.substr(0, colon);
  const auto it =
      std::find_if(std::begin(kPolicies), std::end(kPolicies),
                   [name](const auto& entry) { return entry.first == name; });
  if (it == std::end(kPolicies)) {
    bad_spec("unknown policy '" + std::string(name) + "'");
  }
  const DecoderOptions options = DecoderOptions::parse(
      colon == std::string_view::npos ? std::string_view{}
                                      : spec.substr(colon + 1));
  auto policy = it->second(options);
  if (!policy) bad_spec("factory for '" + std::string(name) + "' failed");
  if (const auto leftover = options.unconsumed(); !leftover.empty()) {
    bad_spec("policy '" + std::string(name) + "' does not understand " +
             DecoderOptions::join_keys(leftover));
  }
  return policy;
}

std::vector<std::string> registered_scheduler_policies() {
  std::vector<std::string> names;
  for (const auto& [name, factory] : kPolicies) names.emplace_back(name);
  return names;
}

void trace_round_schedule(obs::Tracer& tracer, std::int64_t round,
                          const std::vector<int>& served, bool drain) {
  std::uint64_t serving = 0;
  for (const int lane : served) {
    if (lane >= 0) ++serving;
  }
  tracer.control().emit_at(round, obs::EventKind::kDispatch, serving,
                           drain ? 1 : 0);
  for (std::size_t e = 0; e < served.size(); ++e) {
    if (served[e] < 0) continue;
    tracer.engine(static_cast<int>(e))
        .emit_at(round, obs::EventKind::kGrant,
                 static_cast<std::uint64_t>(served[e]));
  }
}

}  // namespace qec
