#include "qecool/online_runner.hpp"

#include <stdexcept>

namespace qec {

OnlineStepper::OnlineStepper(const PlanarLattice& lattice,
                             const OnlineConfig& config)
    : engine_(lattice, config.engine),
      clean_(static_cast<std::size_t>(lattice.num_checks())),
      per_round_(config.cycles_per_round),
      test_fault_(config.engine.test_fault) {}

bool OnlineStepper::push(const PackedBits& layer) {
  if (paused_) {
    throw std::logic_error(
        "online stepper: push() while paused — resume() first");
  }
  if (overflow_) return false;
  if (!engine_.push_layer(layer)) {
    overflow_ = true;
    return false;
  }
  ++rounds_;
  return true;
}

const PackedBits& OnlineStepper::pack(const BitVec& layer) {
  // Sized on first use: stream lanes push packed layers and never need it.
  if (scratch_.size() != clean_.size()) scratch_ = PackedBits(clean_.size());
  scratch_.assign_bits(layer);
  return scratch_;
}

bool OnlineStepper::push(const BitVec& layer) { return push(pack(layer)); }

std::uint64_t OnlineStepper::spend(double cycles) {
  last_spend_pops_ = 0;
  if (overflow_) return 0;
  const int popped_before = engine_.popped_layers();
  std::uint64_t consumed;
  if (cycles <= 0.0) {
    consumed = engine_.run(QecoolEngine::kUnlimited);
  } else {
    // Accumulate the fractional budget: a 1.5-cycle clock grants 1, 2, 1,
    // 2, ... cycles rather than truncating to 1 every round. Cycles the
    // engine leaves unused because it went idle are NOT carried — the
    // hardware clock ticks on regardless.
    carry_ += cycles;
    const auto budget = static_cast<std::uint64_t>(carry_);
    carry_ -= static_cast<double>(budget);
    consumed = engine_.run(budget);
  }
  last_spend_pops_ = engine_.popped_layers() - popped_before;
  return consumed;
}

bool OnlineStepper::step(const PackedBits& layer) {
  if (!push(layer)) return false;
  spend(per_round_);
  return true;
}

bool OnlineStepper::step(const BitVec& layer) { return step(pack(layer)); }

StepperCheckpoint OnlineStepper::checkpoint() {
  if (paused_) {
    throw std::logic_error("online stepper: checkpoint() while paused");
  }
  if (overflow_) {
    throw std::logic_error("online stepper: checkpoint() after overflow");
  }
  paused_ = true;
  StepperCheckpoint cp;
  cp.correction = engine_.correction();
  cp.rounds_accepted = rounds_;
  cp.stored_layers = engine_.stored_layers();
  cp.popped_layers = engine_.popped_layers();
  cp.total_cycles = engine_.total_cycles();
  return cp;
}

void OnlineStepper::resume() {
  if (!paused_) {
    throw std::logic_error("online stepper: resume() without checkpoint()");
  }
  paused_ = false;
  // Planted state-restore bug for the fuzz self-check (docs/fuzzing.md):
  // the resumed lane has lost its newest layer, so it pops one layer
  // fewer than a run that never paused. The checkpoint oracle must see it.
  if (test_fault_ == QecoolConfig::kFaultCheckpointResume) {
    engine_.drop_newest_layer();
  }
}

OnlineResult OnlineStepper::result() const {
  OnlineResult r;
  r.overflow = overflow_;
  r.drained = !overflow_ && engine_.all_clear();
  r.correction = engine_.correction();
  r.matches = engine_.match_stats();
  r.layer_cycles = engine_.layer_cycles();
  r.total_cycles = engine_.total_cycles();
  return r;
}

OnlineResult run_online(const PlanarLattice& lattice,
                        const SyndromeHistory& history,
                        const OnlineConfig& config) {
  OnlineStepper stepper(lattice, config);
  for (const auto& layer : history.difference) {
    if (!stepper.step(layer)) break;
  }
  if (!stepper.overflowed()) {
    // Keep the QEC cycle running on clean layers until the queues drain.
    for (int extra = 0; extra < config.max_drain_rounds; ++extra) {
      if (stepper.drained()) break;
      if (!stepper.step_clean()) break;
    }
  }
  return stepper.result();
}

}  // namespace qec
