// Engine-state coverage: the fuzzer's fitness signal (DESIGN.md section
// 14, docs/fuzzing.md). Instead of instruction coverage — which saturates
// after a handful of inputs on a decoder whose control flow is short — the
// harness maps each oracle run onto a compact feature space over the
// *engine states* the input reached: Reg occupancy profiles and their
// transitions, overflow proximity, pop bursts, the resumable controller
// position, pause/resume context, and per-lane terminal state. An input
// that drives the engine into a feature cell no earlier input reached is
// interesting and is kept as a corpus seed, exactly the AFL-style feedback
// loop — with the feature map substituting for the edge map.
//
// The map is a fixed bitmap of kCoverageCells cells; (kind, value) pairs
// hash in via SplitMix64. Collisions merge features, which only makes the
// fitness signal slightly conservative — never wrong.
#pragma once

#include <cstdint>
#include <vector>

namespace qec::fuzz {

/// Feature kinds. Values are hashed together with the kind, so each kind
/// owns an unbounded value namespace.
enum class Feature : std::uint8_t {
  kOccupancy = 1,   ///< Reg occupancy m after a push (0..reg_depth)
  kOccupancyEdge,   ///< occupancy transition prev -> next across a round
  kProximity,       ///< overflow proximity: min(reg_depth - m, 3)
  kPops,            ///< layers popped by one spend(): min(pops, 7)
  kController,      ///< post-run (base_depth, hop_limit) position
  kPause,           ///< occupancy at a checkpoint/resume no-op pair
  kLaneEnd,         ///< terminal lane state: overflow/drained/paused bits
};

inline constexpr std::size_t kCoverageCells = std::size_t{1} << 12;

/// Maps one (kind, value) feature to its cell.
std::size_t feature_cell(Feature kind, std::uint32_t value);

/// The features one oracle run touched. Filled by the harness and the
/// coverage probe, then merged into the global CoverageMap.
class FeatureSet {
 public:
  FeatureSet() : bits_(kCoverageCells, 0) {}

  void add(Feature kind, std::uint32_t value) {
    bits_[feature_cell(kind, value)] = 1;
  }

  void merge(const FeatureSet& other);

  int count() const;

  const std::vector<std::uint8_t>& bits() const { return bits_; }

 private:
  std::vector<std::uint8_t> bits_;
};

/// Cumulative coverage across the whole fuzzing session.
class CoverageMap {
 public:
  CoverageMap() : bits_(kCoverageCells, 0) {}

  /// Folds a run's features in; returns how many cells were new — the
  /// run's fitness. 0 means the input reached nothing unseen.
  int merge(const FeatureSet& run);

  int covered() const { return covered_; }

 private:
  std::vector<std::uint8_t> bits_;
  int covered_ = 0;
};

}  // namespace qec::fuzz
