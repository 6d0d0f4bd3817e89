#include "mwpm/mwpm_decoder.hpp"

#include "mwpm/blossom.hpp"

namespace qec {
namespace {
// Sentinel for defect-to-foreign-boundary pairs. Never selected by an
// optimal matching because pairing with the defect's own boundary node plus
// a free boundary-boundary edge is always cheaper.
constexpr std::int64_t kForbidden = 1 << 20;
}  // namespace

std::vector<MatchedPair> MwpmDecoder::match_defects(
    const PlanarLattice& lattice, const std::vector<Defect>& defects) {
  BlossomMatcher matcher;
  return match_defects(lattice, defects, matcher);
}

std::vector<MatchedPair> MwpmDecoder::match_defects(
    const PlanarLattice& lattice, const std::vector<Defect>& defects,
    BlossomMatcher& matcher) {
  const int nd = static_cast<int>(defects.size());
  if (nd == 0) return {};
  // Vertices: [0, nd) defects, [nd, 2*nd) their private boundary nodes.
  matcher.reset(2 * nd);
  for (int i = 0; i < nd; ++i) {
    for (int j = i + 1; j < nd; ++j) {
      matcher.set_weight(i, j, defect_distance(defects[static_cast<std::size_t>(i)],
                                               defects[static_cast<std::size_t>(j)]));
      matcher.set_weight(nd + i, nd + j, 0);
    }
    matcher.set_weight(i, nd + i,
                       lattice.boundary_distance(defects[static_cast<std::size_t>(i)].col));
    for (int j = 0; j < nd; ++j) {
      if (j != i) matcher.set_weight(i, nd + j, kForbidden);
    }
  }
  const std::vector<int>& mate = matcher.solve();

  std::vector<MatchedPair> pairs;
  for (int i = 0; i < nd; ++i) {
    const int m = mate[static_cast<std::size_t>(i)];
    if (m == nd + i) {
      pairs.push_back({defects[static_cast<std::size_t>(i)], {}, true});
    } else if (m > i && m < nd) {
      pairs.push_back({defects[static_cast<std::size_t>(i)],
                       defects[static_cast<std::size_t>(m)], false});
    }
  }
  return pairs;
}

DecodeResult MwpmDecoder::decode(const PlanarLattice& lattice,
                                 const SyndromeHistory& history) {
  const std::vector<Defect> defects =
      collect_defects(lattice, history.difference);
  const std::vector<MatchedPair> pairs =
      match_defects(lattice, defects, matcher_);
  DecodeResult result;
  result.correction = pairs_to_correction(lattice, pairs);
  result.work = defects.size();
  return result;
}

}  // namespace qec
