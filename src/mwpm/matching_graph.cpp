#include "mwpm/matching_graph.hpp"

#include <cmath>

namespace qec {

std::vector<Defect> collect_defects(const PlanarLattice& lattice,
                                    const std::vector<BitVec>& difference) {
  std::vector<Defect> defects;
  for (int t = 0; t < static_cast<int>(difference.size()); ++t) {
    const auto& layer = difference[static_cast<std::size_t>(t)];
    for (int idx = 0; idx < lattice.num_checks(); ++idx) {
      if (layer[static_cast<std::size_t>(idx)]) {
        const CheckCoord c = lattice.check_coord(idx);
        defects.push_back(Defect{c.row, c.col, t});
      }
    }
  }
  return defects;
}

int defect_distance(const Defect& a, const Defect& b) {
  return std::abs(a.row - b.row) + std::abs(a.col - b.col) +
         std::abs(a.t - b.t);
}

BitVec pairs_to_correction(const PlanarLattice& lattice,
                           const std::vector<MatchedPair>& pairs) {
  BitVec correction(static_cast<std::size_t>(lattice.num_data()), 0);
  std::vector<int> path;  // reused for every pair
  for (const auto& pair : pairs) {
    if (pair.to_boundary) {
      lattice.boundary_path_into({pair.a.row, pair.a.col}, path);
    } else {
      lattice.l_path_into({pair.a.row, pair.a.col}, {pair.b.row, pair.b.col},
                          path);
    }
    for (int q : path) correction[static_cast<std::size_t>(q)] ^= 1;
  }
  return correction;
}

}  // namespace qec
