#include "mwpm/windowed_mwpm.hpp"

#include <algorithm>
#include <stdexcept>

#include "mwpm/mwpm_decoder.hpp"

namespace qec {

WindowedMwpmDecoder::WindowedMwpmDecoder(WindowConfig config)
    : config_(config) {
  if (config.window < 1 || config.guard < 0 || config.guard >= config.window) {
    throw std::invalid_argument("need window >= 1 and 0 <= guard < window");
  }
}

DecodeResult WindowedMwpmDecoder::decode(const PlanarLattice& lattice,
                                         const SyndromeHistory& history) {
  std::vector<Defect> pending;
  std::vector<MatchedPair> committed;
  last_windows_ = 0;

  const int total = history.total_rounds();
  auto run_window = [&](int newest_layer, bool final_flush) {
    ++last_windows_;
    const auto pairs = MwpmDecoder::match_defects(lattice, pending, matcher_);
    const int commit_before = newest_layer - config_.guard;
    std::vector<std::uint8_t> consumed(pending.size(), 0);
    for (const auto& pair : pairs) {
      const int latest = pair.to_boundary ? pair.a.t
                                          : std::max(pair.a.t, pair.b.t);
      if (!final_flush && latest >= commit_before) continue;
      committed.push_back(pair);
      for (std::size_t i = 0; i < pending.size(); ++i) {
        if (consumed[i]) continue;
        if (pending[i] == pair.a || (!pair.to_boundary && pending[i] == pair.b)) {
          consumed[i] = 1;
        }
      }
    }
    std::vector<Defect> rest;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (!consumed[i]) rest.push_back(pending[i]);
    }
    pending = std::move(rest);
  };

  for (int t = 0; t < total; ++t) {
    const auto& layer = history.difference[static_cast<std::size_t>(t)];
    for (int chk = 0; chk < lattice.num_checks(); ++chk) {
      if (layer[static_cast<std::size_t>(chk)]) {
        const CheckCoord c = lattice.check_coord(chk);
        pending.push_back(Defect{c.row, c.col, t});
      }
    }
    if (t + 1 >= config_.window && !pending.empty()) {
      run_window(t, /*final_flush=*/false);
    }
  }
  if (!pending.empty()) run_window(total - 1, /*final_flush=*/true);

  DecodeResult result;
  result.correction = pairs_to_correction(lattice, committed);
  result.work = static_cast<std::uint64_t>(last_windows_);
  return result;
}

}  // namespace qec
