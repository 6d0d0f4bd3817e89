// Sliding-window MWPM: how a software/FPGA matching decoder is actually
// deployed on-line. Not in the paper's evaluation, but the natural point of
// comparison for QECOOL's on-line operation (Fig 3's batch-vs-online
// framing): instead of waiting for the full history, decode a window of W
// layers at a time and commit only matches that are safely in the past.
//
// Scheme: after each new layer t, once at least `window` layers are
// pending, match ALL pending defects with exact MWPM, then commit the pairs
// whose latest involved layer is older than t - guard (they can no longer
// be affected by future syndrome information); committed defects are
// removed. At end of history everything remaining is matched and committed.
//
// window -> infinity recovers batch MWPM exactly; small windows trade
// accuracy for bounded latency, mirroring the thv trade-off of Section
// III-B.
#pragma once

#include "decoder/decoder.hpp"
#include "mwpm/blossom.hpp"
#include "mwpm/matching_graph.hpp"

namespace qec {

struct WindowConfig {
  /// Layers accumulated before the first decode call.
  int window = 6;
  /// Matches touching the most recent `guard` layers are deferred.
  int guard = 3;
};

class WindowedMwpmDecoder final : public Decoder {
 public:
  explicit WindowedMwpmDecoder(WindowConfig config = {});

  std::string name() const override { return "Windowed-MWPM"; }

  DecodeResult decode(const PlanarLattice& lattice,
                      const SyndromeHistory& history) override;

  /// Number of MWPM invocations during the last decode (latency proxy).
  int last_window_count() const { return last_windows_; }

 private:
  WindowConfig config_;
  int last_windows_ = 0;
  BlossomMatcher matcher_;
};

}  // namespace qec
