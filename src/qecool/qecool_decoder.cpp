#include "qecool/qecool_decoder.hpp"

#include <stdexcept>

namespace qec {

BatchQecoolDecoder::BatchQecoolDecoder(QecoolConfig config)
    : config_(config) {
  config_.thv = -1;  // batch: every stored layer is immediately eligible
}

DecodeResult BatchQecoolDecoder::decode(const PlanarLattice& lattice,
                                        const SyndromeHistory& history) {
  QecoolConfig config = config_;
  config.reg_depth = history.total_rounds();
  QecoolEngine engine(lattice, config);
  PackedBits packed(static_cast<std::size_t>(lattice.num_checks()));
  for (const auto& layer : history.difference) {
    packed.assign_bits(layer);
    if (!engine.push_layer(packed)) {
      throw std::logic_error("batch engine sized to hold all layers");
    }
  }
  engine.run(QecoolEngine::kUnlimited);
  if (!engine.all_clear()) {
    throw std::logic_error("batch-QECOOL must drain every defect");
  }
  last_stats_ = engine.match_stats();
  DecodeResult result;
  result.correction = engine.correction();
  result.work = engine.total_cycles();
  return result;
}

}  // namespace qec
