// Google-benchmark microbenchmarks: decode latency scaling of every decoder
// plus engine/pulse-simulator throughput. Not a paper table — supporting
// evidence that the software baselines are implemented sensibly and that
// the Monte Carlo sweeps are laptop-scale.
#include <benchmark/benchmark.h>

#include "aqec/aqec_decoder.hpp"
#include "mwpm/mwpm_decoder.hpp"
#include "noise/phenomenological.hpp"
#include "qecool/online_runner.hpp"
#include "qecool/qecool_decoder.hpp"
#include "sfq/pulse_sim.hpp"
#include "unionfind/uf_decoder.hpp"

namespace {

// Pre-sampled histories so the benchmark times decoding only.
std::vector<qec::SyndromeHistory> histories(const qec::PlanarLattice& lat,
                                            double p, int count) {
  qec::Xoshiro256ss rng(12345);
  std::vector<qec::SyndromeHistory> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    out.push_back(qec::sample_history(lat, {p, p, lat.distance()}, rng));
  }
  return out;
}

template <typename DecoderT>
void decode_benchmark(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const double p = static_cast<double>(state.range(1)) * 1e-3;
  const qec::PlanarLattice lat(d);
  const auto hs = histories(lat, p, 32);
  DecoderT decoder;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto r = decoder.decode(lat, hs[i % hs.size()]);
    benchmark::DoNotOptimize(r.correction.data());
    ++i;
  }
  state.SetLabel("d=" + std::to_string(d) + " p=" + std::to_string(p));
}

void bench_args(benchmark::internal::Benchmark* b) {
  for (int d : {5, 9, 13}) {
    for (int p_milli : {1, 5, 10}) b->Args({d, p_milli});
  }
}

void BM_DecodeMwpm(benchmark::State& state) {
  decode_benchmark<qec::MwpmDecoder>(state);
}
void BM_DecodeUnionFind(benchmark::State& state) {
  decode_benchmark<qec::UnionFindDecoder>(state);
}
void BM_DecodeBatchQecool(benchmark::State& state) {
  decode_benchmark<qec::BatchQecoolDecoder>(state);
}
void BM_DecodeAqec(benchmark::State& state) {
  decode_benchmark<qec::AqecDecoder>(state);
}
BENCHMARK(BM_DecodeMwpm)->Apply(bench_args)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DecodeUnionFind)->Apply(bench_args)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DecodeBatchQecool)
    ->Apply(bench_args)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DecodeAqec)->Apply(bench_args)->Unit(benchmark::kMicrosecond);

void BM_OnlineQecoolRun(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const qec::PlanarLattice lat(d);
  const auto hs = histories(lat, 0.005, 16);
  qec::OnlineConfig config;
  config.cycles_per_round = 2000;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto r = qec::run_online(lat, hs[i % hs.size()], config);
    benchmark::DoNotOptimize(r.total_cycles);
    ++i;
  }
}
BENCHMARK(BM_OnlineQecoolRun)->Arg(5)->Arg(9)->Arg(13)->Unit(
    benchmark::kMicrosecond);

void BM_PulseSimArbiter(benchmark::State& state) {
  for (auto _ : state) {
    qec::PulseSimulator sim;
    const auto arb = qec::build_priority_arbiter(sim);
    for (int i = 0; i < 4; ++i) sim.inject(arb.port[i], 0.0);
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
}
BENCHMARK(BM_PulseSimArbiter)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
