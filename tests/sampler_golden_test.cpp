// Bit-identity pins of the noise samplers. The sampling kernels are hot
// loops that get rewritten for speed; these tests make sure every rewrite
// keeps the exact xoshiro256** stream: the same draws, in the same order,
// producing the same bits. Three independent checks:
//
//   - FNV-1a digests of record_trace payloads and of sample_history
//     outputs over a (distance x p) grid, captured from the original
//     byte-per-bit implementation. d=25 (600 checks) covers multi-word
//     layers; p=0 and p=1 cover the draw-free Bernoulli branches.
//   - A test-local copy of the original byte-per-bit loop, used as a
//     reference oracle that sample_history must match exactly, including
//     the generator state it leaves behind.
//   - FNV-1a digests of the circuit-level and two-sector depolarizing
//     samplers (difference layers, final error, next draw), captured from
//     the implementation that built a measured sequence first.
//
// A history stores only difference layers; the measured syndromes the
// older digests were taken over are their running XOR, rebuilt here.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "noise/circuit_level.hpp"
#include "noise/depolarizing.hpp"
#include "noise/phenomenological.hpp"
#include "stream/service.hpp"
#include "stream/trace.hpp"
#include "surface_code/planar_lattice.hpp"

namespace qec {
namespace {

/// The original sampling loop, one rng.bernoulli() per bit into bytes.
SyndromeHistory reference_history(const PlanarLattice& lattice,
                                  const NoiseParams& params,
                                  Xoshiro256ss& rng) {
  SyndromeHistory h;
  h.final_error.assign(static_cast<std::size_t>(lattice.num_data()), 0);
  std::vector<BitVec> measured;
  for (int t = 0; t < params.rounds; ++t) {
    for (auto& bit : h.final_error) {
      bit ^= static_cast<std::uint8_t>(rng.bernoulli(params.p_data));
    }
    BitVec meas = lattice.syndrome(h.final_error);
    for (auto& bit : meas) {
      bit ^= static_cast<std::uint8_t>(rng.bernoulli(params.p_meas));
    }
    measured.push_back(std::move(meas));
  }
  measured.push_back(lattice.syndrome(h.final_error));
  h.difference = difference_syndromes(measured);
  return h;
}

/// The measured-syndrome sequence: the running XOR of the difference
/// layers.
std::vector<BitVec> running_xor(const std::vector<BitVec>& difference) {
  std::vector<BitVec> measured;
  for (const auto& layer : difference) {
    measured.push_back(measured.empty() ? layer
                                        : xor_of(layer, measured.back()));
  }
  return measured;
}

std::uint64_t digest(const std::vector<BitVec>& layers) {
  std::vector<std::uint8_t> bytes;
  for (const auto& layer : layers) {
    bytes.insert(bytes.end(), layer.begin(), layer.end());
  }
  return fnv1a64(bytes.data(), bytes.size());
}

std::uint64_t digest(const BitVec& bits) {
  return fnv1a64(bits.data(), bits.size());
}

constexpr int kRounds = 6;
constexpr std::uint64_t kSeed = 2021;

struct HistoryCase {
  int d;
  double p_data;
  double p_meas;
  std::uint64_t measured;
  std::uint64_t difference;
  std::uint64_t final_error;
};

// Captured from the byte-per-bit sampler (Xoshiro256ss(kSeed + d),
// kRounds noisy rounds).
constexpr HistoryCase kHistoryCases[] = {
    {3, 0.0, 0.0, 0x2a3129a9c3cff60dULL, 0x2a3129a9c3cff60dULL,
     0x7c96179f62dae92fULL},
    {3, 0.001, 0.001, 0x2a3129a9c3cff60dULL, 0x2a3129a9c3cff60dULL,
     0x7c96179f62dae92fULL},
    {3, 0.015, 0.015, 0x460d0f01dbf069a5ULL, 0x24d876c320d9b58cULL,
     0xb7439c1511071654ULL},
    {3, 1.0, 1.0, 0xc8c33065aefb7915ULL, 0xb1088f6e8c7440b9ULL,
     0x7c96179f62dae92fULL},
    {9, 0.0, 0.0, 0x52014397078ac885ULL, 0x52014397078ac885ULL,
     0x5652bd74c95c559fULL},
    {9, 0.001, 0.001, 0xfdffaa3516aa6919ULL, 0x54a1cf3b530dca6fULL,
     0xcb4114b41d934a3eULL},
    {9, 0.015, 0.015, 0xa77aeeecf0fd0ec6ULL, 0xd6096a4da0212535ULL,
     0x7251c8771f520bf1ULL},
    {9, 1.0, 1.0, 0x554e60c428c63f05ULL, 0xb9c7ce40c17f3855ULL,
     0x5652bd74c95c559fULL},
    {13, 0.0, 0.0, 0x7f579e6a759918f5ULL, 0x7f579e6a759918f5ULL,
     0x2eeff0179fa4fcffULL},
    {13, 0.001, 0.001, 0xa9e1e4d434e709cfULL, 0xfcc1adf9f0e74c08ULL,
     0xfc0376e8d2a959a3ULL},
    {13, 0.015, 0.015, 0x4193dc39ff6f37a9ULL, 0xa83a9c757edf6694ULL,
     0x64d9dbca2d5512d1ULL},
    {13, 1.0, 1.0, 0xfb7f3cb8d95c3895ULL, 0x00710dab1c1662cdULL,
     0x2eeff0179fa4fcffULL},
    {25, 0.0, 0.0, 0x880bb47fa003a145ULL, 0x880bb47fa003a145ULL,
     0x2bbe10ff5546d51fULL},
    {25, 0.001, 0.001, 0x79d003a7c50f31f1ULL, 0xe0f844163064c0c5ULL,
     0xd685e87f19dd645eULL},
    {25, 0.015, 0.015, 0xd4c6a99dc1117125ULL, 0xa4f8d57d11410538ULL,
     0xd875e0b3d98e8546ULL},
    {25, 1.0, 1.0, 0x36c36e11c1bd9bc5ULL, 0x740cf7fb81fe41b5ULL,
     0x2bbe10ff5546d51fULL},
    {9, 0.015, 0.001, 0x71132f5110ab1d47ULL, 0x70243a51c1b670c9ULL,
     0x7251c8771f520bf1ULL},
    {25, 0.001, 0.015, 0xeb85e2cca1a1d025ULL, 0xbbff5065677f5bf1ULL,
     0xd685e87f19dd645eULL},
    // A draw-free data probability ahead of a drawn measurement one: an
    // extra or missing draw at p=0 or p=1 shifts every measurement bit.
    {9, 1.0, 0.015, 0x3c17ed2711469d3cULL, 0x1db2afe3d816ee85ULL,
     0x5652bd74c95c559fULL},
    {13, 0.0, 0.015, 0x49d4aba64ce3d185ULL, 0x98707468c1460d11ULL,
     0x2eeff0179fa4fcffULL},
};

struct TraceCase {
  int d;
  double p;
  std::uint64_t payload;
};

// Captured from the byte-per-bit record path (3 lanes, kRounds noisy
// rounds, seed kSeed).
constexpr TraceCase kTraceCases[] = {
    {3, 0.0, 0x74ea84a8806d5a57ULL},
    {3, 0.001, 0x74ea84a8806d5a57ULL},
    {3, 0.015, 0x259e087ec73f6b2bULL},
    {3, 1.0, 0x62ab285c61453a15ULL},
    {9, 0.0, 0x00d8fe472d9b2dfdULL},
    {9, 0.001, 0x7ccf8f49ef8a77f4ULL},
    {9, 0.015, 0xc3ea0624ebdeceadULL},
    {9, 1.0, 0xa07f8082acaf8e85ULL},
    {13, 0.0, 0x0e5e4752cb0929d5ULL},
    {13, 0.001, 0xac20f6a6fc491cbeULL},
    {13, 0.015, 0xb186c5b79dfd994eULL},
    {13, 1.0, 0x0f1a67cf0386ec0dULL},
    {25, 0.0, 0xc19e214cedbaba15ULL},
    {25, 0.001, 0x3f24c54492351f96ULL},
    {25, 0.015, 0x7398741495858998ULL},
    {25, 1.0, 0x7a22b2880ea1da7dULL},
};

TEST(SamplerGolden, SampleHistoryDigestsArePinned) {
  for (const auto& c : kHistoryCases) {
    const PlanarLattice lattice(c.d);
    Xoshiro256ss rng(kSeed + static_cast<std::uint64_t>(c.d));
    const auto h = sample_history(lattice, {c.p_data, c.p_meas, kRounds}, rng);
    SCOPED_TRACE("d=" + std::to_string(c.d) +
                 " p_data=" + std::to_string(c.p_data) +
                 " p_meas=" + std::to_string(c.p_meas));
    EXPECT_EQ(digest(running_xor(h.difference)), c.measured);
    EXPECT_EQ(digest(h.difference), c.difference);
    EXPECT_EQ(digest(h.final_error), c.final_error);
  }
}

struct CircuitCase {
  int d;
  double p;
  std::uint64_t difference;
  std::uint64_t final_error;
  std::uint64_t next_draw;
};

// Captured from the measured-sequence circuit sampler
// (Xoshiro256ss(kSeed + d), kRounds noisy rounds, idle_scale 1).
constexpr CircuitCase kCircuitCases[] = {
    {3, 0.0, 0x2a3129a9c3cff60dULL, 0x7c96179f62dae92fULL,
     0x0e48715a13d7772eULL},
    {3, 0.001, 0x2a3129a9c3cff60dULL, 0x7c96179f62dae92fULL,
     0x2c1deb2b8afb6930ULL},
    {3, 0.02, 0x2f535174fd118f7aULL, 0x54862fa74698a41cULL,
     0x2c1deb2b8afb6930ULL},
    {9, 0.0, 0x52014397078ac885ULL, 0x5652bd74c95c559fULL,
     0xd772c57d3a44bb4aULL},
    {9, 0.001, 0xd9dec4a396affa35ULL, 0xd4e45c7d791ad724ULL,
     0xdc978954aaf149afULL},
    {9, 0.02, 0x10e7862dc45abb2cULL, 0x90904d224fdc2b76ULL,
     0xaa1c429fa1492074ULL},
    {13, 0.0, 0x7f579e6a759918f5ULL, 0x2eeff0179fa4fcffULL,
     0x18e39589e792a792ULL},
    {13, 0.001, 0x9fb7025c86161409ULL, 0x5ab56d0eefbf013cULL,
     0x314f37f56af37ddcULL},
    {13, 0.02, 0xadaa72007dfe05ceULL, 0x5c28bde384ef3fb5ULL,
     0xefb6d86b6ffad19fULL},
};

struct DepolarizingCase {
  int d;
  double p;
  std::uint64_t x_difference;
  std::uint64_t x_final_error;
  std::uint64_t z_difference;
  std::uint64_t z_final_error;
  std::uint64_t next_draw;
};

// Captured from the measured-sequence two-sector sampler
// (Xoshiro256ss(kSeed + d), kRounds noisy rounds, p_meas = p).
constexpr DepolarizingCase kDepolarizingCases[] = {
    {3, 0.0, 0x2a3129a9c3cff60dULL, 0x7c96179f62dae92fULL,
     0x2a3129a9c3cff60dULL, 0x7c96179f62dae92fULL, 0x0e48715a13d7772eULL},
    {3, 0.001, 0x2a3129a9c3cff60dULL, 0x7c96179f62dae92fULL,
     0x2a3129a9c3cff60dULL, 0x7c96179f62dae92fULL, 0xd8575b03f9f6a17cULL},
    {3, 0.02, 0xebe0402ec93af3cfULL, 0xf953a04f93bffecfULL,
     0xd3114eabee41b0fcULL, 0xeca4bd251670946cULL, 0xd30f05e1506cf69aULL},
    {9, 0.0, 0x52014397078ac885ULL, 0x5652bd74c95c559fULL,
     0x52014397078ac885ULL, 0x5652bd74c95c559fULL, 0xd772c57d3a44bb4aULL},
    {9, 0.001, 0x52014397078ac885ULL, 0x5652bd74c95c559fULL,
     0x81db1a8ed41f9e05ULL, 0x3d83cbf1ee6312ccULL, 0xaec2e5529271ce72ULL},
    {9, 0.02, 0xabe035eb33cca4baULL, 0xe26bc4bd8de197ecULL,
     0x626dde474e82363dULL, 0x07cb81d3e6ff1cb7ULL, 0x374707b6cc1609abULL},
    {13, 0.0, 0x7f579e6a759918f5ULL, 0x2eeff0179fa4fcffULL,
     0x7f579e6a759918f5ULL, 0x2eeff0179fa4fcffULL, 0x18e39589e792a792ULL},
    {13, 0.001, 0x947609709f358da5ULL, 0x0a3f67e99457cc12ULL,
     0xd659dd737188bd39ULL, 0x4ea59fdae20cb827ULL, 0x10be32cf33875477ULL},
    {13, 0.02, 0x5936d3850412a536ULL, 0x5318ae972588443cULL,
     0x7ee104a1880bf0a9ULL, 0xa2beace4fb5b4fe3ULL, 0x032febbd27af8035ULL},
};

TEST(SamplerGolden, CircuitHistoryDigestsArePinned) {
  for (const auto& c : kCircuitCases) {
    const PlanarLattice lattice(c.d);
    Xoshiro256ss rng(kSeed + static_cast<std::uint64_t>(c.d));
    const auto h = sample_circuit_history(lattice, {c.p, kRounds, 1.0}, rng);
    SCOPED_TRACE("d=" + std::to_string(c.d) + " p=" + std::to_string(c.p));
    EXPECT_EQ(digest(h.difference), c.difference);
    EXPECT_EQ(digest(h.final_error), c.final_error);
    EXPECT_EQ(rng(), c.next_draw);
  }
}

TEST(SamplerGolden, DepolarizingHistoryDigestsArePinned) {
  for (const auto& c : kDepolarizingCases) {
    const PlanarLattice lattice(c.d);
    Xoshiro256ss rng(kSeed + static_cast<std::uint64_t>(c.d));
    const auto h =
        sample_depolarizing_history(lattice, {c.p, c.p, kRounds}, rng);
    SCOPED_TRACE("d=" + std::to_string(c.d) + " p=" + std::to_string(c.p));
    EXPECT_EQ(digest(h.x.difference), c.x_difference);
    EXPECT_EQ(digest(h.x.final_error), c.x_final_error);
    EXPECT_EQ(digest(h.z.difference), c.z_difference);
    EXPECT_EQ(digest(h.z.final_error), c.z_final_error);
    EXPECT_EQ(rng(), c.next_draw);
  }
}

TEST(SamplerGolden, RecordTracePayloadDigestsArePinned) {
  const std::string path =
      std::string(::testing::TempDir()) + "/sampler_golden.qtrc";
  for (const auto& c : kTraceCases) {
    StreamConfig config;
    config.lanes = 3;
    config.distance = c.d;
    config.p = c.p;
    config.rounds = kRounds;
    config.seed = kSeed;
    record_trace(config).save(path);
    std::ifstream in(path, std::ios::binary);
    const std::vector<std::uint8_t> blob(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    const std::size_t size = SyndromeTrace::payload_size(blob);
    SCOPED_TRACE("d=" + std::to_string(c.d) + " p=" + std::to_string(c.p));
    EXPECT_EQ(fnv1a64(blob.data() + SyndromeTrace::payload_offset(), size),
              c.payload);
  }
  std::remove(path.c_str());
}

TEST(SamplerGolden, MatchesByteLoopOracleExactly) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double ps[] = {0.0, -0.5, nan, 1e-3, 0.015, 0.5, 1.0, 1.5};
  for (const int d : {3, 9, 25}) {
    const PlanarLattice lattice(d);
    for (const double p_data : ps) {
      for (const double p_meas : ps) {
        const NoiseParams params{p_data, p_meas, 4};
        Xoshiro256ss rng(kSeed + static_cast<std::uint64_t>(d));
        Xoshiro256ss ref_rng = rng;
        const auto h = sample_history(lattice, params, rng);
        const auto ref = reference_history(lattice, params, ref_rng);
        SCOPED_TRACE("d=" + std::to_string(d) +
                     " p_data=" + std::to_string(p_data) +
                     " p_meas=" + std::to_string(p_meas));
        ASSERT_EQ(h.difference, ref.difference);
        ASSERT_EQ(h.final_error, ref.final_error);
        // Same number of draws: the generators continue in lockstep.
        ASSERT_EQ(rng(), ref_rng());
      }
    }
  }
}

}  // namespace
}  // namespace qec
