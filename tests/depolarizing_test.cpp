// Tests for correlated two-sector depolarizing noise.
#include "noise/depolarizing.hpp"

#include <gtest/gtest.h>

#include "decoder/decoder.hpp"
#include "mwpm/mwpm_decoder.hpp"
#include "surface_code/pauli_frame.hpp"

namespace qec {
namespace {

TEST(Depolarizing, ZeroNoiseIsClean) {
  const PlanarLattice lat(5);
  Xoshiro256ss rng(1);
  const auto h = sample_depolarizing_history(lat, {0.0, 0.0, 5}, rng);
  EXPECT_TRUE(is_zero(h.x.final_error));
  EXPECT_TRUE(is_zero(h.z.final_error));
  EXPECT_EQ(h.x.total_rounds(), 6);
  EXPECT_EQ(h.z.total_rounds(), 6);
}

TEST(Depolarizing, RejectsZeroRounds) {
  const PlanarLattice lat(3);
  Xoshiro256ss rng(1);
  EXPECT_THROW(sample_depolarizing_history(lat, {0.1, 0.0, 0}, rng),
               std::invalid_argument);
}

TEST(Depolarizing, SectorFlipRateHelper) {
  EXPECT_DOUBLE_EQ(sector_flip_rate(0.03), 0.02);
}

TEST(Depolarizing, MarginalRatesMatchTwoThirds) {
  const PlanarLattice lat(5);
  Xoshiro256ss rng(2);
  const double p = 0.06;
  int x_flips = 0, z_flips = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    const auto h = sample_depolarizing_history(lat, {p, 0.0, 1}, rng);
    x_flips += weight(h.x.final_error);
    z_flips += weight(h.z.final_error);
  }
  const double expected = sector_flip_rate(p) * lat.num_data() * trials;
  EXPECT_NEAR(x_flips, expected, 0.05 * expected);
  EXPECT_NEAR(z_flips, expected, 0.05 * expected);
}

TEST(Depolarizing, SectorsAreCorrelatedThroughY) {
  // P(both sectors flip the same qubit in a 1-round run) = p/3 per qubit,
  // much larger than the independent product (2p/3)^2 at small p.
  const PlanarLattice lat(5);
  Xoshiro256ss rng(3);
  const double p = 0.03;
  int joint = 0;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) {
    const auto h = sample_depolarizing_history(lat, {p, 0.0, 1}, rng);
    for (int q = 0; q < lat.num_data(); ++q) {
      joint += h.x.final_error[static_cast<std::size_t>(q)] &
               h.z.final_error[static_cast<std::size_t>(q)];
    }
  }
  const double measured =
      static_cast<double>(joint) / (static_cast<double>(trials) * lat.num_data());
  EXPECT_NEAR(measured, p / 3.0, p / 10.0);
  EXPECT_GT(measured, 2.0 * (2.0 * p / 3.0) * (2.0 * p / 3.0));
}

TEST(Depolarizing, BothSectorsDecodeValidly) {
  const PlanarLattice lat(5);
  Xoshiro256ss rng(4);
  MwpmDecoder dec;
  for (int trial = 0; trial < 30; ++trial) {
    const auto h = sample_depolarizing_history(lat, {0.02, 0.013, 5}, rng);
    const auto rx = dec.decode(lat, h.x);
    const auto rz = dec.decode(lat, h.z);
    ASSERT_TRUE(residual_syndrome_free(lat, h.x, rx));
    ASSERT_TRUE(residual_syndrome_free(lat, h.z, rz));
  }
}

TEST(Depolarizing, HistoriesAreInternallyConsistent) {
  const PlanarLattice lat(7);
  Xoshiro256ss rng(5);
  const auto h = sample_depolarizing_history(lat, {0.02, 0.01, 7}, rng);
  for (const SyndromeHistory* sector : {&h.x, &h.z}) {
    BitVec acc(static_cast<std::size_t>(lat.num_checks()), 0);
    for (const auto& layer : sector->difference) xor_into(layer, acc);
    EXPECT_EQ(acc, lat.syndrome(sector->final_error));
  }
}

}  // namespace
}  // namespace qec
