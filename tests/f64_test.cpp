// Tests for the float64 data path (SZ's `-d` mode): quantizer, truncation
// codec, SZ-1.4 and waveSZ round trips, and container dtype enforcement.
// Crucially, doubles admit bounds far below float precision — the tests use
// bounds a float32 path could not honour.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <tuple>
#include <vector>

#include "core/wavesz.hpp"
#include "data/synthetic.hpp"
#include "sz/compressor.hpp"
#include "sz/quantizer.hpp"
#include "sz/unpredictable.hpp"
#include "util/error.hpp"

namespace wavesz {
namespace {

std::vector<double> field64(const Dims& dims, std::uint64_t seed) {
  data::FieldRecipe r;
  r.seed = seed;
  r.base_frequency = 1.0;
  const auto f32 = data::generate(r, dims);
  std::vector<double> out(f32.size());
  // Re-derive at full double precision (generate() narrows to float).
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<double>(f32[i]) +
             1e-9 * data::hash_noise(seed, i, 0, 0);
  }
  return out;
}

bool within64(std::span<const double> a, std::span<const double> b,
              double bound) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::fabs(a[i] - b[i]) > bound * (1 + 1e-12)) return false;
  }
  return true;
}

TEST(Quantizer64, MatchesFloatPathOnCoarseData) {
  const sz::LinearQuantizer q(0.5, 16);
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> vals(-100.0, 100.0);
  for (int i = 0; i < 5000; ++i) {
    const double pred = vals(rng);
    const double orig = vals(rng);
    const auto a = q.quantize(pred, orig);
    const auto b = q.quantize<double>(pred, orig);
    EXPECT_EQ(a.code, b.code);
    if (a.code != 0) {
      EXPECT_NEAR(static_cast<double>(a.reconstructed), b.reconstructed,
                  1e-5);
      EXPECT_EQ(q.reconstruct<double>(pred, b.code), b.reconstructed);
    }
  }
}

TEST(Quantizer64, BoundsBelowFloatPrecisionHold) {
  // eb = 1e-12 around values ~1e3: float32 has only ~6e-5 resolution there.
  const double eb = 1e-12;
  const sz::LinearQuantizer q(eb, 16);
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> vals(1000.0, 1001.0);
  std::uniform_real_distribution<double> diffs(-1e-9, 1e-9);
  int quantized = 0;
  for (int i = 0; i < 5000; ++i) {
    const double pred = vals(rng);
    const double orig = pred + diffs(rng);
    const auto r = q.quantize<double>(pred, orig);
    if (r.code != 0) {
      ++quantized;
      EXPECT_LE(std::fabs(r.reconstructed - orig), eb);
    }
  }
  EXPECT_GT(quantized, 4000);
}

class Truncation64Bound : public ::testing::TestWithParam<double> {};

TEST_P(Truncation64Bound, RoundTripWithinBound) {
  const double bound = GetParam();
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> vals(-bound * 1e6, bound * 1e6);
  std::vector<double> values;
  for (int i = 0; i < 2000; ++i) values.push_back(vals(rng));
  values.push_back(0.0);
  values.push_back(bound / 2);
  values.push_back(-1e-300);  // deep subnormal-adjacent

  const auto blob = sz::truncation_encode<double>(values, bound);
  const auto decoded = sz::truncation_decode<double>(blob, values.size(), bound);
  ASSERT_EQ(decoded.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_LE(std::fabs(values[i] - decoded[i]), bound) << values[i];
    EXPECT_EQ(sz::truncation_roundtrip(values[i], bound), decoded[i]);
  }
  // Fewer bits than raw float64 whenever the bound carries real slack.
  EXPECT_LT(blob.size(), values.size() * sizeof(double));
}

INSTANTIATE_TEST_SUITE_P(Bounds, Truncation64Bound,
                         ::testing::Values(1e-3, 1e-9, 1e-15, 1.0));

TEST(Truncation64, LongMantissaKeepsExactPrefix) {
  // k > 32 exercises the split-word bit packing.
  const double v = 1.0 + std::ldexp(1.0, -45);
  const double bound = std::ldexp(1.0, -50);
  const double rt = sz::truncation_roundtrip(v, bound);
  EXPECT_LE(std::fabs(v - rt), bound);
  const auto blob = sz::truncation_encode<double>(std::vector<double>{v}, bound);
  EXPECT_EQ(sz::truncation_decode<double>(blob, 1, bound)[0], rt);
}

class F64RoundTrip
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(F64RoundTrip, SzAndWaveHonourTightBounds) {
  const auto [rank, eb] = GetParam();
  const Dims dims = rank == 2 ? Dims::d2(48, 64) : Dims::d3(10, 20, 18);
  const auto field = field64(dims, static_cast<std::uint64_t>(rank));
  sz::Config cfg;
  cfg.error_bound = eb;
  cfg.mode = sz::EbMode::Absolute;

  const auto c_sz = sz::compress(std::span<const double>(field), dims, cfg);
  EXPECT_EQ(c_sz.header.dtype, 1);
  Dims out_dims;
  const auto d_sz = sz::decompress64(c_sz.bytes, {}, &out_dims);
  EXPECT_EQ(out_dims, dims);
  EXPECT_TRUE(within64(field, d_sz, eb));

  auto wcfg = wave::default_config();
  wcfg.error_bound = eb;
  wcfg.mode = sz::EbMode::Absolute;
  const auto c_wave =
      wave::compress(std::span<const double>(field), dims, wcfg);
  const auto d_wave = wave::decompress64(c_wave.bytes);
  EXPECT_TRUE(within64(field, d_wave, c_wave.header.eb_absolute));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, F64RoundTrip,
    ::testing::Combine(::testing::Values(2, 3),
                       ::testing::Values(1e-3, 1e-8, 1e-12)));

TEST(F64, True3dModeWorks) {
  const Dims dims = Dims::d3(8, 16, 16);
  const auto field = field64(dims, 5);
  auto cfg = wave::default_config();
  cfg.error_bound = 1e-9;
  cfg.mode = sz::EbMode::Absolute;
  const auto c = wave::compress(std::span<const double>(field), dims, cfg,
                                wave::LayoutMode::True3D);
  const auto d = wave::decompress64(c.bytes);
  EXPECT_TRUE(within64(field, d, c.header.eb_absolute));
}

TEST(F64, DtypeMismatchIsRejectedBothWays) {
  const Dims dims = Dims::d2(16, 16);
  const auto f64 = field64(dims, 7);
  std::vector<float> f32(f64.begin(), f64.end());
  sz::Config cfg;
  const auto c64 = sz::compress(std::span<const double>(f64), dims, cfg);
  const auto c32 = sz::compress(std::span<const float>(f32), dims, cfg);
  EXPECT_THROW(sz::decompress(c64.bytes), Error);
  EXPECT_THROW(sz::decompress64(c32.bytes), Error);
  const auto w64 =
      wave::compress(std::span<const double>(f64), dims,
                     wave::default_config());
  EXPECT_THROW(wave::decompress(w64.bytes), Error);
}

TEST(F64, DoublePrecisionBeatsFloatWhereFloatCannotFollow) {
  // At eb = 1e-10 on O(1e3) values, the float32 pipeline cannot even
  // represent the reconstruction targets; the double path must stay
  // bounded while a float round trip of the same data must not.
  const Dims dims = Dims::d2(32, 32);
  const auto field = field64(dims, 9);
  std::vector<double> shifted(field.size());
  for (std::size_t i = 0; i < field.size(); ++i) {
    shifted[i] = field[i] + 1000.0;
  }
  sz::Config cfg;
  cfg.error_bound = 1e-10;
  cfg.mode = sz::EbMode::Absolute;
  const auto c = sz::compress(std::span<const double>(shifted), dims, cfg);
  const auto d = sz::decompress64(c.bytes);
  EXPECT_TRUE(within64(shifted, d, 1e-10));
  // Narrowing the input to float already destroys the bound.
  bool float_violates = false;
  for (std::size_t i = 0; i < shifted.size(); ++i) {
    if (std::fabs(static_cast<double>(static_cast<float>(shifted[i])) -
                  shifted[i]) > 1e-10) {
      float_violates = true;
      break;
    }
  }
  EXPECT_TRUE(float_violates);
}

}  // namespace
}  // namespace wavesz
