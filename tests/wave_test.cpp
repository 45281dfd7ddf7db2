// Tests for the waveSZ core: wavefront layout bijectivity and index math,
// kernel equivalence against a raster-order reference and a per-point
// oracle (at every runtime SIMD level), base-2 bound tightening, full round
// trips in both layout modes, rejection of forged border codes, and pinned
// decoded values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "core/wavefront.hpp"
#include "core/wavesz.hpp"
#include "data/datasets.hpp"
#include "deflate/deflate.hpp"
#include "golden_pin.hpp"
#include "metrics/stats.hpp"
#include "sz/container.hpp"
#include "sz/predictor.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/float_bits.hpp"
#include "util/simd.hpp"
#include "wave_vectors.hpp"

namespace wavesz::wave {
namespace {

// --------------------------------------------------------------- layout

TEST(Wavefront, PaperFigure5SmallGrid) {
  // 6 x 10 grid from Figs. 3/5: column h collects all (x, y) with x+y == h.
  const WavefrontLayout layout(6, 10);
  EXPECT_EQ(layout.column_count(), 15u);
  EXPECT_EQ(layout.column_length(0), 1u);
  EXPECT_EQ(layout.column_length(5), 6u);   // full anti-diagonal
  EXPECT_EQ(layout.column_length(9), 6u);   // last body column
  EXPECT_EQ(layout.column_length(14), 1u);  // tail tip
  // Column 3 holds (0,3), (1,2), (2,1), (3,0) in row order.
  EXPECT_EQ(layout.offset(0, 3), layout.column_start(3));
  EXPECT_EQ(layout.offset(3, 0), layout.column_start(3) + 3);
}

TEST(Wavefront, OffsetAndPointAtAreInverse) {
  const WavefrontLayout layout(7, 13);
  for (std::size_t x = 0; x < 7; ++x) {
    for (std::size_t y = 0; y < 13; ++y) {
      const auto off = layout.offset(x, y);
      const auto [px, py] = layout.point_at(off);
      EXPECT_EQ(px, x);
      EXPECT_EQ(py, y);
    }
  }
}

TEST(Wavefront, ColumnsPartitionTheGrid) {
  const WavefrontLayout layout(9, 4);  // also exercise d0 > d1
  std::size_t total = 0;
  for (std::size_t h = 0; h < layout.column_count(); ++h) {
    total += layout.column_length(h);
    EXPECT_EQ(layout.column_start(h) + layout.column_length(h),
              h + 1 < layout.column_count() ? layout.column_start(h + 1)
                                            : layout.count());
  }
  EXPECT_EQ(total, 36u);
}

class WavefrontShapes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(WavefrontShapes, TransformIsABijection) {
  const auto [d0, d1] = GetParam();
  const WavefrontLayout layout(d0, d1);
  std::vector<float> raster(d0 * d1);
  std::iota(raster.begin(), raster.end(), 0.0f);
  const auto wf = to_wavefront(raster, layout);
  EXPECT_EQ(from_wavefront(wf, layout), raster);
  // Every value appears exactly once.
  auto sorted = wf;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, raster);
}

TEST_P(WavefrontShapes, PermuteMatchesOffset) {
  // Each direction against offset() on its own: a tile loop shared by both
  // permutes could misplace points the same way twice and still round-trip.
  const auto [d0, d1] = GetParam();
  const WavefrontLayout layout(d0, d1);
  std::vector<float> values(d0 * d1);
  std::iota(values.begin(), values.end(), 0.0f);
  const auto wf = to_wavefront(values, layout);
  const auto raster = from_wavefront(values, layout);
  for (std::size_t x = 0; x < d0; ++x) {
    for (std::size_t y = 0; y < d1; ++y) {
      const std::size_t off = layout.offset(x, y);
      ASSERT_EQ(wf[off], values[x * d1 + y]) << "(" << x << "," << y << ")";
      ASSERT_EQ(raster[x * d1 + y], values[off])
          << "(" << x << "," << y << ")";
    }
  }
}

TEST_P(WavefrontShapes, ColumnsHoldEqualManhattanDistance) {
  const auto [d0, d1] = GetParam();
  const WavefrontLayout layout(d0, d1);
  for (std::size_t h = 0; h < layout.column_count(); ++h) {
    for (std::size_t k = 0; k < layout.column_length(h); ++k) {
      const auto [x, y] = layout.point_at(layout.column_start(h) + k);
      EXPECT_EQ(x + y, h);  // same L1 distance from the pivot (Fig. 5b)
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WavefrontShapes,
    ::testing::Values(std::make_pair<std::size_t, std::size_t>(1, 1),
                      std::make_pair<std::size_t, std::size_t>(1, 9),
                      std::make_pair<std::size_t, std::size_t>(9, 1),
                      std::make_pair<std::size_t, std::size_t>(2, 2),
                      std::make_pair<std::size_t, std::size_t>(6, 10),
                      std::make_pair<std::size_t, std::size_t>(10, 6),
                      std::make_pair<std::size_t, std::size_t>(31, 57),
                      std::make_pair<std::size_t, std::size_t>(128, 128),
                      // Partial 32 x 32 un-permute tiles in either direction.
                      std::make_pair<std::size_t, std::size_t>(33, 65),
                      std::make_pair<std::size_t, std::size_t>(65, 33),
                      std::make_pair<std::size_t, std::size_t>(7, 100),
                      std::make_pair<std::size_t, std::size_t>(100, 7),
                      // Whole tiles only.
                      std::make_pair<std::size_t, std::size_t>(64, 96),
                      std::make_pair<std::size_t, std::size_t>(1, 1000),
                      std::make_pair<std::size_t, std::size_t>(1000, 1)));

// ---------------------------------------------------------------- kernel

/// Reference implementation: raster-order Lorenzo PQD with the same
/// verbatim-border policy. waveSZ must produce the identical code multiset
/// (wavefront order is a permutation of raster order that respects deps).
struct ReferencePqd {
  std::vector<std::uint16_t> codes_raster;
  std::vector<float> reconstructed;
};

ReferencePqd raster_reference(std::span<const float> data, std::size_t d0,
                              std::size_t d1, const sz::LinearQuantizer& q) {
  ReferencePqd out;
  out.codes_raster.resize(data.size());
  out.reconstructed.assign(data.begin(), data.end());
  for (std::size_t x = 0; x < d0; ++x) {
    for (std::size_t y = 0; y < d1; ++y) {
      const std::size_t i = x * d1 + y;
      if (x == 0 || y == 0) {
        out.codes_raster[i] = 0;  // verbatim border, value stays exact
        continue;
      }
      const double pred = sz::lorenzo2d(out.reconstructed[i - d1 - 1],
                                        out.reconstructed[i - d1],
                                        out.reconstructed[i - 1]);
      const auto r = q.quantize(pred, data[i]);
      out.codes_raster[i] = r.code;
      if (r.code != 0) out.reconstructed[i] = r.reconstructed;
    }
  }
  return out;
}

TEST(WaveKernel, MatchesRasterReferenceExactly) {
  const Dims dims = Dims::d2(40, 56);
  const auto field =
      data::field(data::Persona::CesmAtm, "FSNS", 50).materialize();
  std::vector<float> grid(field.begin(), field.begin() + dims.count());
  const sz::LinearQuantizer q(0.05, 16);
  const WavefrontLayout layout(dims[0], dims[1]);

  auto wf = to_wavefront(grid, layout);
  const auto kr = wave_pqd_2d(wf, layout, q);

  const auto ref = raster_reference(grid, dims[0], dims[1], q);
  // Codes: the kernel emits in wavefront order; map back per point.
  std::size_t i = 0;
  for (std::size_t h = 0; h < layout.column_count(); ++h) {
    for (std::size_t k = 0; k < layout.column_length(h); ++k, ++i) {
      const auto [x, y] = layout.point_at(layout.column_start(h) + k);
      EXPECT_EQ(kr.codes[i], ref.codes_raster[x * dims[1] + y])
          << "at (" << x << "," << y << ")";
    }
  }
  // In-place writeback must equal the reference reconstruction.
  EXPECT_EQ(from_wavefront(wf, layout), ref.reconstructed);
}

/// A field with sparse spikes, so interior points go unpredictable (code 0)
/// next to predicted ones and both kinds meet the decoder's column walk.
std::vector<float> spiky_grid(const Dims& dims, std::uint64_t seed) {
  data::FieldRecipe recipe;
  recipe.seed = seed;
  auto grid = data::generate(recipe, dims);
  for (std::size_t i = 7; i < grid.size(); i += 97) grid[i] += 1.0e5f;
  return grid;
}

sz::Config absolute_config(double eb) {
  auto cfg = default_config();
  cfg.mode = sz::EbMode::Absolute;
  cfg.error_bound = eb;
  return cfg;
}

/// The in-place writeback (Listing 1) of `grid` at `q`: exactly the values
/// the decoder must rebuild, in wavefront order. It comes from the
/// per-point oracle, not from the encoder, because the encoder and decoder
/// share one column helper and a geometry error there would cancel out.
template <typename T>
std::vector<T> writeback(const std::vector<T>& grid,
                         const WavefrontLayout& layout,
                         const sz::LinearQuantizer& q) {
  auto wf = to_wavefront(std::span<const T>(grid), layout);
  (void)vectors::point_oracle_2d(std::span<T>(wf), layout, q);
  return wf;
}

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// wave_pqd_2d / wave_pqd_2d_64 against the per-point oracle on one grid:
/// codes, verbatim values and writeback byte for byte, NaN payloads too.
template <typename T>
void expect_kernel_matches_oracle(const std::vector<T>& grid,
                                  const WavefrontLayout& layout,
                                  const sz::LinearQuantizer& q,
                                  const std::string& what) {
  auto oracle_wf = to_wavefront(std::span<const T>(grid), layout);
  const auto oracle =
      vectors::point_oracle_2d(std::span<T>(oracle_wf), layout, q);
  auto wf = to_wavefront(std::span<const T>(grid), layout);
  const auto kr = [&] {
    if constexpr (std::is_same_v<T, float>) {
      return wave_pqd_2d(wf, layout, q);
    } else {
      return wave_pqd_2d_64(wf, layout, q);
    }
  }();
  EXPECT_TRUE(same_bytes(kr.codes, oracle.codes)) << what << ": codes";
  EXPECT_TRUE(same_bytes(kr.verbatim, oracle.verbatim))
      << what << ": verbatim";
  EXPECT_TRUE(same_bytes(wf, oracle_wf)) << what << ": writeback";
}

TEST(WaveKernel, ColumnWalkMatchesPointOracle) {
  // Short columns (2 x 50, 16 x 300 as in a stream chunk), long ones
  // (50 x 2, 100 x 7) and single rows and columns, all with spikes; one
  // NaN and one +Inf ride through the verbatim path under a fixed bound.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1},   {1, 40},   {40, 1},  {2, 2},   {2, 50},  {50, 2},
      {31, 57}, {33, 65},  {65, 33}, {7, 100}, {100, 7}, {16, 300}};
  const sz::LinearQuantizer q(0.01, 16);
  for (const auto& [d0, d1] : shapes) {
    const WavefrontLayout layout(d0, d1);
    auto grid = spiky_grid(Dims::d2(d0, d1), 9 + d0 * 37 + d1);
    grid[grid.size() / 2] = std::numeric_limits<float>::quiet_NaN();
    grid[grid.size() / 3] = std::numeric_limits<float>::infinity();
    const std::string shape = std::to_string(d0) + "x" + std::to_string(d1);
    expect_kernel_matches_oracle(grid, layout, q, "f32 " + shape);
    expect_kernel_matches_oracle(
        std::vector<double>(grid.begin(), grid.end()), layout, q,
        "f64 " + shape);
  }
}

using golden::value_bytes;

/// A v1 G* True3D container against the per-point oracle run plane by
/// plane: plane 0 through the 2D kernel, the rest through the 3D slice
/// kernel. Compares the plain code and verbatim sections byte for byte.
template <typename T>
void expect_true3d_matches_oracle(const Dims& dims,
                                  const std::vector<T>& field) {
  auto cfg = absolute_config(0.01);
  cfg.chunk_index = false;
  const auto c = wave::compress(std::span<const T>(field), dims, cfg,
                                LayoutMode::True3D);
  ByteReader r(c.bytes);
  (void)sz::read_header(r);
  const auto code_plain = deflate::gzip_decompress(sz::read_section(r));
  const auto verbatim_plain = deflate::gzip_decompress(sz::read_section(r));

  const sz::LinearQuantizer q(c.header.eb_absolute, c.header.quant_bits);
  const WavefrontLayout layout(dims[1], dims[2]);
  const std::size_t plane = layout.count();
  vectors::OraclePqd<T> oracle;
  std::vector<T> prev;
  for (std::size_t z = 0; z < dims[0]; ++z) {
    auto cur = to_wavefront(
        std::span<const T>(field).subspan(z * plane, plane), layout);
    if (z == 0) {
      oracle = vectors::point_oracle_2d(std::span<T>(cur), layout, q);
    } else {
      vectors::point_oracle_slice3d(std::span<T>(cur),
                                    std::span<const T>(prev), layout, q,
                                    oracle);
    }
    prev = std::move(cur);
  }
  ByteWriter cw;
  cw.u16s(oracle.codes);
  const std::string what = std::to_string(dims[0]) + "x" +
                           std::to_string(dims[1]) + "x" +
                           std::to_string(dims[2]) +
                           (sizeof(T) == 4 ? " f32" : " f64");
  EXPECT_TRUE(cw.take() == code_plain) << what << ": codes";
  EXPECT_TRUE(value_bytes(oracle.verbatim) == verbatim_plain)
      << what << ": verbatim";
}

TEST(WaveKernel, True3DContainerMatchesPointOracle) {
  const Dims shapes[] = {Dims::d3(3, 1, 1), Dims::d3(4, 1, 30),
                         Dims::d3(4, 30, 1), Dims::d3(3, 2, 2),
                         Dims::d3(5, 16, 40), Dims::d3(3, 33, 17)};
  for (const Dims& dims : shapes) {
    data::FieldRecipe recipe;
    recipe.seed = 5 + dims[1] * 7 + dims[2];
    auto field = data::generate(recipe, dims);
    for (std::size_t i = 3; i < field.size(); i += 41) field[i] += 1.0e5f;
    field[field.size() / 2] = std::numeric_limits<float>::quiet_NaN();
    field[field.size() / 3] = std::numeric_limits<float>::infinity();
    expect_true3d_matches_oracle(dims, field);
    expect_true3d_matches_oracle(
        dims, std::vector<double>(field.begin(), field.end()));
  }
}

/// wave::decompress / decompress64 of a G* container against the writeback.
template <typename T>
void expect_decode_matches_writeback(const Dims& dims,
                                     const std::vector<T>& grid) {
  const auto c = wave::compress(std::span<const T>(grid), dims,
                                absolute_config(0.01));
  const sz::LinearQuantizer q(c.header.eb_absolute, c.header.quant_bits);
  const WavefrontLayout layout(dims[0], dims[1]);
  std::vector<T> decoded;
  if constexpr (std::is_same_v<T, float>) {
    decoded = decompress(c.bytes);
  } else {
    decoded = decompress64(c.bytes);
  }
  EXPECT_TRUE(same_bytes(to_wavefront(std::span<const T>(decoded), layout),
                         writeback(grid, layout, q)))
      << dims[0] << "x" << dims[1];
}

TEST(WaveKernel, ReconstructInvertsKernel) {
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {2, 2},   {2, 50},  {50, 2}, {1, 40},  {40, 1},
      {33, 65}, {65, 33}, {7, 100}, {100, 7}, {31, 57}};
  for (const auto& [d0, d1] : shapes) {
    const Dims dims = Dims::d2(d0, d1);
    const auto grid = spiky_grid(dims, 4 + d0 * 131 + d1);
    // The kernel pair itself, float32.
    const sz::LinearQuantizer q(0.01, 16);
    const WavefrontLayout layout(d0, d1);
    auto wf = to_wavefront(grid, layout);
    const auto original_wf = to_wavefront(grid, layout);
    const auto kr = wave_pqd_2d(wf, layout, q);
    std::size_t next = 0;
    const auto rec = wave_reconstruct_2d(kr.codes, kr.verbatim, &next,
                                         layout, q);
    EXPECT_EQ(next, kr.verbatim.size());
    EXPECT_EQ(rec, std::vector<float>(wf.begin(), wf.end()))
        << d0 << "x" << d1;
    // And every reconstructed value respects the bound vs the original.
    EXPECT_TRUE(metrics::within_bound(original_wf, rec, 0.01));
    // Full container decodes in both widths.
    expect_decode_matches_writeback(dims, grid);
    expect_decode_matches_writeback(
        dims, std::vector<double>(grid.begin(), grid.end()));
  }
}

/// decompress_region on a v2 container rebuilds the column prefix
/// [0, h_end) with h_end = hi0 + hi1 - 1. The rectangles [0, a) x [0, b)
/// with a + b - 1 == h_end together cover that whole prefix, so checking
/// each against the writeback checks the first column_start(h_end) values.
template <typename T>
void expect_every_prefix_matches_writeback(const std::vector<T>& grid,
                                           std::size_t d0, std::size_t d1) {
  auto cfg = absolute_config(0.01);
  cfg.index_chunk_symbols = 16;
  const auto c = wave::compress(std::span<const T>(grid), Dims::d2(d0, d1),
                                cfg);
  const sz::LinearQuantizer q(c.header.eb_absolute, c.header.quant_bits);
  const WavefrontLayout layout(d0, d1);
  const auto wf = writeback(grid, layout, q);
  for (std::size_t h_end = 1; h_end <= layout.column_count(); ++h_end) {
    std::vector<bool> seen(layout.count(), false);
    for (std::size_t a = 1; a <= std::min(d0, h_end); ++a) {
      const std::size_t b = h_end + 1 - a;
      if (b > d1) continue;
      const sz::Region rg{{0, 0, 0}, {a, b, 1}};
      std::vector<T> got;
      if constexpr (std::is_same_v<T, float>) {
        got = wave::decompress_region(c.bytes, rg).data;
      } else {
        got = wave::decompress_region64(c.bytes, rg).data;
      }
      ASSERT_EQ(got.size(), a * b);
      for (std::size_t x = 0; x < a; ++x) {
        for (std::size_t y = 0; y < b; ++y) {
          const std::size_t off = layout.offset(x, y);
          EXPECT_TRUE(got[x * b + y] == wf[off])
              << "h_end " << h_end << " at (" << x << "," << y << ")";
          seen[off] = true;
        }
      }
    }
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(seen.begin(), seen.end(), true)),
              layout.column_start(h_end));
  }
}

TEST(WaveKernel, EveryColumnPrefixMatchesWriteback) {
  const auto grid = spiky_grid(Dims::d2(9, 13), 71);
  expect_every_prefix_matches_writeback(grid, 9, 13);
  expect_every_prefix_matches_writeback(
      std::vector<double>(grid.begin(), grid.end()), 9, 13);
}

/// Sets the process SIMD level for a scope (clamped to the host's).
struct LevelOverride {
  simd::Level saved = simd::active();
  explicit LevelOverride(simd::Level l) { simd::set_level(l); }
  ~LevelOverride() { simd::set_level(saved); }
};

TEST(WaveKernel, EveryLevelMatchesPointOracle) {
  // The 2D walks run the AVX2 run kernels at Level::Avx2 and the scalar
  // body below it; both must give the per-point oracle's codes, verbatim
  // values and writeback, and decode to it. Columns of 2, 3 and 16 rows
  // (a stream chunk), a tall grid, and long columns whose runs hold many
  // whole blocks with spikes, a NaN and an Inf inside them.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {2, 300}, {3, 200}, {16, 300}, {400, 9}, {300, 290}};
  const sz::LinearQuantizer q(0.01, 16);
  for (const simd::Level level :
       {simd::Level::Scalar, simd::Level::Sse2, simd::Level::Avx2}) {
    if (level > simd::detected()) continue;
    const LevelOverride guard(level);
    const std::string at = std::string(simd::level_name(level)) + " ";
    for (const auto& [d0, d1] : shapes) {
      const Dims dims = Dims::d2(d0, d1);
      const WavefrontLayout layout(d0, d1);
      auto grid = spiky_grid(dims, 3 + d0 * 17 + d1);
      grid[grid.size() / 2] = std::numeric_limits<float>::quiet_NaN();
      grid[grid.size() / 3] = std::numeric_limits<float>::infinity();
      const std::vector<double> grid64(grid.begin(), grid.end());
      const std::string shape = std::to_string(d0) + "x" + std::to_string(d1);
      expect_kernel_matches_oracle(grid, layout, q, at + "f32 " + shape);
      expect_kernel_matches_oracle(grid64, layout, q, at + "f64 " + shape);
      expect_decode_matches_writeback(dims, grid);
      expect_decode_matches_writeback(dims, grid64);
    }
    // Region reads rebuild column prefixes, which stop runs mid-grid.
    const auto grid = spiky_grid(Dims::d2(16, 24), 29);
    expect_every_prefix_matches_writeback(grid, 16, 24);
    expect_every_prefix_matches_writeback(
        std::vector<double>(grid.begin(), grid.end()), 16, 24);
  }
}

TEST(WaveKernel, BorderCountMatchesGeometry) {
  const Dims dims = Dims::d2(20, 30);
  const std::vector<float> grid(dims.count(), 1.0f);
  const sz::LinearQuantizer q(0.5, 16);
  const WavefrontLayout layout(dims[0], dims[1]);
  auto wf = to_wavefront(grid, layout);
  const auto kr = wave_pqd_2d(wf, layout, q);
  // First row + first column share the pivot: d0 + d1 - 1 border points,
  // and on a constant field nothing else is unpredictable.
  EXPECT_EQ(kr.verbatim.size(), 20u + 30u - 1u);
}

// ------------------------------------------------------------ compressor

class WaveRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, double, LayoutMode>> {};

TEST_P(WaveRoundTrip, BoundHolds) {
  const auto [rank, eb, mode] = GetParam();
  if (mode == LayoutMode::True3D && rank != 3) GTEST_SKIP();
  const Dims dims = rank == 2 ? Dims::d2(48, 64) : Dims::d3(10, 24, 18);
  data::FieldRecipe recipe;
  recipe.seed = static_cast<std::uint64_t>(rank) * 31 + 7;
  const auto field = data::generate(recipe, dims);
  auto cfg = default_config();
  cfg.error_bound = eb;
  const auto c = wave::compress(field, dims, cfg, mode);
  Dims out_dims;
  const auto decoded = decompress(c.bytes, {}, &out_dims);
  EXPECT_EQ(out_dims, dims);
  EXPECT_TRUE(metrics::within_bound(field, decoded, c.header.eb_absolute))
      << "violation at "
      << metrics::first_violation(field, decoded, c.header.eb_absolute);
  // Base-2 default: the absolute bound is a power of two no larger than the
  // requested relative bound (paper §3.3).
  EXPECT_TRUE(is_pow2(c.header.eb_absolute));
  EXPECT_LE(c.header.eb_absolute,
            eb * metrics::value_range(field).span());
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, WaveRoundTrip,
    ::testing::Combine(::testing::Values(2, 3),
                       ::testing::Values(1e-2, 1e-3, 1e-4),
                       ::testing::Values(LayoutMode::Flatten2D,
                                         LayoutMode::True3D)));

TEST(WaveCompressor, HuffmanModeShrinksContainer) {
  const Dims dims = Dims::d2(96, 96);
  data::FieldRecipe recipe;
  recipe.seed = 12;
  const auto field = data::generate(recipe, dims);
  auto gstar = default_config();
  auto hstar = default_config();
  hstar.huffman = true;
  const auto g = wave::compress(field, dims, gstar);
  const auto h = wave::compress(field, dims, hstar);
  EXPECT_LT(h.bytes.size(), g.bytes.size());  // Table 7: H*G* beats G*
  EXPECT_EQ(decompress(g.bytes), decompress(h.bytes));
}

TEST(WaveCompressor, True3dBeatsFlattenOnVolumetricData) {
  // The 3D Lorenzo stencil exploits inter-slice correlation that the
  // artifact's flattened view throws away.
  const Dims dims = Dims::d3(16, 32, 32);
  data::FieldRecipe recipe;
  recipe.seed = 19;
  recipe.base_frequency = 2.0;
  const auto field = data::generate(recipe, dims);
  auto cfg = default_config();
  cfg.huffman = true;
  const auto flat = wave::compress(field, dims, cfg, LayoutMode::Flatten2D);
  const auto vol = wave::compress(field, dims, cfg, LayoutMode::True3D);
  EXPECT_LT(vol.bytes.size(), flat.bytes.size());
}

TEST(WaveCompressor, RejectsRankOne) {
  const std::vector<float> field(100, 1.0f);
  EXPECT_THROW(wave::compress(field, Dims::d1(100), default_config()), Error);
}

TEST(WaveCompressor, True3dRequiresRankThree) {
  const std::vector<float> field(64, 1.0f);
  EXPECT_THROW(
      wave::compress(field, Dims::d2(8, 8), default_config(), LayoutMode::True3D),
      Error);
}

TEST(WaveCompressor, CorruptContainerFailsLoudly) {
  const Dims dims = Dims::d2(24, 24);
  const std::vector<float> field(dims.count(), 2.0f);
  const auto c = wave::compress(field, dims, default_config());
  auto bad = c.bytes;
  bad[bad.size() - 3] ^= 0x40;
  EXPECT_THROW(decompress(bad), Error);
  std::vector<std::uint8_t> cut(c.bytes.begin(), c.bytes.begin() + 30);
  EXPECT_THROW(decompress(cut), Error);
}

TEST(WaveCompressor, FlattensHurricaneShapeLikeArtifact) {
  // 3D (4, 10, 25) must be processed as a 4 x 250 wavefront: the verbatim
  // border is d0' + d1' - 1 = 4 + 250 - 1 on a constant field.
  const Dims dims = Dims::d3(4, 10, 25);
  const std::vector<float> field(dims.count(), 1.0f);
  const auto c = wave::compress(field, dims, default_config());
  EXPECT_EQ(c.header.unpredictable_count, 4u + 250u - 1u);
}

// ------------------------------------------------------- hostile input

/// Calls `decode` and expects the decoder's own error `message`.
template <typename F>
void expect_decode_error(F decode, const std::string& message,
                         const std::string& what) {
  try {
    decode();
    ADD_FAILURE() << what << ": forged container decoded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
        << what << ": " << e.what();
  }
}

template <typename F>
void expect_border_error(F decode, const std::string& what) {
  expect_decode_error(decode, "border point carries a quantization code",
                      what);
}

template <typename T>
void expect_forged_borders_rejected(LayoutMode mode) {
  // Flatten2D views (12, 4, 5) as 12 x 20; True3D forges plane 2, which
  // runs the 3D slice kernel, of the same 12 x 20 view.
  const Dims dims = mode == LayoutMode::Flatten2D ? Dims::d3(12, 4, 5)
                                                  : Dims::d3(4, 12, 20);
  const std::size_t plane = mode == LayoutMode::Flatten2D ? 0 : 2;
  data::FieldRecipe recipe;
  recipe.seed = 83;
  const auto narrow = data::generate(recipe, dims);
  const std::vector<T> field(narrow.begin(), narrow.end());
  auto cfg = default_config();
  cfg.chunk_index = false;
  cfg.huffman = false;
  const auto c = wave::compress(std::span<const T>(field), dims, cfg, mode);
  const std::pair<std::size_t, std::size_t> points[] = {
      {0, 0}, {0, 7}, {0, 19}, {5, 0}, {11, 0}};
  for (const auto& [x, y] : points) {
    const auto forged = vectors::with_border_code(c.bytes, plane, x, y);
    const std::string what = std::string(sizeof(T) == 4 ? "f32" : "f64") +
                             (mode == LayoutMode::Flatten2D ? " Flatten2D"
                                                            : " True3D") +
                             " (" + std::to_string(x) + "," +
                             std::to_string(y) + ")";
    if constexpr (std::is_same_v<T, float>) {
      expect_border_error([&] { (void)decompress(forged); }, what);
      expect_border_error(
          [&] { (void)wave::decompress_region(forged, sz::Region{}); }, what);
    } else {
      expect_border_error([&] { (void)decompress64(forged); }, what);
      expect_border_error(
          [&] { (void)wave::decompress_region64(forged, sz::Region{}); }, what);
    }
  }
}

TEST(ForgedBorder, NonzeroBorderCodeThrows) {
  expect_forged_borders_rejected<float>(LayoutMode::Flatten2D);
  expect_forged_borders_rejected<float>(LayoutMode::True3D);
  expect_forged_borders_rejected<double>(LayoutMode::Flatten2D);
  expect_forged_borders_rejected<double>(LayoutMode::True3D);
}

/// `container`, a v1 waveSZ container, with its verbatim stream one value
/// short (delta -1) or one value long (delta +1) and `unpredictable_count`
/// to match: every section parses, and only the decode walk's count checks
/// can notice.
std::vector<std::uint8_t> with_verbatim_delta(
    std::span<const std::uint8_t> container, int delta) {
  ByteReader r(container);
  sz::ContainerHeader h = sz::read_header(r);
  const auto code_blob = sz::read_section(r);
  auto verbatim_plain = deflate::gzip_decompress(sz::read_section(r));
  const std::size_t width = h.dtype == 0 ? sizeof(float) : sizeof(double);
  verbatim_plain.resize(delta < 0 ? verbatim_plain.size() - width
                                  : verbatim_plain.size() + width);
  h.unpredictable_count = delta < 0 ? h.unpredictable_count - 1
                                    : h.unpredictable_count + 1;
  ByteWriter w;
  sz::write_header(w, h);
  sz::write_section(w, code_blob);
  sz::write_section(w, deflate::gzip_compress(verbatim_plain, h.gzip_level));
  return w.take();
}

template <typename T>
void expect_verbatim_counts_checked(LayoutMode mode) {
  const Dims dims = mode == LayoutMode::Flatten2D ? Dims::d3(12, 4, 5)
                                                  : Dims::d3(4, 12, 20);
  const auto narrow = spiky_grid(dims, 89);
  const std::vector<T> field(narrow.begin(), narrow.end());
  auto cfg = absolute_config(0.01);
  cfg.chunk_index = false;
  const auto c = wave::compress(std::span<const T>(field), dims, cfg, mode);
  const std::string what = std::string(sizeof(T) == 4 ? "f32" : "f64") +
                           (mode == LayoutMode::Flatten2D ? " Flatten2D"
                                                          : " True3D");
  const auto decode = [](const std::vector<std::uint8_t>& bytes) {
    if constexpr (std::is_same_v<T, float>) {
      return decompress(bytes);
    } else {
      return decompress64(bytes);
    }
  };
  const auto short_stream = with_verbatim_delta(c.bytes, -1);
  const auto long_stream = with_verbatim_delta(c.bytes, +1);
  expect_decode_error([&] { (void)decode(short_stream); },
                      "verbatim stream exhausted", what + " short");
  expect_decode_error([&] { (void)decode(long_stream); },
                      "verbatim stream has trailing values", what + " long");
}

TEST(ForgedVerbatim, CountMismatchThrowsAtEveryLevel) {
  // The decode walk takes verbatim values inline at every level, the AVX2
  // run kernels stopping at each block that holds one.
  for (const simd::Level level :
       {simd::Level::Scalar, simd::Level::Sse2, simd::Level::Avx2}) {
    if (level > simd::detected()) continue;
    const LevelOverride guard(level);
    expect_verbatim_counts_checked<float>(LayoutMode::Flatten2D);
    expect_verbatim_counts_checked<float>(LayoutMode::True3D);
    expect_verbatim_counts_checked<double>(LayoutMode::Flatten2D);
    expect_verbatim_counts_checked<double>(LayoutMode::True3D);
  }
}

// ---------------------------------------------------------- golden bytes

TEST(GoldenBytes, WaveDecode) {
  // Size and CRC-32 of the decoded values' little-endian bytes: the decoder
  // must rebuild the same values bit for bit.
  data::FieldRecipe recipe;
  recipe.seed = 97;
  const Dims d2 = Dims::d2(40, 56);
  const Dims d3 = Dims::d3(6, 20, 24);
  const auto f2 = data::generate(recipe, d2);
  const auto f3 = data::generate(recipe, d3);
  const std::vector<double> w2(f2.begin(), f2.end());
  const std::vector<double> w3(f3.begin(), f3.end());
  auto hstar = default_config();
  hstar.huffman = true;
  const auto flat32 = wave::compress(f2, d2, default_config());
  const auto flat64 = wave::compress(w2, d2, default_config());
  const auto vol32 = wave::compress(f3, d3, hstar, LayoutMode::True3D);
  const auto vol64 = wave::compress(w3, d3, hstar, LayoutMode::True3D);
  golden::expect_pin(value_bytes(decompress(flat32.bytes)), {8960, 0x21f06089u},
                     "Flatten2D f32");
  golden::expect_pin(value_bytes(decompress64(flat64.bytes)), {17920, 0xc530a15fu},
                     "Flatten2D f64");
  golden::expect_pin(value_bytes(decompress(vol32.bytes)), {11520, 0xad2ad6a0u},
                     "True3D f32");
  golden::expect_pin(value_bytes(decompress64(vol64.bytes)), {23040, 0x19814b3fu},
                     "True3D f64");

  // A region of a v2 container with small chunks takes the prefix decode.
  auto indexed = default_config();
  indexed.index_chunk_symbols = 256;
  const auto v2 = wave::compress(f2, d2, indexed);
  const auto region =
      wave::decompress_region(v2.bytes, sz::Region{{8, 10, 0}, {30, 41, 1}});
  EXPECT_LT(region.compressed_bytes_read, v2.bytes.size());
  golden::expect_pin(value_bytes(region.data), {2728, 0x4d814860u}, "region");
}

}  // namespace
}  // namespace wavesz::wave
