// decompress_region() tests: every region decode must equal the same
// hyperslab sliced out of a full decompress(), for SZ-1.4 and waveSZ
// (Flatten2D and True3D), float32 and float64, across border-clipped
// slabs, single-chunk and all-chunk coverage, 3D slabs spanning
// non-contiguous chunks, and 1-element regions. The SZ-1.4 suites also run
// a rough field under a tight absolute bound, where most codes are 0, so a
// box read must pick the right unpredictable values out of its outer-slab
// prefix. Prefix decodes of a proper leading slab must also read strictly
// fewer compressed bytes than a full decode.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/wavesz.hpp"
#include "data/synthetic.hpp"
#include "sz/compressor.hpp"
#include "sz/wavefront_pqd.hpp"
#include "util/error.hpp"

namespace wavesz {
namespace {

std::vector<float> field(const Dims& dims, std::uint64_t seed = 23) {
  data::FieldRecipe r;
  r.seed = seed;
  return data::generate(r, dims);
}

/// White noise 100x the field's own scale: under rough_config()'s absolute
/// bound most points fall outside the quantizer's range and are coded 0.
std::vector<float> rough_field(const Dims& dims) {
  data::FieldRecipe r;
  r.seed = 29;
  r.noise_amplitude = 1.0;
  r.amplitude = 100.0;
  return data::generate(r, dims);
}

/// An absolute bound of 1e-3 over 64-symbol index chunks, so a box's rows
/// and the tails between them fall in different chunks.
sz::Config rough_config(sz::PredictorKind kind) {
  sz::Config cfg;
  cfg.mode = sz::EbMode::Absolute;
  cfg.error_bound = 1e-3;
  cfg.index_chunk_symbols = 64;
  cfg.predictor = kind;
  return cfg;
}

/// The SZ-1.4 compressors' inputs: the smooth field under the default
/// value-range bound, and rough_field() with 1- and 2-layer Lorenzo (2D
/// only).
struct Sz14Input {
  const char* name;
  std::vector<float> values;
  sz::Config cfg;

  bool rough() const { return cfg.mode == sz::EbMode::Absolute; }
};

/// Most of a rough input's points must be unpredictable, or the suites
/// below stop testing what they are for.
void expect_mostly_unpredictable(const Sz14Input& in,
                                 const sz::Compressed& c) {
  if (!in.rough()) return;
  EXPECT_GT(c.header.unpredictable_count * 2, c.header.point_count)
      << in.name;
}

std::vector<Sz14Input> sz14_inputs(const Dims& dims,
                                   std::uint32_t smooth_chunk_symbols) {
  std::vector<Sz14Input> out;
  out.push_back({"smooth", field(dims), sz::Config{}});
  out.back().cfg.index_chunk_symbols = smooth_chunk_symbols;
  out.push_back({"rough/1-layer", rough_field(dims),
                 rough_config(sz::PredictorKind::Lorenzo1Layer)});
  if (dims.rank <= 2) {
    out.push_back({"rough/2-layer", rough_field(dims),
                   rough_config(sz::PredictorKind::Lorenzo2Layer)});
  }
  return out;
}

/// Lifts the tiled reconstruct's work floor for a scope, so a budget-2
/// read of these small fields runs the wavefront kernel over its box.
struct FloorOverride {
  std::size_t saved = sz::wavefront_min_points_per_thread();
  FloorOverride() { sz::set_wavefront_min_points_per_thread(0); }
  ~FloorOverride() { sz::set_wavefront_min_points_per_thread(saved); }
};

template <typename T>
std::vector<T> slice(const std::vector<T>& full, const Dims& dims,
                     const sz::Region& rg) {
  std::array<std::size_t, 3> lo = rg.lo;
  std::array<std::size_t, 3> hi = rg.hi;
  for (std::size_t i = 0; i < 3; ++i) {
    const std::size_t ext =
        i < static_cast<std::size_t>(dims.rank) ? dims.extent[i] : 1;
    if (lo[i] == 0 && hi[i] == 0) hi[i] = ext;
  }
  const std::size_t s0 = dims.extent[1] * dims.extent[2];
  const std::size_t s1 = dims.extent[2];
  std::vector<T> out;
  for (std::size_t x = lo[0]; x < hi[0]; ++x) {
    for (std::size_t y = lo[1]; y < hi[1]; ++y) {
      for (std::size_t z = lo[2]; z < hi[2]; ++z) {
        out.push_back(full[x * s0 + y * s1 + z]);
      }
    }
  }
  return out;
}

/// The regions every 2D suite sweeps on a (d0, d1) field.
std::vector<sz::Region> regions_2d(std::size_t d0, std::size_t d1) {
  return {
      {{0, 0, 0}, {d0 / 2, d1 / 2, 0}},          // top-left quarter
      {{d0 / 2, d1 / 2, 0}, {d0, d1, 0}},        // bottom-right quarter
      {{0, d1 - 1, 0}, {d0, d1, 0}},             // last column strip
      {{d0 - 1, 0, 0}, {d0, d1, 0}},             // last row strip
      {{0, 0, 0}, {1, 1, 0}},                    // 1-element at origin
      {{d0 - 1, d1 - 1, 0}, {d0, d1, 0}},        // 1-element at far corner
      {{3, 5, 0}, {4, 6, 0}},                    // 1-element interior
      {{0, 0, 0}, {d0, d1, 0}},                  // whole field
      {{1, 1, 0}, {d0 - 1, d1 - 1, 0}},          // border-clipped interior
      {{0, 0, 0}, {2, d1, 0}},                   // leading slab (single rows)
      {{5, 7, 0}, {d0 / 2, d1 - 9, 0}},          // interior box
      {{d0 - 4, 2, 0}, {d0, d1 / 2, 0}},         // last rows, not last column
      {{d0 / 3, d1 - 3, 0}, {d0 / 2, d1, 0}},    // last columns, rows inside
      {{d0 - 1, 3, 0}, {d0, 4, 0}},              // 1-element on the last row
      {{4, d1 - 1, 0}, {5, d1, 0}},              // 1-element on last column
  };
}

TEST(RegionDecode, Sz14MatchesFullDecodeSlices) {
  const Dims dims = Dims::d2(64, 96);
  for (auto& in : sz14_inputs(dims, 1024)) {  // smooth: 6 chunks
    for (const bool huffman : {true, false}) {
      in.cfg.huffman = huffman;
      const auto c = sz::compress(in.values, dims, in.cfg);
      expect_mostly_unpredictable(in, c);
      const auto full = sz::decompress(c.bytes);
      for (const auto& rg : regions_2d(64, 96)) {
        const auto res = sz::decompress_region(c.bytes, rg);
        EXPECT_EQ(res.data, slice(full, dims, rg))
            << in.name << " huffman=" << huffman;
        EXPECT_EQ(res.field_dims, dims);
        EXPECT_LE(res.compressed_bytes_read, c.bytes.size());
      }
    }
  }
}

TEST(RegionDecode, Sz14SingleChunkAndAllChunkCoverage) {
  const Dims dims = Dims::d2(40, 40);
  const auto grid = field(dims);
  // One chunk holding everything, and per-row chunks (40 of them).
  for (const std::uint32_t syms : {1u << 15, 40u}) {
    sz::Config cfg;
    cfg.index_chunk_symbols = syms;
    const auto c = sz::compress(grid, dims, cfg);
    const auto full = sz::decompress(c.bytes);
    for (const auto& rg : regions_2d(40, 40)) {
      EXPECT_EQ(sz::decompress_region(c.bytes, rg).data,
                slice(full, dims, rg))
          << "chunk_symbols=" << syms;
    }
  }
}

/// The regions the 3D suites sweep on a 16x24x20 field.
std::vector<sz::Region> regions_3d() {
  return {
      {{0, 0, 0}, {8, 12, 10}},       // leading octant
      {{7, 3, 2}, {9, 21, 18}},       // slab spanning non-contiguous chunks
      {{0, 0, 0}, {1, 1, 1}},         // 1-element
      {{15, 23, 19}, {16, 24, 20}},   // far-corner element
      {{2, 0, 0}, {5, 24, 20}},       // whole-plane band
      {{0, 5, 0}, {16, 6, 20}},       // all planes, one row each
      {{0, 0, 0}, {16, 24, 20}},      // whole field
      {{3, 4, 5}, {9, 15, 13}},       // interior box
      {{10, 3, 2}, {16, 12, 9}},      // last planes, rows and columns inside
      {{2, 20, 3}, {6, 24, 11}},      // last rows of each plane
      {{2, 3, 15}, {6, 11, 20}},      // last columns of each row
      {{5, 6, 7}, {6, 7, 8}},         // 1-element interior
      {{15, 4, 6}, {16, 5, 7}},       // 1-element on the last plane
  };
}

TEST(RegionDecode, Sz14ThreeDimensionalSlabs) {
  const Dims dims = Dims::d3(16, 24, 20);
  for (const auto& in : sz14_inputs(dims, 480)) {  // smooth: a plane a chunk
    const auto c = sz::compress(in.values, dims, in.cfg);
    expect_mostly_unpredictable(in, c);
    const auto full = sz::decompress(c.bytes);
    for (const auto& rg : regions_3d()) {
      const auto res = sz::decompress_region(c.bytes, rg);
      EXPECT_EQ(res.data, slice(full, dims, rg)) << in.name;
      EXPECT_EQ(res.region_dims.count(), res.data.size());
    }
  }
}

TEST(RegionDecode, Sz14Float64) {
  for (const Dims& dims : {Dims::d2(48, 48), Dims::d3(16, 24, 20)}) {
    for (const auto& in : sz14_inputs(dims, 512)) {
      const std::vector<double> wide(in.values.begin(), in.values.end());
      const auto c = sz::compress(wide, dims, in.cfg);
      expect_mostly_unpredictable(in, c);
      const auto full = sz::decompress64(c.bytes);
      const auto regions =
          dims.rank == 2 ? regions_2d(48, 48) : regions_3d();
      for (const auto& rg : regions) {
        EXPECT_EQ(sz::decompress_region64(c.bytes, rg).data,
                  slice(full, dims, rg))
            << dims.str() << " " << in.name;
      }
    }
  }
}

TEST(RegionDecode, WaveFlatten2DMatchesFullDecodeSlices) {
  const Dims dims = Dims::d2(64, 96);
  const auto grid = field(dims);
  for (const bool huffman : {false, true}) {  // G* and H*G*
    auto cfg = wave::default_config();
    cfg.huffman = huffman;
    cfg.index_chunk_symbols = 1024;
    const auto c = wave::compress(grid, dims, cfg);
    const auto full = wave::decompress(c.bytes);
    for (const auto& rg : regions_2d(64, 96)) {
      const auto res = wave::decompress_region(c.bytes, rg);
      EXPECT_EQ(res.data, slice(full, dims, rg)) << "huffman=" << huffman;
    }
  }
}

TEST(RegionDecode, WaveFlatten2DRank3) {
  const Dims dims = Dims::d3(12, 16, 20);
  const auto grid = field(dims);
  auto cfg = wave::default_config();
  cfg.index_chunk_symbols = 512;
  const auto c = wave::compress(grid, dims, cfg);  // Flatten2D: 12 x 320
  const auto full = wave::decompress(c.bytes);
  const std::vector<sz::Region> regions = {
      {{0, 0, 0}, {6, 8, 10}},
      {{3, 2, 1}, {7, 15, 19}},
      {{0, 0, 0}, {1, 1, 1}},
      {{11, 15, 19}, {12, 16, 20}},
      {{0, 0, 0}, {12, 16, 20}},
  };
  for (const auto& rg : regions) {
    EXPECT_EQ(wave::decompress_region(c.bytes, rg).data,
              slice(full, dims, rg));
  }
}

TEST(RegionDecode, WaveTrue3DMatchesFullDecodeSlices) {
  const Dims dims = Dims::d3(14, 20, 20);
  const auto grid = field(dims);
  auto cfg = wave::default_config();
  cfg.index_chunk_symbols = 400;  // one plane per chunk
  const auto c =
      wave::compress(grid, dims, cfg, wave::LayoutMode::True3D);
  const auto full = wave::decompress(c.bytes);
  const std::vector<sz::Region> regions = {
      {{0, 0, 0}, {7, 10, 10}},
      {{5, 2, 3}, {8, 19, 17}},
      {{0, 0, 0}, {1, 1, 1}},
      {{13, 19, 19}, {14, 20, 20}},
      {{0, 0, 0}, {14, 20, 20}},
  };
  for (const auto& rg : regions) {
    EXPECT_EQ(wave::decompress_region(c.bytes, rg).data,
              slice(full, dims, rg));
  }
}

TEST(RegionDecode, WaveFloat64Region) {
  const Dims dims = Dims::d2(40, 60);
  const auto grid = field(dims);
  std::vector<double> wide(grid.begin(), grid.end());
  auto cfg = wave::default_config();
  cfg.index_chunk_symbols = 500;
  const auto c = wave::compress(wide, dims, cfg);
  const auto full = wave::decompress64(c.bytes);
  for (const auto& rg : regions_2d(40, 60)) {
    EXPECT_EQ(wave::decompress_region64(c.bytes, rg).data,
              slice(full, dims, rg));
  }
}

TEST(RegionDecode, WaveReadsTheSzxContainersItWrites) {
  // wave::compress writes an SZx container under Codec::Szx, and
  // wave::decompress_region reads it back like sz::decompress_region.
  const Dims dims = Dims::d2(40, 60);
  const auto grid = field(dims);
  const std::vector<double> wide(grid.begin(), grid.end());
  const auto c32 = wave::compress(grid, dims, sz::Config::ultrafast());
  const auto c64 = wave::compress(wide, dims, sz::Config::ultrafast());
  ASSERT_EQ(c32.header.variant, sz::Variant::SzxFast);
  const auto full32 = wave::decompress(c32.bytes);
  const auto full64 = wave::decompress64(c64.bytes);
  for (const auto& rg : regions_2d(40, 60)) {
    EXPECT_EQ(wave::decompress_region(c32.bytes, rg).data,
              slice(full32, dims, rg));
    EXPECT_EQ(wave::decompress_region64(c64.bytes, rg).data,
              slice(full64, dims, rg));
  }
}

TEST(RegionDecode, PrefixRegionReadsFewerBytes) {
  const Dims dims = Dims::d2(256, 256);
  const auto grid = field(dims);
  // Top-left quarter: its dependency closure is the first-half slab/column
  // prefix, so with per-~4-row chunks the decoder must stop roughly halfway
  // through the code stream.
  const sz::Region quarter{{0, 0, 0}, {128, 128, 0}};
  {
    sz::Config cfg;
    cfg.index_chunk_symbols = 4096;  // 16 chunks
    const auto c = sz::compress(grid, dims, cfg);
    const auto res = sz::decompress_region(c.bytes, quarter);
    EXPECT_EQ(res.data, slice(sz::decompress(c.bytes), dims, quarter));
    EXPECT_LT(res.compressed_bytes_read, c.bytes.size());
  }
  {
    auto cfg = wave::default_config();
    cfg.index_chunk_symbols = 4096;
    const auto c = wave::compress(grid, dims, cfg);
    const auto res = wave::decompress_region(c.bytes, quarter);
    EXPECT_EQ(res.data, slice(wave::decompress(c.bytes), dims, quarter));
    EXPECT_LT(res.compressed_bytes_read, c.bytes.size());
  }
}

TEST(RegionDecode, IndexlessStreamFallsBackToFullDecode) {
  const Dims dims = Dims::d2(48, 48);
  const auto grid = field(dims);
  sz::Config cfg;
  cfg.chunk_index = false;
  const auto c = sz::compress(grid, dims, cfg);
  const auto full = sz::decompress(c.bytes);
  const sz::Region rg{{0, 0, 0}, {10, 10, 0}};
  const auto res = sz::decompress_region(c.bytes, rg);
  EXPECT_EQ(res.data, slice(full, dims, rg));
  EXPECT_EQ(res.compressed_bytes_read, c.bytes.size());
}

TEST(RegionDecode, RegionDecodeHonorsThreadBudget) {
  const Dims dims = Dims::d2(96, 96);
  const auto grid = field(dims);
  sz::Config cfg;
  cfg.index_chunk_symbols = 1024;
  const auto c = sz::compress(grid, dims, cfg);
  const sz::Region rg{{0, 0, 0}, {64, 96, 0}};
  const auto serial = sz::decompress_region(c.bytes, rg);
  for (const int nt : {2, 4}) {
    EXPECT_EQ(sz::decompress_region(c.bytes, rg, sz::DecodeOptions{nt, 1})
                  .data,
              serial.data);
  }

  // Rough fields at budgets 1 and 2: budget 2 runs the chunk-parallel
  // prefix decode and, with the work floor lifted, the tiled wavefront
  // reconstruct over each box.
  const FloorOverride floor;
  for (const Dims& rough : {Dims::d2(64, 96), Dims::d3(16, 24, 20)}) {
    const auto regions = rough.rank == 2 ? regions_2d(64, 96) : regions_3d();
    for (const auto& in : sz14_inputs(rough, 1024)) {
      if (!in.rough()) continue;
      const auto rc = sz::compress(in.values, rough, in.cfg);
      expect_mostly_unpredictable(in, rc);
      const auto full = sz::decompress(rc.bytes);
      for (const int nt : {1, 2}) {
        for (const auto& box : regions) {
          EXPECT_EQ(sz::decompress_region(rc.bytes, box,
                                          sz::DecodeOptions{nt, nt})
                        .data,
                    slice(full, rough, box))
              << rough.str() << " " << in.name << " budget=" << nt;
        }
      }
    }
  }
}

/// Rough boxes against the raster-order oracle rather than a full decode
/// (both run the same skewed walk): the raster PQD's history is what every
/// read must return, in f32 and f64, serially and with the tiled
/// reconstruct at budgets 2 and 4.
template <typename T>
void rough_boxes_match_raster(const Dims& dims) {
  const FloorOverride floor;
  const Sz14Input in{"rough/1-layer", rough_field(dims),
                     rough_config(sz::PredictorKind::Lorenzo1Layer)};
  const std::vector<T> values(in.values.begin(), in.values.end());
  const auto c = sz::compress(values, dims, in.cfg);
  expect_mostly_unpredictable(in, c);
  const sz::LinearQuantizer q(c.header.eb_absolute, c.header.quant_bits);
  const auto oracle =
      sz::detail::lorenzo_pqd_raster_t<T>(values, dims, q).reconstructed;
  const auto regions = dims.rank == 2 ? regions_2d(64, 96) : regions_3d();
  for (const int nt : {1, 2, 4}) {
    for (const auto& box : regions) {
      const sz::DecodeOptions opts{nt, nt};
      if constexpr (std::is_same_v<T, float>) {
        EXPECT_EQ(sz::decompress_region(c.bytes, box, opts).data,
                  slice(oracle, dims, box))
            << dims.str() << " budget=" << nt;
      } else {
        EXPECT_EQ(sz::decompress_region64(c.bytes, box, opts).data,
                  slice(oracle, dims, box))
            << dims.str() << " budget=" << nt;
      }
    }
  }
}

TEST(RegionDecode, RoughBoxesMatchRasterOracle) {
  for (const Dims& dims : {Dims::d2(64, 96), Dims::d3(16, 24, 20)}) {
    rough_boxes_match_raster<float>(dims);
    rough_boxes_match_raster<double>(dims);
  }
}

TEST(RegionDecode, InvalidRegionsThrow) {
  const Dims dims = Dims::d2(32, 32);
  const auto c = sz::compress(field(dims), dims, sz::Config{});
  // hi beyond the extent
  EXPECT_THROW(
      (void)sz::decompress_region(c.bytes, sz::Region{{0, 0, 0}, {33, 4, 0}}),
      Error);
  // empty interval (lo >= hi)
  EXPECT_THROW(
      (void)sz::decompress_region(c.bytes, sz::Region{{5, 0, 0}, {5, 4, 0}}),
      Error);
  EXPECT_THROW(
      (void)sz::decompress_region(c.bytes, sz::Region{{6, 0, 0}, {5, 4, 0}}),
      Error);
  // rank-2 container with a real third-axis constraint
  EXPECT_THROW(
      (void)sz::decompress_region(c.bytes, sz::Region{{0, 0, 1}, {4, 4, 2}}),
      Error);
}

}  // namespace
}  // namespace wavesz
