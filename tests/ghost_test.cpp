// Tests for the GhostSZ baseline: symbol packing, the CF-GhostSZ predicted-
// value feedback semantics (Algorithm 1 lines 9/12), row decorrelation, and
// end-to-end round trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <tuple>
#include <utility>
#include <vector>

#include "data/datasets.hpp"
#include "ghostsz/ghostsz.hpp"
#include "metrics/stats.hpp"
#include "util/error.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace wavesz::ghost {
namespace {

/// Lowers the calling thread's default OpenMP team to one thread for its
/// lifetime; a build without OpenMP has no team to lower.
struct OneThreadTeam {
#ifdef _OPENMP
  int saved = omp_get_max_threads();
  OneThreadTeam() { omp_set_num_threads(1); }
  ~OneThreadTeam() { omp_set_num_threads(saved); }
  OneThreadTeam(const OneThreadTeam&) = delete;
  OneThreadTeam& operator=(const OneThreadTeam&) = delete;
#endif
};

TEST(GhostSymbols, PackUnpackRoundTrip) {
  for (std::uint8_t order : {0, 1, 2, 3}) {
    for (std::uint16_t code : {0, 1, 8191, 16383}) {
      const auto s = pack_symbol(order, code);
      EXPECT_EQ(symbol_order(s), order);
      EXPECT_EQ(symbol_code(s), code);
    }
  }
}

TEST(GhostSymbols, FourteenBitBudget) {
  // Paper §4.1: 2 selector bits leave at most 16,384 bins.
  EXPECT_EQ(kGhostQuantBits, 14);
  EXPECT_EQ(pack_symbol(3, 16383), 0xFFFF);
}

sz::Config abs_config(double eb) {
  sz::Config cfg;
  cfg.error_bound = eb;
  cfg.mode = sz::EbMode::Absolute;
  return cfg;
}

TEST(GhostPqd, RowSeedsAreVerbatim) {
  const Dims dims = Dims::d2(4, 8);
  std::vector<float> field(dims.count());
  for (std::size_t i = 0; i < field.size(); ++i) {
    field[i] = static_cast<float>(i);
  }
  const sz::LinearQuantizer q(0.5, kGhostQuantBits);
  const auto pqd = ghost_pqd(field, dims, q);
  // Exactly one verbatim seed per row on this perfectly linear data.
  EXPECT_EQ(pqd.unpredictable.size(), 4u);
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(symbol_code(pqd.codes[r * 8]), 0);
    EXPECT_EQ(pqd.unpredictable[r], field[r * 8]);
  }
}

TEST(GhostPqd, ConstantPlateausPredictExactly) {
  // The predicted-value feedback chain (Algorithm 1 line 9) is exact on
  // constant regions: order-0 reproduces the plateau, codes sit at the
  // radius, and the reconstruction is bit-exact — the effect behind
  // GhostSZ's concentrated error distribution in paper Fig. 9.
  const Dims dims = Dims::d2(1, 64);
  std::vector<float> field(dims.count(), 0.75f);
  const sz::LinearQuantizer q(0.01, kGhostQuantBits);
  const auto pqd = ghost_pqd(field, dims, q);
  for (std::size_t i = 1; i < field.size(); ++i) {
    EXPECT_EQ(symbol_code(pqd.codes[i]), q.radius());
    EXPECT_EQ(pqd.reconstructed[i], 0.75f);
  }
}

TEST(GhostPqd, PredictionDriftsOnGradientsButOutputStaysBounded) {
  // With no error correction in the history, a linear ramp makes the
  // prediction chain drift (the paper's "inaccurate prediction for the
  // following data points"); quantization still bounds every output value.
  const Dims dims = Dims::d2(1, 256);
  std::vector<float> field(dims.count());
  for (std::size_t i = 0; i < field.size(); ++i) {
    field[i] = 5.0f + 3.0f * static_cast<float>(i);
  }
  const sz::LinearQuantizer q(0.25, kGhostQuantBits);
  const auto pqd = ghost_pqd(field, dims, q);
  EXPECT_TRUE(metrics::within_bound(field, pqd.reconstructed, 0.25));
  // Drift shows up as quantization codes far from the radius.
  std::uint16_t max_dev = 0;
  for (std::size_t i = 1; i < field.size(); ++i) {
    const auto code = symbol_code(pqd.codes[i]);
    if (code != 0) {
      max_dev = std::max<std::uint16_t>(
          max_dev, static_cast<std::uint16_t>(
                       std::abs(static_cast<int>(code) -
                                static_cast<int>(q.radius()))));
    }
  }
  EXPECT_GT(max_dev, 100);
}

TEST(GhostPqd, ReconstructionMatchesCompressionHistory) {
  const auto field =
      data::field(data::Persona::CesmAtm, "CLDLOW", 40).materialize();
  const Dims dims = data::persona_dims(data::Persona::CesmAtm, 40);
  const sz::LinearQuantizer q(1e-3, kGhostQuantBits);
  const auto pqd = ghost_pqd(field, dims, q);
  const auto rec = ghost_reconstruct(pqd.codes, pqd.unpredictable, dims, q);
  EXPECT_EQ(rec, pqd.reconstructed);
}

TEST(GhostPqd, RowsAreIndependent) {
  // Changing row 0 must not change any symbol of row 1 — the decorrelation
  // property that makes GhostSZ pipelineable.
  const Dims dims = Dims::d2(2, 64);
  auto field =
      data::field(data::Persona::CesmAtm, "FLDS", 60).materialize();
  field.resize(dims.count());
  const sz::LinearQuantizer q(0.05, kGhostQuantBits);
  const auto before = ghost_pqd(field, dims, q);
  for (std::size_t y = 0; y < 64; ++y) field[y] += 1000.0f;
  const auto after = ghost_pqd(field, dims, q);
  for (std::size_t y = 0; y < 64; ++y) {
    EXPECT_EQ(before.codes[64 + y], after.codes[64 + y]);
  }
}

class GhostRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(GhostRoundTrip, BoundHolds) {
  const auto [rank, eb] = GetParam();
  const Dims dims = rank == 2 ? Dims::d2(48, 64) : Dims::d3(8, 24, 16);
  data::FieldRecipe recipe;
  recipe.seed = static_cast<std::uint64_t>(rank * 17);
  const auto field = data::generate(recipe, dims);
  sz::Config cfg;
  cfg.error_bound = eb;
  const auto c = ghost::compress(field, dims, cfg);
  Dims out_dims;
  const auto decoded = decompress(c.bytes, &out_dims);
  EXPECT_EQ(out_dims, dims);
  EXPECT_TRUE(metrics::within_bound(field, decoded, c.header.eb_absolute))
      << "violation at "
      << metrics::first_violation(field, decoded, c.header.eb_absolute);
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndBounds, GhostRoundTrip,
    ::testing::Combine(::testing::Values(2, 3),
                       ::testing::Values(1e-2, 1e-3, 1e-4)));

TEST(GhostCompressor, HeaderRecordsFourteenBitsNoHuffman) {
  const Dims dims = Dims::d2(16, 16);
  const std::vector<float> field(dims.count(), 1.0f);
  const auto c = ghost::compress(field, dims, abs_config(0.01));
  EXPECT_EQ(c.header.quant_bits, kGhostQuantBits);
  EXPECT_FALSE(c.header.huffman);
  EXPECT_EQ(c.header.variant, sz::Variant::GhostSz);
}

TEST(GhostCompressor, RoughDataStaysBoundedWithRowSeeds) {
  // Every row contributes at least its verbatim seed; rough data with a
  // tight bound must still satisfy the bound end to end.
  const Dims dims = Dims::d2(64, 64);
  data::FieldRecipe recipe;
  recipe.seed = 21;
  recipe.noise_amplitude = 0.02;
  const auto field = data::generate(recipe, dims);
  sz::Config cfg;
  cfg.error_bound = 1e-4;
  const auto g = ghost::compress(field, dims, cfg);
  EXPECT_GE(g.header.unpredictable_count, dims[0]);  // >= the row seeds
  const auto decoded = decompress(g.bytes);
  EXPECT_TRUE(metrics::within_bound(field, decoded, g.header.eb_absolute));
}

TEST(GhostCompressor, ContainerBytesDoNotDependOnTheHostsThreads) {
  // Budget 0 means all threads, here a default team lowered to one. The
  // section layout follows the requested budget, so the container is the
  // chunked one that budget 2 writes, on every host.
  const Dims dims = Dims::d2(40, 56);
  data::FieldRecipe recipe;
  recipe.seed = 7;
  const auto field = data::generate(recipe, dims);
  sz::Config cfg;
  cfg.deflate_chunk_bytes = 4096;  // the 4,480 bytes of codes: two chunks
  cfg.codec_threads = 2;
  const auto chunked = ghost::compress(field, dims, cfg).bytes;
  cfg.codec_threads = 1;
  ASSERT_NE(ghost::compress(field, dims, cfg).bytes, chunked);
  cfg.codec_threads = 0;
  [[maybe_unused]] const OneThreadTeam team;
  EXPECT_EQ(ghost::compress(field, dims, cfg).bytes, chunked);
}

TEST(GhostCompressor, WrongVariantRejected) {
  const Dims dims = Dims::d2(8, 8);
  const std::vector<float> field(dims.count(), 2.0f);
  const auto c = ghost::compress(field, dims, abs_config(0.1));
  auto bad = c.bytes;
  bad[4] = 1;  // variant byte: claim SZ-1.4
  EXPECT_THROW(decompress(bad), Error);
}

TEST(GhostCompressor, ForgedIndexDtypeOrHuffmanRejected) {
  // The encoder writes index-less float32 G* containers only. A copy
  // relabelled as indexed (magic "WSZI"), as float64, or as H* coded must
  // fail, not decode its sections as if nothing had changed.
  const Dims dims = Dims::d2(8, 8);
  const std::vector<float> field(dims.count(), 2.0f);
  const auto c = ghost::compress(field, dims, abs_config(0.1));
  ASSERT_EQ(decompress(c.bytes), field);
  const std::pair<std::size_t, std::uint8_t> forgeries[] = {
      {3, 'I'},  // magic byte 3: "WSZ1" -> "WSZI"
      {52, 1},   // dtype byte: float64
      {49, 1}};  // huffman byte: H*
  for (const auto& [offset, value] : forgeries) {
    auto bad = c.bytes;
    bad[offset] = value;
    EXPECT_THROW(decompress(bad), Error) << "byte " << offset;
  }
}

TEST(GhostCompressor, Flattens3dLikeTheArtifact) {
  // A 3D dataset is treated as d0 x (d1*d2) rows: row seeds must appear
  // once per d0 plane, not once per (d0*d1) row.
  const Dims dims = Dims::d3(4, 8, 8);
  std::vector<float> field(dims.count());
  for (std::size_t i = 0; i < field.size(); ++i) {
    field[i] = static_cast<float>(i % 7);
  }
  const sz::LinearQuantizer q(0.5, kGhostQuantBits);
  const auto pqd = ghost_pqd(field, dims, q);
  std::size_t seeds = 0;
  for (std::size_t plane = 0; plane < 4; ++plane) {
    if (symbol_code(pqd.codes[plane * 64]) == 0) ++seeds;
  }
  EXPECT_EQ(seeds, 4u);
}

}  // namespace
}  // namespace wavesz::ghost
