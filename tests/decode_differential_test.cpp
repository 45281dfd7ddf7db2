// Differential decode tests: every container format in the repository is
// decoded twice — once through the table-driven fast path (flat two-level
// Huffman tables, bulk-refill bit readers, word-wise copies) and once
// through the bit-at-a-time reference oracle — and the outputs must be
// identical to the last byte. The fast path is a pure performance change;
// any divergence here is a decode bug, not a format evolution.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "core/wavesz.hpp"
#include "data/synthetic.hpp"
#include "deflate/deflate.hpp"
#include "ghostsz/ghostsz.hpp"
#include "sz/compressor.hpp"
#include "sz/huffman_codec.hpp"
#include "sz2/sz2.hpp"
#include "util/error.hpp"
#include "util/huffman.hpp"

namespace wavesz {
namespace {

/// Run `decode` on the fast path, then pinned to the reference oracle, and
/// require byte-identical results. Restores the fast default on scope exit.
template <typename Decode>
auto both_paths_identical(Decode&& decode) {
  set_reference_decode(false);
  const auto fast = decode();
  set_reference_decode(true);
  const auto ref = decode();
  set_reference_decode(false);
  EXPECT_EQ(fast, ref);
  return fast;
}

std::vector<float> field(const Dims& dims, std::uint64_t seed) {
  data::FieldRecipe r;
  r.seed = seed;
  return data::generate(r, dims);
}

TEST(DecodeDifferential, GzipMembersAcrossShapes) {
  std::mt19937 rng(31);
  for (const std::size_t size : {0u, 1u, 257u, 65536u, 131072u}) {
    std::vector<std::uint8_t> raw(size);
    for (std::size_t i = 0; i < size; ++i) {
      raw[i] = (i % 3 == 0) ? static_cast<std::uint8_t>(rng())
                            : static_cast<std::uint8_t>((i / 32) % 13);
    }
    for (auto level : {deflate::Level::Fast, deflate::Level::Best}) {
      const auto gz = deflate::gzip_compress(raw, level);
      const auto out = both_paths_identical(
          [&] { return deflate::gzip_decompress(gz); });
      EXPECT_EQ(out, raw);
      const auto c = deflate::compress(raw, level);
      EXPECT_EQ(both_paths_identical([&] { return deflate::decompress(c); }),
                raw);
    }
  }
}

TEST(DecodeDifferential, EveryContainerVariant) {
  const Dims dims = Dims::d2(48, 48);
  const auto grid = field(dims, 7);

  const auto c_sz = sz::compress(grid, dims, sz::Config{});
  both_paths_identical([&] { return sz::decompress(c_sz.bytes); });

  const auto c_ghost = ghost::compress(grid, dims, sz::Config{});
  both_paths_identical([&] { return ghost::decompress(c_ghost.bytes); });

  auto wcfg = wave::default_config();
  const auto c_wave = wave::compress(grid, dims, wcfg);
  both_paths_identical([&] { return wave::decompress(c_wave.bytes); });

  wcfg.huffman = true;  // H*G*: customized Huffman ahead of gzip
  const auto c_whg = wave::compress(grid, dims, wcfg);
  both_paths_identical([&] { return wave::decompress(c_whg.bytes); });

  sz2::Config cfg2;
  const auto c_sz2 = sz2::compress(grid, dims, cfg2);
  both_paths_identical([&] { return sz2::decompress(c_sz2.bytes); });
}

TEST(DecodeDifferential, HuffmanBlobSkewedAlphabets) {
  std::mt19937 rng(17);
  for (const std::size_t n : {1u, 2u, 1000u, 20000u}) {
    std::vector<std::uint16_t> codes(n);
    for (auto& c : codes) {
      // Skewed around the quantization midpoint, occasional far outliers.
      c = (rng() % 50 == 0)
              ? static_cast<std::uint16_t>(rng())
              : static_cast<std::uint16_t>(32768 + (rng() % 9) - 4);
    }
    const auto blob = sz::huffman_encode(codes);
    EXPECT_EQ(sz::huffman_decode(blob), codes);
    EXPECT_EQ(sz::huffman_decode_reference(blob), codes);
  }
}

TEST(DecodeDifferential, HuffmanBlobDegenerateSingleSymbol) {
  // A one-symbol alphabet gets a length-1 code; both decoders must agree on
  // the degenerate table, for one code and for many repeats of it.
  for (const std::size_t n : {1u, 9999u}) {
    const std::vector<std::uint16_t> codes(n, 32768);
    const auto blob = sz::huffman_encode(codes);
    EXPECT_EQ(sz::huffman_decode(blob), codes);
    EXPECT_EQ(sz::huffman_decode_reference(blob), codes);
  }
}

TEST(DecodeDifferential, HuffmanBlobEmptyStream) {
  const std::vector<std::uint16_t> none;
  const auto blob = sz::huffman_encode(none);
  EXPECT_TRUE(sz::huffman_decode(blob).empty());
  EXPECT_TRUE(sz::huffman_decode_reference(blob).empty());
}

TEST(DecodeDifferential, EnvironmentKnobSelectsReferencePath) {
  // set_reference_decode() overrides whatever the environment latched; both
  // settings must decode a round trip correctly.
  const auto input = std::vector<std::uint8_t>(4096, 0x5a);
  const auto gz = deflate::gzip_compress(input, deflate::Level::Best);
  set_reference_decode(true);
  EXPECT_EQ(deflate::gzip_decompress(gz), input);
  EXPECT_TRUE(reference_decode_enabled());
  set_reference_decode(false);
  EXPECT_EQ(deflate::gzip_decompress(gz), input);
  EXPECT_FALSE(reference_decode_enabled());
}

}  // namespace
}  // namespace wavesz
