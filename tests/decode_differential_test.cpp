// Differential decode tests: every container format in the repository is
// decoded twice — once through the table-driven fast path (flat two-level
// Huffman tables, bulk-refill bit readers, word-wise copies) and once
// through the bit-at-a-time reference oracle — and the outputs must be
// identical to the last byte. The fast path is a pure performance change;
// any divergence here is a decode bug, not a format evolution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <span>
#include <vector>

#include "core/wavesz.hpp"
#include "data/synthetic.hpp"
#include "deflate/deflate.hpp"
#include "ghostsz/ghostsz.hpp"
#include "huffman_vectors.hpp"
#include "sz/compressor.hpp"
#include "sz/container.hpp"
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

// ------------------------------------------------------------ window edges
//
// The streams of huffman_vectors.hpp put codes on both sides of the decode
// window and at the coder's length limit; these tests cut them into chunks
// of every small size and compare the fast decode with the oracle.

using huffman_vectors::fibonacci_stream;
using huffman_vectors::geometric_stream;
using huffman_vectors::two_symbol_stream;

/// The code lengths the encoder assigns to the symbols of `codes`.
std::vector<int> lengths_used(const std::vector<std::uint16_t>& codes) {
  const auto lengths = huffman_code_lengths(sz::count_symbols(codes), 24);
  std::vector<int> out;
  for (const auto l : lengths) {
    if (l > 0) out.push_back(l);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

TEST(WindowEdges, StreamsPutCodesAroundTheWindow) {
  EXPECT_EQ(lengths_used(two_symbol_stream()), std::vector<int>{1});
  const auto geo = lengths_used(geometric_stream());
  for (const int l : {10, 11, 12}) {
    EXPECT_NE(std::find(geo.begin(), geo.end(), l), geo.end()) << l;
  }
  EXPECT_EQ(lengths_used(fibonacci_stream()).back(), 24);
}

TEST(WindowEdges, WholeStreamDecodeMatchesOracle) {
  for (const auto& codes :
       {two_symbol_stream(), geometric_stream(), fibonacci_stream()}) {
    const auto blob = sz::huffman_encode(codes);
    EXPECT_EQ(both_paths_identical([&] { return sz::huffman_decode(blob); }),
              codes);
    sz::CodeChunkIndex idx;
    const auto indexed = sz::huffman_encode_indexed(codes, 1, 32768, idx);
    for (const int threads : {1, 4}) {
      EXPECT_EQ(both_paths_identical([&] {
                  return sz::huffman_decode_indexed(indexed, idx, threads);
                }),
                codes);
    }
  }
}

TEST(WindowEdges, ContainersDecodeOnBothPaths) {
  // The same streams as whole SZ-1.4 v2 containers, serial and parallel.
  for (const auto& codes :
       {two_symbol_stream(), geometric_stream(), fibonacci_stream()}) {
    const auto bytes = huffman_vectors::container_with_codes(codes, 4096);
    for (const int threads : {1, 4}) {
      both_paths_identical([&] {
        return sz::decompress(bytes, sz::DecodeOptions{threads, 1});
      });
    }
  }
}

TEST(WindowEdges, TinyChunksDecodeOnBothPaths) {
  // Chunks of 1-5 symbols end before a window entry's four lanes fit, so
  // every chunk runs the one-symbol tail; 32 Ki is the default chunk.
  for (const auto& codes : {two_symbol_stream(), geometric_stream()}) {
    for (const std::uint32_t chunk : {1u, 2u, 3u, 4u, 5u, 32768u}) {
      sz::CodeChunkIndex idx;
      const auto blob = sz::huffman_encode_indexed(codes, 1, chunk, idx);
      for (const int threads : {1, 2}) {
        EXPECT_EQ(both_paths_identical([&] {
                    return sz::huffman_decode_indexed(blob, idx, threads);
                  }),
                  codes)
            << "chunk " << chunk << " threads " << threads;
      }
    }
  }
}

TEST(WindowEdges, EveryPrefixChunkCountOnBothPaths) {
  const auto codes = geometric_stream();
  sz::CodeChunkIndex idx;
  const auto blob = sz::huffman_encode_indexed(codes, 1, 64, idx);
  ASSERT_EQ(idx.entries.size(), codes.size() / 64);
  for (std::size_t k = 0; k < idx.entries.size(); ++k) {
    // The blob cut to the last byte chunk k needs, as a prefix inflate
    // leaves it, and a request that ends one symbol into the chunk.
    const auto& e = idx.entries[k];
    const std::vector<std::uint8_t> cut(
        blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(
                                         idx.payload_byte_offset +
                                         (e.end_bit + 7) / 8));
    const std::uint64_t symbols = k * 64 + 1;
    const auto out = both_paths_identical(
        [&] { return sz::huffman_decode_prefix(cut, idx, symbols, 1); });
    EXPECT_TRUE(std::equal(out.begin(), out.end(), codes.begin()) &&
                out.size() == symbols)
        << "chunk count " << k + 1;
  }
}

TEST(WindowEdges, EveryByteCutThrowsOnBothPaths) {
  const auto full = geometric_stream();
  const std::vector<std::uint16_t> codes(full.begin(), full.begin() + 600);
  sz::CodeChunkIndex idx;
  const auto blob = sz::huffman_encode_indexed(codes, 1, 5, idx);
  for (const bool reference : {false, true}) {
    set_reference_decode(reference);
    for (std::size_t n = 0; n < blob.size(); ++n) {
      const std::span<const std::uint8_t> cut(blob.data(), n);
      EXPECT_THROW(sz::huffman_decode(cut), Error) << n;
      EXPECT_THROW(sz::huffman_decode_indexed(cut, idx, 1), Error) << n;
      EXPECT_THROW(sz::huffman_decode_prefix(cut, idx, codes.size(), 1),
                   Error)
          << n;
    }
  }
  set_reference_decode(false);
}

TEST(WindowEdges, ForgedCountRunsOffThePayloadOnBothPaths) {
  // A symbol count forged up to the payload's bit count passes the header
  // checks, so both decoders run off the end of the payload: the fast loop
  // must report the truncation from its fill count, the oracle from its
  // reader.
  const auto codes = geometric_stream();
  auto blob = sz::huffman_encode(codes);
  sz::CodeChunkIndex idx;
  (void)sz::huffman_encode_indexed(codes, 1, 4096, idx);
  const std::size_t bits_at = idx.payload_byte_offset - 8;
  ByteReader r(std::span<const std::uint8_t>(blob).subspan(bits_at, 8));
  const std::uint64_t payload_bits = r.u64();
  ASSERT_GT(payload_bits, codes.size());
  ByteWriter w;
  w.u64(payload_bits);
  const auto count = w.take();
  std::copy(count.begin(), count.end(), blob.begin() + 4);
  for (const bool reference : {false, true}) {
    set_reference_decode(reference);
    EXPECT_THROW(sz::huffman_decode(blob), Error) << reference;
  }
  set_reference_decode(false);
}

TEST(WindowEdges, EncoderIdenticalAtEveryBudget) {
  // 196,417 symbols give budgets 2 and 4 their full histogram worker
  // counts; every budget must write the blob and index of budget 1.
  const auto codes = fibonacci_stream();
  const auto serial = sz::huffman_encode(codes, 1);
  sz::CodeChunkIndex ref;
  EXPECT_EQ(sz::huffman_encode_indexed(codes, 1, 4096, ref), serial);
  ASSERT_EQ(ref.entries.size(), (codes.size() + 4095) / 4096);
  for (const int threads : {2, 4}) {
    EXPECT_EQ(sz::huffman_encode(codes, threads), serial) << threads;
    sz::CodeChunkIndex idx;
    EXPECT_EQ(sz::huffman_encode_indexed(codes, threads, 4096, idx), serial)
        << threads;
    EXPECT_EQ(idx.payload_byte_offset, ref.payload_byte_offset);
    ASSERT_EQ(idx.entries.size(), ref.entries.size());
    for (std::size_t k = 0; k < idx.entries.size(); ++k) {
      EXPECT_EQ(idx.entries[k].end_bit, ref.entries[k].end_bit) << k;
      EXPECT_EQ(idx.entries[k].end_element, ref.entries[k].end_element) << k;
      EXPECT_EQ(idx.entries[k].end_unpred, ref.entries[k].end_unpred) << k;
      EXPECT_EQ(idx.entries[k].running_crc, ref.entries[k].running_crc) << k;
    }
  }
  EXPECT_EQ(ref.entries.back().end_unpred,
            sz::count_unpredictable(codes));
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
