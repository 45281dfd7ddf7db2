// Differential decode tests: every gzip stream, H* blob and two-section
// container the repository writes is decoded by the table-driven decoders
// (flat two-level Huffman tables, bulk-refill bit readers, word-wise
// copies) and by the bit-at-a-time oracles of deflate_oracle.hpp and
// huffman_oracle.hpp, and the outputs must be identical to the last byte.
// Any divergence here is a decode bug, not a format evolution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/wavesz.hpp"
#include "data/synthetic.hpp"
#include "deflate/deflate.hpp"
#include "deflate_oracle.hpp"
#include "ghostsz/ghostsz.hpp"
#include "huffman_oracle.hpp"
#include "huffman_vectors.hpp"
#include "sz/compressor.hpp"
#include "sz/container.hpp"
#include "sz/huffman_codec.hpp"
#include "sz/sections.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/huffman.hpp"

namespace wavesz {
namespace {

/// Open `bytes` as a two-section container and require decode_sections()
/// at budget `threads` to give the codes and plain unpredictable bytes
/// that the oracles give for the same section views.
void expect_sections_match_oracle(std::span<const std::uint8_t> bytes,
                                  int threads) {
  ByteReader r(bytes);
  const sz::ContainerHeader h = sz::read_header(r);
  const sz::Sections s = sz::read_sections(r, h);
  const sz::SectionsDecoded d =
      sz::decode_sections(s, sz::DecodeOptions{threads, 1});
  const auto code_plain = deflate::oracle::gunzip(s.codes);
  std::vector<std::uint16_t> codes;
  if (h.huffman) {
    codes = oracle::huffman_decode(code_plain);
  } else {
    ASSERT_EQ(code_plain.size(), 2 * h.point_count);
    ByteReader cr(code_plain);
    codes = cr.u16s(h.point_count);
  }
  EXPECT_EQ(d.codes, codes) << "threads " << threads;
  EXPECT_EQ(d.unpred, deflate::oracle::gunzip(s.unpred))
      << "threads " << threads;
}

/// The oracle's decode of the first `chunks` index chunks of `blob`: each
/// chunk walked from its recorded start bit, which must end on its
/// recorded end bit.
std::vector<std::uint16_t> oracle_chunks(std::span<const std::uint8_t> blob,
                                         const sz::CodeChunkIndex& idx,
                                         std::size_t chunks) {
  const oracle::HuffmanBlob b = oracle::parse_huffman_blob(blob);
  const oracle::CanonicalWalk walk(b.lengths);
  const auto& entries = idx.entries;
  std::vector<std::uint16_t> out(entries[chunks - 1].end_element);
  for (std::size_t k = 0; k < chunks; ++k) {
    const std::uint64_t start_bit = k == 0 ? 0 : entries[k - 1].end_bit;
    const std::uint64_t start = k == 0 ? 0 : entries[k - 1].end_element;
    EXPECT_EQ(oracle::huffman_run(walk, b.payload, start_bit,
                                  out.data() + start,
                                  entries[k].end_element - start),
              entries[k].end_bit)
        << "chunk " << k;
  }
  return out;
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
      EXPECT_EQ(deflate::gzip_decompress(gz), raw);
      EXPECT_EQ(deflate::oracle::gunzip(gz), raw);
      const auto c = deflate::compress(raw, level);
      EXPECT_EQ(deflate::decompress(c), raw);
      EXPECT_EQ(deflate::oracle::inflate(c), raw);
    }
  }
}

TEST(DecodeDifferential, EveryContainerVariant) {
  // The two-section containers: SZ-1.4 (H*G*, v2 index), GhostSZ (G*, v1)
  // and waveSZ G* and H*G*, serial and at budget 2 (batch inflate, chunk-
  // parallel H* decode). SZ-2 runs its gzip and H* streams through the
  // same decoders; its round trips are in sz2_test.
  const Dims dims = Dims::d2(48, 48);
  const auto grid = field(dims, 7);
  auto wcfg = wave::default_config();
  std::vector<std::vector<std::uint8_t>> containers = {
      sz::compress(grid, dims, sz::Config{}).bytes,
      ghost::compress(grid, dims, sz::Config{}).bytes,
      wave::compress(grid, dims, wcfg).bytes};
  wcfg.huffman = true;  // H*G*: customized Huffman ahead of gzip
  containers.push_back(wave::compress(grid, dims, wcfg).bytes);
  for (const auto& bytes : containers) {
    for (const int threads : {1, 2}) {
      expect_sections_match_oracle(bytes, threads);
    }
  }
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
    EXPECT_EQ(oracle::huffman_decode(blob), codes);
  }
}

TEST(DecodeDifferential, HuffmanBlobDeepTable) {
  // The hand-built blob whose two-level table has a subtable of every
  // depth 1..14, codes of every length 10..24 in its payload.
  const auto v = huffman_vectors::deep_blob();
  EXPECT_EQ(sz::huffman_decode(v.blob), v.symbols);
  EXPECT_EQ(oracle::huffman_decode(v.blob), v.symbols);
}

TEST(DecodeDifferential, HuffmanBlobDegenerateSingleSymbol) {
  // A one-symbol alphabet gets a length-1 code; both decoders must agree on
  // the degenerate table, for one code and for many repeats of it.
  for (const std::size_t n : {1u, 9999u}) {
    const std::vector<std::uint16_t> codes(n, 32768);
    const auto blob = sz::huffman_encode(codes);
    EXPECT_EQ(sz::huffman_decode(blob), codes);
    EXPECT_EQ(oracle::huffman_decode(blob), codes);
  }
}

TEST(DecodeDifferential, HuffmanBlobEmptyStream) {
  const std::vector<std::uint16_t> none;
  const auto blob = sz::huffman_encode(none);
  EXPECT_TRUE(sz::huffman_decode(blob).empty());
  EXPECT_TRUE(oracle::huffman_decode(blob).empty());
  // One symbol claimed, one payload byte, no code table: the framing
  // rejects it before any decoder is built.
  ByteWriter w;
  w.u32(0);
  w.u64(1);
  w.u64(8);
  w.u8(0);
  const auto forged = w.take();
  try {
    (void)sz::huffman_decode(forged);
    ADD_FAILURE() << "symbols without a code table decoded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("without a code table"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(oracle::huffman_decode(forged), Error);
}

// ------------------------------------------------------------ window edges
//
// The streams of huffman_vectors.hpp put codes on both sides of the decode
// window and at the coder's length limit; these tests cut them into chunks
// of every small size and compare the table decode with the oracle.

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
    EXPECT_EQ(sz::huffman_decode(blob), codes);
    EXPECT_EQ(oracle::huffman_decode(blob), codes);
    sz::CodeChunkIndex idx;
    const auto indexed = sz::huffman_encode_indexed(codes, 1, 32768, idx);
    EXPECT_EQ(oracle_chunks(indexed, idx, idx.entries.size()), codes);
    for (const int threads : {1, 4}) {
      EXPECT_EQ(sz::huffman_decode_indexed(indexed, idx, threads), codes);
    }
  }
}

TEST(WindowEdges, ContainersDecodeOnBothPaths) {
  // The same streams as whole SZ-1.4 v2 containers, serial and parallel.
  for (const auto& codes :
       {two_symbol_stream(), geometric_stream(), fibonacci_stream()}) {
    const auto bytes = huffman_vectors::container_with_codes(codes, 4096);
    for (const int threads : {1, 4}) {
      expect_sections_match_oracle(bytes, threads);
      EXPECT_EQ(sz::decompress(bytes, sz::DecodeOptions{threads, 1}).size(),
                codes.size());
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
      EXPECT_EQ(oracle_chunks(blob, idx, idx.entries.size()), codes)
          << "chunk " << chunk;
      for (const int threads : {1, 2}) {
        EXPECT_EQ(sz::huffman_decode_indexed(blob, idx, threads), codes)
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
  ASSERT_EQ(oracle_chunks(blob, idx, idx.entries.size()), codes);
  for (std::size_t k = 0; k < idx.entries.size(); ++k) {
    // The blob cut to the last byte chunk k needs, as a prefix inflate
    // leaves it, and a request that ends one symbol into the chunk.
    const auto& e = idx.entries[k];
    const std::vector<std::uint8_t> cut(
        blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(
                                         idx.payload_byte_offset +
                                         (e.end_bit + 7) / 8));
    const std::uint64_t symbols = k * 64 + 1;
    const auto out = sz::huffman_decode_prefix(cut, idx, symbols, 1);
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
  for (std::size_t n = 0; n < blob.size(); ++n) {
    const std::span<const std::uint8_t> cut(blob.data(), n);
    EXPECT_THROW(sz::huffman_decode(cut), Error) << n;
    EXPECT_THROW(sz::huffman_decode_indexed(cut, idx, 1), Error) << n;
    EXPECT_THROW(sz::huffman_decode_prefix(cut, idx, codes.size(), 1), Error)
        << n;
    EXPECT_THROW(oracle::huffman_decode(cut), Error) << n;
  }
}

TEST(WindowEdges, ForgedCountRunsOffThePayloadOnBothPaths) {
  // A symbol count forged up to the payload's bit count passes the header
  // checks, so both decoders run off the end of the payload: the table loop
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
  EXPECT_THROW(sz::huffman_decode(blob), Error);
  EXPECT_THROW(oracle::huffman_decode(blob), Error);
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

}  // namespace
}  // namespace wavesz
