// Unit and property tests for the from-scratch DEFLATE/gzip substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "deflate/deflate.hpp"
#include "deflate/deflate_tables.hpp"
#include "deflate/lz77.hpp"
#include "deflate/parallel.hpp"
#include "deflate_oracle.hpp"
#include "deflate_vectors.hpp"
#include "golden_pin.hpp"
#include "sz/config.hpp"
#include "sz/huffman_codec.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/huffman.hpp"

namespace wavesz::deflate {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

// ------------------------------------------------------------------ LZ77

TEST(Lz77, LiteralOnlyForShortInput) {
  const auto tokens = tokenize(bytes_of("ab"), Level::Best);
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].length, 0);
  EXPECT_EQ(tokens[0].value, 'a');
}

TEST(Lz77, FindsRepetition) {
  const auto input = bytes_of("abcabcabcabcabcabc");
  const auto tokens = tokenize(input, Level::Best);
  const bool has_match = std::any_of(
      tokens.begin(), tokens.end(),
      [](const Token& t) { return t.length >= kMinMatch; });
  EXPECT_TRUE(has_match);
  EXPECT_EQ(expand(tokens), input);
}

TEST(Lz77, OverlappingMatchRunLengthEncoding) {
  // "aaaa..." must compress via distance-1 matches (RLE through LZ77).
  std::vector<std::uint8_t> input(300, 'a');
  const auto tokens = tokenize(input, Level::Best);
  EXPECT_LT(tokens.size(), 10u);
  EXPECT_EQ(expand(tokens), input);
}

TEST(Lz77, ExpandRejectsBadDistance) {
  std::vector<Token> bad{{5, 3}};  // distance 3 with empty history
  EXPECT_THROW(expand(bad), Error);
}

TEST(Lz77, EmptyInput) {
  EXPECT_TRUE(tokenize({}, Level::Fast).empty());
  EXPECT_TRUE(expand({}).empty());
}

class Lz77RoundTrip
    : public ::testing::TestWithParam<std::tuple<std::size_t, Level>> {};

TEST_P(Lz77RoundTrip, ExpandInvertsTokenize) {
  const auto [size, level] = GetParam();
  std::mt19937 rng(static_cast<unsigned>(size));
  std::vector<std::uint8_t> input(size);
  // Mix of compressible structure and noise.
  for (std::size_t i = 0; i < size; ++i) {
    input[i] = (i % 7 == 0) ? static_cast<std::uint8_t>(rng())
                            : static_cast<std::uint8_t>(i / 16 % 251);
  }
  const auto tokens = tokenize(input, level);
  EXPECT_EQ(expand(tokens), input);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndLevels, Lz77RoundTrip,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 257, 258, 259, 4096,
                                         100000),
                       ::testing::Values(Level::Fast, Level::Best)));

// ---------------------------------------------------------------- tables

TEST(Tables, LengthCodeBoundaries) {
  EXPECT_EQ(length_code(3), 0);
  EXPECT_EQ(length_code(10), 7);
  EXPECT_EQ(length_code(11), 8);
  EXPECT_EQ(length_code(257), 27);
  EXPECT_EQ(length_code(258), 28);
}

TEST(Tables, DistanceCodeBoundaries) {
  EXPECT_EQ(distance_code(1), 0);
  EXPECT_EQ(distance_code(4), 3);
  EXPECT_EQ(distance_code(5), 4);
  EXPECT_EQ(distance_code(24577), 29);
  EXPECT_EQ(distance_code(32768), 29);
}

TEST(Tables, EveryLengthMapsInsideItsCodeRange) {
  for (int len = 3; len <= 258; ++len) {
    const int c = length_code(len);
    const int base = kLengthBase[static_cast<std::size_t>(c)];
    const int extra = kLengthExtra[static_cast<std::size_t>(c)];
    EXPECT_GE(len, base);
    EXPECT_LT(len - base, 1 << extra);
  }
}

TEST(Tables, EveryDistanceMapsInsideItsCodeRange) {
  // Every distance, so the lookup table's bucket edges (256 -> 257,
  // 384 -> 385, ...) are all walked.
  for (int dist = 1; dist <= 32768; ++dist) {
    const int c = distance_code(dist);
    const int base = kDistBase[static_cast<std::size_t>(c)];
    const int extra = kDistExtra[static_cast<std::size_t>(c)];
    EXPECT_GE(dist, base);
    EXPECT_LT(dist - base, 1 << extra);
  }
}

// --------------------------------------------------------------- deflate

TEST(Deflate, EmptyInputRoundTrips) {
  const auto compressed = compress({}, Level::Fast);
  EXPECT_FALSE(compressed.empty());
  EXPECT_TRUE(decompress(compressed).empty());
}

TEST(Deflate, TextRoundTripsBothLevels) {
  const auto input = bytes_of(
      "It was the best of times, it was the worst of times, it was the age "
      "of wisdom, it was the age of foolishness, it was the epoch of belief");
  for (auto level : {Level::Fast, Level::Best}) {
    const auto c = compress(input, level);
    EXPECT_EQ(decompress(c), input);
  }
}

TEST(Deflate, HighlyRepetitiveCompressesHard) {
  std::vector<std::uint8_t> input(100000, 'x');
  const auto c = compress(input, Level::Best);
  EXPECT_LT(c.size(), 300u);
  EXPECT_EQ(decompress(c), input);
}

TEST(Deflate, IncompressibleFallsBackToStored) {
  std::mt19937 rng(99);
  std::vector<std::uint8_t> input(65536 + 1000);
  for (auto& b : input) b = static_cast<std::uint8_t>(rng());
  const auto c = compress(input, Level::Best);
  // Stored blocks add ~5 bytes per 64 KiB; anything near 1x is correct.
  EXPECT_LT(c.size(), input.size() + 64);
  EXPECT_EQ(decompress(c), input);
}

TEST(Deflate, MultiBlockInputRoundTrips) {
  // > 65536 tokens forces several blocks with independent Huffman tables.
  std::mt19937 rng(5);
  std::vector<std::uint8_t> input(400000);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<std::uint8_t>((i / 100) % 17 + (rng() % 3));
  }
  const auto c = compress(input, Level::Fast);
  EXPECT_LT(c.size(), input.size() / 2);
  EXPECT_EQ(decompress(c), input);
}

TEST(Deflate, DecompressRejectsReservedBlockType) {
  // Bits: BFINAL=1, BTYPE=11 (reserved).
  const std::vector<std::uint8_t> bad{0x07};
  EXPECT_THROW(decompress(bad), Error);
}

TEST(Deflate, DecompressRejectsStoredLenMismatch) {
  // BFINAL=1, BTYPE=00, then LEN=1, NLEN=0 (should be ~LEN).
  const std::vector<std::uint8_t> bad{0x01, 0x01, 0x00, 0x00, 0x00, 0x41};
  EXPECT_THROW(decompress(bad), Error);
}

TEST(Deflate, DecompressRejectsTruncatedStream) {
  const auto c = compress(bytes_of("hello world hello world"), Level::Fast);
  const std::vector<std::uint8_t> cut(c.begin(), c.begin() + c.size() / 2);
  EXPECT_THROW(decompress(cut), Error);
}

// --------------------------------------- table decode vs the oracle walk

TEST(Deflate, ReferenceDecoderMatchesFastPath) {
  std::mt19937 rng(2024);
  for (const std::size_t size : {0u, 1u, 300u, 65537u, 200000u}) {
    std::vector<std::uint8_t> input(size);
    for (std::size_t i = 0; i < size; ++i) {
      input[i] = (i % 5 == 0) ? static_cast<std::uint8_t>(rng())
                              : static_cast<std::uint8_t>((i / 64) % 23);
    }
    for (auto level : {Level::Fast, Level::Best}) {
      const auto c = compress(input, level);
      EXPECT_EQ(decompress(c), input);
      EXPECT_EQ(oracle::inflate(c), input);
      const auto g = gzip_compress(input, level);
      EXPECT_EQ(gzip_decompress(g), input);
      EXPECT_EQ(oracle::gunzip(g), input);
    }
  }
}

TEST(Deflate, BothPathsRejectTheSameCorruptStreams) {
  // The reserved-BTYPE, stored-LEN-mismatch, and truncation cases above,
  // through the oracle inflater too, so both keep identical failure
  // behaviour.
  const std::vector<std::uint8_t> reserved{0x07};
  const std::vector<std::uint8_t> mismatch{0x01, 0x01, 0x00, 0x00, 0x00, 0x41};
  const auto c = compress(bytes_of("hello world hello world"), Level::Fast);
  const std::vector<std::uint8_t> cut(c.begin(), c.begin() + c.size() / 2);
  for (const auto& bad : {reserved, mismatch, cut}) {
    EXPECT_THROW(decompress(bad), Error);
    EXPECT_THROW(oracle::inflate(bad), Error);
  }
}

class DeflateRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::size_t, Level, int>> {};

TEST_P(DeflateRoundTrip, LosslessAcrossShapes) {
  const auto [size, level, flavour] = GetParam();
  std::mt19937 rng(static_cast<unsigned>(size * 3 + flavour));
  std::vector<std::uint8_t> input(size);
  switch (flavour) {
    case 0:  // pure noise
      for (auto& b : input) b = static_cast<std::uint8_t>(rng());
      break;
    case 1:  // small alphabet (quantization-code-like)
      for (auto& b : input) {
        b = static_cast<std::uint8_t>(128 + (rng() % 5) - 2);
      }
      break;
    case 2:  // long runs
      for (std::size_t i = 0; i < size; ++i) {
        input[i] = static_cast<std::uint8_t>((i / 512) % 7);
      }
      break;
  }
  const auto c = compress(input, level);
  EXPECT_EQ(decompress(c), input);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, DeflateRoundTrip,
    ::testing::Combine(::testing::Values(1, 100, 65535, 65536, 65537,
                                         200001),
                       ::testing::Values(Level::Fast, Level::Best),
                       ::testing::Values(0, 1, 2)));

TEST(Deflate, MaxLengthMatchesRoundTrip) {
  // A run long enough to force 258-byte matches (length code 285).
  std::vector<std::uint8_t> input(10'000, 'q');
  input.push_back('z');
  const auto c = compress(input, Level::Best);
  EXPECT_EQ(decompress(c), input);
}

TEST(Deflate, FullWindowDistanceRoundTrip) {
  // A repeat exactly 32768 bytes back exercises the maximum distance code.
  std::mt19937 rng(321);
  std::vector<std::uint8_t> head(32768);
  for (auto& b : head) b = static_cast<std::uint8_t>(rng());
  std::vector<std::uint8_t> input(head);
  input.insert(input.end(), head.begin(), head.begin() + 300);
  const auto c = compress(input, Level::Best);
  EXPECT_LT(c.size(), input.size());  // the tail must match the head
  EXPECT_EQ(decompress(c), input);
}

TEST(Deflate, JustBeyondWindowCannotMatch) {
  // The same repeat one byte beyond the window must still round-trip
  // (stored/literal), proving the matcher respects the 32 KiB horizon.
  std::mt19937 rng(322);
  std::vector<std::uint8_t> head(32769);
  for (auto& b : head) b = static_cast<std::uint8_t>(rng());
  std::vector<std::uint8_t> input(head);
  input.insert(input.end(), head.begin(), head.begin() + 300);
  EXPECT_EQ(decompress(compress(input, Level::Best)), input);
}

// ------------------------------------------------------------------ gzip

TEST(Gzip, RoundTripAndHeaderBytes) {
  const auto input = bytes_of("scientific data compression");
  const auto g = gzip_compress(input, Level::Fast);
  ASSERT_GE(g.size(), 18u);
  EXPECT_EQ(g[0], 0x1f);
  EXPECT_EQ(g[1], 0x8b);
  EXPECT_EQ(g[2], 8);  // deflate
  EXPECT_EQ(gzip_decompress(g), input);
}

TEST(Gzip, XflReflectsLevel) {
  const auto fast = gzip_compress(bytes_of("x"), Level::Fast);
  const auto best = gzip_compress(bytes_of("x"), Level::Best);
  EXPECT_EQ(fast[8], 4);
  EXPECT_EQ(best[8], 2);
}

TEST(Gzip, CorruptedPayloadFailsCrc) {
  const auto input = bytes_of("payload payload payload payload");
  auto g = gzip_compress(input, Level::Best);
  g[12] ^= 0x01;  // flip a bit inside the deflate body
  EXPECT_THROW(gzip_decompress(g), Error);
}

TEST(Gzip, CorruptedIsizeRejected) {
  auto g = gzip_compress(bytes_of("abc"), Level::Fast);
  g[g.size() - 1] ^= 0xFF;
  EXPECT_THROW(gzip_decompress(g), Error);
}

TEST(Gzip, BadMagicRejected) {
  auto g = gzip_compress(bytes_of("abc"), Level::Fast);
  g[0] = 0x00;
  EXPECT_THROW(gzip_decompress(g), Error);
}

TEST(Gzip, TooShortRejected) {
  const std::vector<std::uint8_t> tiny{0x1f, 0x8b, 8};
  EXPECT_THROW(gzip_decompress(tiny), Error);
}

TEST(Gzip, EmptyPayloadRoundTrips) {
  const auto g = gzip_compress({}, Level::Fast);
  EXPECT_TRUE(gzip_decompress(g).empty());
}

// -------------------------------------------------------- parallel chunks

std::vector<std::uint8_t> patterned(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = (i % 6 == 0) ? static_cast<std::uint8_t>(rng())
                        : static_cast<std::uint8_t>((i / 48) % 19);
  }
  return v;
}

TEST(ParallelDeflate, SingleThreadIsBitIdenticalToSerial) {
  const auto input = patterned(300000, 1);
  for (auto level : {Level::Fast, Level::Best}) {
    const ParallelOptions one{64 * 1024, /*threads=*/1};
    EXPECT_EQ(compress_parallel(input, level, one), compress(input, level));
    EXPECT_EQ(gzip_compress_parallel(input, level, one),
              gzip_compress(input, level));
  }
}

TEST(ParallelDeflate, EmptyInputRoundTrips) {
  const ParallelOptions opts{4096, 4};
  const auto g = gzip_compress_parallel({}, Level::Fast, opts);
  EXPECT_TRUE(gzip_decompress(g).empty());
  // One empty chunk on the parallel path is the serial member, byte for
  // byte: an empty section deflates the same at every thread budget.
  EXPECT_EQ(g, gzip_compress({}, Level::Fast));
  EXPECT_TRUE(decompress(compress_parallel({}, Level::Best, opts)).empty());
}

class ParallelChunkBoundary
    : public ::testing::TestWithParam<std::tuple<std::size_t, Level>> {};

TEST_P(ParallelChunkBoundary, RoundTripsThroughSerialInflate) {
  const auto [size, level] = GetParam();
  constexpr std::size_t kChunk = 4096;
  const auto input = patterned(size, static_cast<unsigned>(size + 7));
  const ParallelOptions opts{kChunk, 4};
  const auto raw = compress_parallel(input, level, opts);
  EXPECT_EQ(decompress(raw), input);
  const auto g = gzip_compress_parallel(input, level, opts);
  EXPECT_EQ(gzip_decompress(g), input);
}

INSTANTIATE_TEST_SUITE_P(
    BoundarySizes, ParallelChunkBoundary,
    ::testing::Combine(
        // 0/1/chunk-1/chunk/chunk+1 plus multi-chunk interior and seam sizes
        ::testing::Values(0, 1, 4095, 4096, 4097, 8192, 12289, 100000),
        ::testing::Values(Level::Fast, Level::Best)));

TEST(ParallelDeflate, MoreThreadsThanChunks) {
  const auto input = patterned(10000, 3);  // 3 chunks of 4 KiB
  const ParallelOptions opts{4096, 16};
  const auto g = gzip_compress_parallel(input, Level::Best, opts);
  EXPECT_EQ(gzip_decompress(g), input);
}

TEST(ParallelDeflate, IncompressibleRandomStaysNearRaw) {
  std::mt19937 rng(77);
  std::vector<std::uint8_t> input(1 << 20);
  for (auto& b : input) b = static_cast<std::uint8_t>(rng());
  const ParallelOptions opts{128 * 1024, 4};
  const auto g = gzip_compress_parallel(input, Level::Best, opts);
  // Stored blocks + per-chunk sync markers: overhead stays tiny.
  EXPECT_LT(g.size(), input.size() + 1024);
  EXPECT_EQ(gzip_decompress(g), input);
}

TEST(ParallelDeflate, RatioWithinTwoPercentOfSerial) {
  const auto input = patterned(2 << 20, 9);
  for (auto level : {Level::Fast, Level::Best}) {
    const auto serial = compress(input, level);
    const ParallelOptions opts{256 * 1024, 4};
    const auto par = compress_parallel(input, level, opts);
    EXPECT_LE(static_cast<double>(par.size()),
              static_cast<double>(serial.size()) * 1.02);
    EXPECT_EQ(decompress(par), input);
  }
}

TEST(ParallelDeflate, PrimedChunksStayNearSerialRatio) {
  // Repetitive data whose matches cross chunk boundaries: each chunk's
  // matcher is primed with the previous 32 KiB, so the 17 chunks cost only
  // their block headers and sync markers over the serial stream. Without
  // priming every chunk re-sends the motif as literals (about 9x serial).
  std::vector<std::uint8_t> input;
  const auto motif = patterned(1500, 4);
  while (input.size() < 64 * 1024) {
    input.insert(input.end(), motif.begin(), motif.end());
  }
  const ParallelOptions opts{4096, 4};
  const auto serial = compress(input, Level::Best);
  const auto chunked = compress_parallel(input, Level::Best, opts);
  EXPECT_LT(chunked.size(), 2 * serial.size());
  EXPECT_EQ(decompress(chunked), input);
}

TEST(ParallelDeflate, TokenizeWithDictionaryFindsCrossBoundaryMatches) {
  // The second half repeats the first: with the first half as dictionary,
  // the tokenizer should cover the live half almost entirely with matches.
  const auto half = patterned(2000, 8);
  std::vector<std::uint8_t> full(half);
  full.insert(full.end(), half.begin(), half.end());
  const auto tokens = tokenize(full, Level::Best, half.size());
  std::size_t covered = 0;
  for (const Token& t : tokens) covered += (t.length == 0) ? 1 : t.length;
  EXPECT_EQ(covered, half.size());  // tokens describe only the live half
  const auto undicted = tokenize(half, Level::Best);
  EXPECT_LT(tokens.size(), undicted.size() / 2);
}

TEST(PrefixInflate, StopsEarlyOnSyncFlushedStreams) {
  // force_chunking puts a byte-aligned block boundary every chunk_bytes of
  // input even on one thread; a bounded inflate should stop within one
  // chunk of the requested output instead of reading the whole member.
  const auto input = patterned(200000, 3);
  ParallelOptions opts{4096, 1};
  opts.force_chunking = true;
  const auto gz = gzip_compress_parallel(input, Level::Fast, opts);

  const auto run = gzip_decompress_prefix(gz, 10000);
  EXPECT_FALSE(run.complete);
  ASSERT_GE(run.bytes.size(), 10000u);
  EXPECT_LE(run.bytes.size(), 10000u + opts.chunk_bytes);
  EXPECT_LT(run.compressed_consumed, gz.size());
  EXPECT_TRUE(std::equal(run.bytes.begin(), run.bytes.end(), input.begin()));
}

TEST(PrefixInflate, FullRunMatchesDecompress) {
  const auto input = patterned(60000, 4);
  const auto gz = gzip_compress(input, Level::Best);
  const auto run = gzip_decompress_prefix(gz, input.size());
  EXPECT_TRUE(run.complete);
  EXPECT_EQ(run.bytes, input);
  EXPECT_EQ(run.compressed_consumed, gz.size());
}

TEST(PrefixInflate, SingleBlockStreamCannotStopEarly) {
  // The serial encoder emits one block per 64 Ki tokens, so a small member
  // is a single block and the block-granular stop condition only fires at
  // the end — the result must still be correct, just not partial.
  const auto input = patterned(30000, 5);
  const auto gz = gzip_compress(input, Level::Fast);
  const auto run = gzip_decompress_prefix(gz, 100);
  EXPECT_TRUE(run.complete);
  EXPECT_EQ(run.bytes, input);
}

TEST(PrefixInflate, IncompleteRunSkipsTrailerCheck) {
  // The gzip trailer covers the whole member; a run that stops early never
  // decodes the tail, so a corrupt trailer must only fail complete runs.
  const auto input = patterned(200000, 6);
  ParallelOptions opts{4096, 1};
  opts.force_chunking = true;
  auto gz = gzip_compress_parallel(input, Level::Fast, opts);
  gz[gz.size() - 5] ^= 0x40;  // flip a CRC-32 trailer bit

  const auto run = gzip_decompress_prefix(gz, 10000);
  EXPECT_FALSE(run.complete);
  EXPECT_TRUE(std::equal(run.bytes.begin(), run.bytes.end(), input.begin()));
  EXPECT_THROW(gzip_decompress_prefix(gz, input.size()), Error);
  EXPECT_THROW(gzip_decompress(gz), Error);
}

TEST(PrefixInflate, RawDeflatePrefix) {
  const auto input = patterned(100000, 7);
  ParallelOptions opts{8192, 1};
  opts.force_chunking = true;
  const auto body = compress_parallel(input, Level::Fast, opts);
  const auto run = decompress_prefix(body, 20000);
  EXPECT_FALSE(run.complete);
  ASSERT_GE(run.bytes.size(), 20000u);
  EXPECT_TRUE(std::equal(run.bytes.begin(), run.bytes.end(), input.begin()));
  const auto full = decompress_prefix(body, input.size());
  EXPECT_TRUE(full.complete);
  EXPECT_EQ(full.bytes, input);
}

TEST(ParallelDeflate, BatchDecompressMatchesSerial) {
  const auto a = patterned(120000, 9);
  const auto b = patterned(500, 10);
  const std::vector<std::uint8_t> c;
  const auto ga = gzip_compress(a, Level::Fast);
  const auto gb = gzip_compress(b, Level::Best);
  const auto gc = gzip_compress(c, Level::Fast);
  const std::span<const std::uint8_t> members[] = {ga, gb, gc};
  for (int threads : {1, 4}) {
    const auto out = gzip_decompress_batch(members, threads);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], a);
    EXPECT_EQ(out[1], b);
    EXPECT_TRUE(out[2].empty());
  }
}

TEST(ParallelDeflate, BatchDecompressPropagatesMemberError) {
  const auto a = patterned(50000, 11);
  auto bad = gzip_compress(a, Level::Fast);
  bad[bad.size() - 2] ^= 0x01;  // corrupt ISIZE
  const auto good = gzip_compress(a, Level::Fast);
  const std::span<const std::uint8_t> members[] = {good, bad, good, good};
  EXPECT_THROW(gzip_decompress_batch(members, 4), Error);
  EXPECT_THROW(gzip_decompress_batch(members, 1), Error);
}

TEST(Gzip, FastVersusBestTradeoff) {
  // On structured data, Best must never be (meaningfully) worse than Fast.
  std::vector<std::uint8_t> input(200000);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<std::uint8_t>((i * i / 1000) % 31);
  }
  const auto fast = gzip_compress(input, Level::Fast);
  const auto best = gzip_compress(input, Level::Best);
  EXPECT_LE(best.size(), fast.size() + 64);
  EXPECT_EQ(gzip_decompress(fast), input);
  EXPECT_EQ(gzip_decompress(best), input);
}

// --------------------------------------- header limits and gzip framing

TEST(Deflate, DynamicHeaderRejectsHlitAbove286) {
  // RFC 1951 §3.2.7: HLIT sends 257..286 lit/len code lengths. The 5-bit
  // field can say 287 or 288; zlib rejects those as "too many length or
  // distance symbols", and so must both decode paths.
  const std::vector<std::uint8_t> a{'A'};
  const auto ok = vectors::dynamic_block_with_hlit(286);
  EXPECT_EQ(decompress(ok), a);
  EXPECT_EQ(oracle::inflate(ok), a);
  for (const int hlit : {287, 288}) {
    const auto bad = vectors::dynamic_block_with_hlit(hlit);
    EXPECT_THROW(decompress(bad), Error) << "HLIT " << hlit;
    EXPECT_THROW(oracle::inflate(bad), Error) << "HLIT " << hlit;
  }
}

// ------------------------------------------- admission of code lengths
//
// A dynamic header is admitted as zlib's inflate_table admits it: an empty
// distance code (a literal-only block) decodes, a match under it fails at
// its missing distance code, a lit/len code of one 1-bit code decodes, and
// over-subscribed or otherwise incomplete length sets are rejected as their
// header is read. interop_test.cpp checks that gzip(1) gives the same
// verdicts.

std::vector<std::uint8_t> literal_only_plain() {
  std::vector<std::uint8_t> plain(5000);
  std::mt19937 rng(1951);
  for (auto& b : plain) b = static_cast<std::uint8_t>(rng() % 255);
  return plain;
}

TEST(Deflate, LiteralOnlyBlockWithEmptyDistanceCodeDecodes) {
  const auto plain = literal_only_plain();
  const auto block = vectors::literal_only_block(plain);
  EXPECT_EQ(decompress(block), plain);
  EXPECT_EQ(oracle::inflate(block), plain);
  EXPECT_EQ(gzip_decompress(vectors::gzip_member(block, plain)), plain);
  const auto run = decompress_prefix(block, 1);
  EXPECT_TRUE(run.complete);
  EXPECT_EQ(run.bytes, plain);
}

TEST(Deflate, MatchUnderEmptyDistanceCodeThrows) {
  const auto block = vectors::match_without_distance_code();
  try {
    (void)decompress(block);
    ADD_FAILURE() << "a match without a distance code decoded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("invalid Huffman code"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(oracle::inflate(block), Error);
}

TEST(Deflate, OversubscribedLengthSetsAreRejected) {
  // Over-subscribed lit/len and code-length codes whose every sent code an
  // unchecked bit walk would read: both streams once decoded, to "ABAB..."
  // and to the text of kOversubscribedClcText.
  for (const auto& block : {vectors::oversubscribed_litlen_block(),
                            vectors::oversubscribed_clc_block()}) {
    try {
      (void)decompress(block);
      ADD_FAILURE() << "an over-subscribed length set decoded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("over-subscribed Huffman code"),
                std::string::npos)
          << e.what();
    }
    EXPECT_THROW(oracle::inflate(block), Error);
    EXPECT_THROW(decompress_prefix(block, 1), Error);
  }
}

TEST(Deflate, IncompleteLengthSetsAreRejected) {
  // An incomplete lit/len code and an incomplete code-length code, each of
  // which a table with invalid unused slots decodes, to "AAAAA" and to the
  // text of kIncompleteClcText.
  const struct {
    std::vector<std::uint8_t> block;
    const char* message;
  } cases[] = {
      {vectors::incomplete_litlen_block(), "incomplete literal/length code"},
      {vectors::incomplete_clc_block(), "incomplete code-length code"},
  };
  for (const auto& c : cases) {
    try {
      (void)decompress(c.block);
      ADD_FAILURE() << "an incomplete length set decoded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos)
          << e.what();
    }
    EXPECT_THROW(oracle::inflate(c.block), Error) << c.message;
    EXPECT_THROW(decompress_prefix(c.block, 1), Error) << c.message;
  }
}

TEST(Deflate, LoneOneBitLitLenCodeDecodes) {
  const auto block = vectors::lone_end_of_block_block();
  EXPECT_TRUE(decompress(block).empty());
  EXPECT_TRUE(oracle::inflate(block).empty());
}

TEST(Deflate, FixedBlocksRejectReservedSymbols) {
  // Length symbols 286 and 287 and distance codes 30 and 31 take part in
  // the fixed codes, so their slots exist, and decode as invalid.
  for (const auto& [length_symbol, dist_code] :
       vectors::kReservedFixedSymbols) {
    const auto block =
        vectors::reserved_fixed_symbol_block(length_symbol, dist_code);
    const std::string what = "length symbol " + std::to_string(length_symbol) +
                             ", distance code " + std::to_string(dist_code);
    try {
      (void)decompress(block);
      ADD_FAILURE() << what << " decoded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("invalid Huffman code"),
                std::string::npos)
          << what << ": " << e.what();
    }
    EXPECT_THROW(oracle::inflate(block), Error) << what;
  }
  // The same block with a legal match decodes, to "abc" and a 3-byte match
  // at distance 1.
  EXPECT_EQ(decompress(vectors::reserved_fixed_symbol_block(257, 0)),
            bytes_of("abcccc"));
}

TEST(Gzip, RejectsBytesBetweenStreamAndTrailer) {
  const auto input = bytes_of("a gap before the trailer, a gap before it");
  const auto member = gzip_compress(input, Level::Fast);
  const auto padded = vectors::with_gap_before_trailer(member, 3);
  EXPECT_EQ(gzip_decompress(member), input);
  EXPECT_EQ(oracle::gunzip(member), input);
  EXPECT_THROW(gzip_decompress(padded), Error);
  EXPECT_THROW(oracle::gunzip(padded), Error);
  // A single-block member completes whatever the requested prefix.
  EXPECT_THROW(gzip_decompress_prefix(padded, 1), Error);
  EXPECT_THROW(gzip_decompress_prefix(padded, input.size()), Error);
}

TEST(Gzip, EveryEncoderMemberEndsAtItsTrailer) {
  for (const std::size_t size : {0u, 1u, 5000u, 100000u}) {
    const auto input = patterned(size, static_cast<unsigned>(size + 11));
    for (const Level level : {Level::Fast, Level::Best}) {
      std::vector<std::vector<std::uint8_t>> members = {
          gzip_compress(input, level)};
      for (const int threads : {1, 2, 4}) {
        ParallelOptions opts{4096, threads};
        opts.force_chunking = true;  // a sync-flush marker every chunk
        members.push_back(gzip_compress_parallel(input, level, opts));
      }
      for (const auto& member : members) {
        EXPECT_EQ(gzip_decompress(member), input) << size;
        const auto run =
            gzip_decompress_prefix(member, static_cast<std::size_t>(-1));
        EXPECT_TRUE(run.complete) << size;
        EXPECT_EQ(run.bytes, input) << size;
        EXPECT_EQ(run.compressed_consumed, member.size()) << size;
      }
    }
  }
}

// --------------------------------- table loop vs the oracle: edge shapes

Token literal_token(int byte) {
  Token t;
  t.value = static_cast<std::uint8_t>(byte);
  return t;
}

Token match_token(int length, int distance) {
  Token t;
  t.length = static_cast<std::uint16_t>(length);
  t.value = static_cast<std::uint16_t>(distance);
  return t;
}

/// Code `tokens` as one Huffman-coded final block and require the inflater
/// and the oracle to reproduce their expansion.
void expect_paths_agree(const std::vector<Token>& tokens,
                        const std::string& what) {
  const auto plain = expand(tokens);
  BitWriterLSB bw;
  detail::deflate_blocks(bw, plain, tokens, /*mark_final=*/true);
  const auto stream = bw.take();
  ASSERT_NE((stream[0] >> 1) & 3, 0b00) << what << ": stored, not coded";
  EXPECT_EQ(decompress(stream), plain) << what;
  EXPECT_EQ(oracle::inflate(stream), plain) << what;
}

TEST(InflateEdges, OverlappingMatchesAtEveryShortDistance) {
  // Distances 1..7 store a pattern word every whole number of periods;
  // 8..16 copy whole words whose source overlaps the bytes just written.
  for (int distance = 1; distance <= 16; ++distance) {
    std::vector<Token> tokens;
    for (int i = 0; i < distance; ++i) tokens.push_back(literal_token('a' + i));
    for (int length = kMinMatch; length <= kMaxMatch; ++length) {
      tokens.push_back(match_token(length, distance));
      tokens.push_back(literal_token(length));
    }
    expect_paths_agree(tokens, "distance " + std::to_string(distance));
  }
}

TEST(InflateEdges, MatchesAtTheFullWindowDistance) {
  std::mt19937 rng(32768);
  std::vector<Token> tokens;
  // A 16-letter alphabet, so the window codes cheaper than a stored block.
  for (std::size_t i = 0; i < kWindowSize; ++i) {
    tokens.push_back(literal_token('a' + static_cast<int>(rng() % 16)));
  }
  for (const int length : {3, 7, 8, 9, 15, 16, 17, 100, 257, 258}) {
    tokens.push_back(match_token(length, 32768));
  }
  expect_paths_agree(tokens, "distance 32768");
}

TEST(InflateEdges, MatchEndsAtEveryOffsetAroundOutputGrowth) {
  // The fast loop grows its output buffer when a symbol starts with fewer
  // than 258 + 16 bytes of room left. Shifting a run of 258-byte matches
  // by every phase 0..257 ends a match at every output offset up to 36000
  // (past the second growth), so some match leaves exactly that room and
  // another one byte less — for pattern (distance 1) and word (distance 9)
  // copies, whose 8-byte stores run past the match into that room.
  for (const int distance : {1, 9}) {
    for (int phase = 0; phase < kMaxMatch; ++phase) {
      std::vector<Token> tokens;
      std::size_t produced = 0;
      for (int i = 0; i < distance + phase; ++i, ++produced) {
        tokens.push_back(literal_token('a' + i % 7));
      }
      for (; produced < 36000; produced += kMaxMatch) {
        tokens.push_back(match_token(kMaxMatch, distance));
      }
      expect_paths_agree(tokens, "distance " + std::to_string(distance) +
                                     " phase " + std::to_string(phase));
    }
  }
}

/// A stored block (noise), a fixed-code block (a short phrase) and a
/// dynamic-code block (structured bytes) in one stream, the last final.
struct MixedStream {
  std::vector<std::uint8_t> body;
  std::vector<std::uint8_t> plain;
};

MixedStream mixed_block_stream() {
  std::mt19937 rng(1951);
  std::vector<std::uint8_t> noise(300);
  for (auto& b : noise) b = static_cast<std::uint8_t>(rng() >> 24);
  const std::vector<std::vector<std::uint8_t>> parts = {
      noise, bytes_of("fixed, fixed, fixed codes"), patterned(3000, 12)};
  BitWriterLSB bw;
  MixedStream m;
  std::vector<std::size_t> block_starts;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    block_starts.push_back(bw.bit_count());
    detail::deflate_blocks(bw, parts[i], tokenize(parts[i], Level::Fast),
                           /*mark_final=*/i + 1 == parts.size());
    m.plain.insert(m.plain.end(), parts[i].begin(), parts[i].end());
  }
  m.body = bw.take();
  // BTYPE is the two bits after each block's BFINAL: 00, 01, 10.
  for (std::size_t i = 0; i < block_starts.size(); ++i) {
    int type = 0;
    for (int b = 0; b < 2; ++b) {
      const std::size_t bit = block_starts[i] + 1 + static_cast<std::size_t>(b);
      type |= ((m.body[bit / 8] >> (bit % 8)) & 1) << b;
    }
    EXPECT_EQ(type, static_cast<int>(i)) << "block " << i;
  }
  return m;
}

TEST(InflateEdges, StoredFixedAndDynamicBlocksInOneMember) {
  const MixedStream m = mixed_block_stream();
  EXPECT_EQ(decompress(m.body), m.plain);
  EXPECT_EQ(oracle::inflate(m.body), m.plain);
  const auto member = vectors::gzip_member(m.body, m.plain);
  EXPECT_EQ(gzip_decompress(member), m.plain);
  EXPECT_EQ(oracle::gunzip(member), m.plain);
}

TEST(InflateEdges, EveryStrictPrefixOfAMultiBlockMemberThrows) {
  // The final block's last code ends in the last byte, so every cut drops
  // bits a decoder must read; the fast loop must not finish on the zeros
  // it reads past the end.
  const MixedStream m = mixed_block_stream();
  const auto member = vectors::gzip_member(m.body, m.plain);
  for (std::size_t cut = 0; cut < m.body.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(m.body.data(), cut);
    EXPECT_THROW(decompress(prefix), Error) << "body cut at " << cut;
    EXPECT_THROW(oracle::inflate(prefix), Error) << "body cut at " << cut;
  }
  for (std::size_t cut = 0; cut < member.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(member.data(), cut);
    EXPECT_THROW(gzip_decompress(prefix), Error) << "member cut at " << cut;
    EXPECT_THROW(oracle::gunzip(prefix), Error) << "member cut at " << cut;
  }
}

// ---------------------------------------------------------- golden bytes
//
// Exact size and CRC-32 of encoder outputs, so any change to tokens, block
// choice or bit emission shows up across commits. Inputs use integer
// arithmetic only (raw mt19937 words, no <random> distributions, no libm):
// no compiler or libm difference can move a pin.

/// Little-endian u16 quantization codes random-walking around the radius
/// 32768, with a sprinkle of code 0 (unpredictable): the shape of a G*
/// code section.
std::vector<std::uint8_t> golden_code_section(std::size_t symbols) {
  std::mt19937 rng(2020);
  std::vector<std::uint8_t> out;
  out.reserve(2 * symbols);
  int offset = 0;
  for (std::size_t i = 0; i < symbols; ++i) {
    const std::uint32_t r = rng();
    offset = std::clamp(offset + static_cast<int>(r % 5) - 2, -24, 24);
    const auto code = (r >> 16) % 499 == 0
                          ? std::uint16_t{0}
                          : static_cast<std::uint16_t>(32768 + offset);
    out.push_back(static_cast<std::uint8_t>(code & 0xff));
    out.push_back(static_cast<std::uint8_t>(code >> 8));
  }
  return out;
}

std::vector<std::uint8_t> golden_text(std::size_t bytes) {
  static const char* const kWords[] = {
      "wavefront", "lossy",   "compression", "of",      "scientific",
      "data",      "the",     "error",       "bound",   "holds",
      "for",       "every",   "point",       "FPGA",    "pipeline",
      "Lorenzo",   "predictor", "quantization", "Huffman", "gzip"};
  std::mt19937 rng(1951);
  std::string text;
  int words = 0;
  while (text.size() < bytes) {
    text += kWords[rng() % 20];
    text += (++words % 11 == 0) ? ".\n" : " ";
  }
  text.resize(bytes);
  return bytes_of(text);
}

std::vector<std::uint8_t> golden_noise(std::size_t bytes) {
  std::mt19937 rng(1952);
  std::vector<std::uint8_t> out(bytes);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng() >> 24);
  return out;
}

struct GoldenInput {
  const char* name;
  std::vector<std::uint8_t> bytes;
  int first_block_type;  ///< BTYPE of compress()'s first block, either level
};

std::vector<GoldenInput> golden_inputs() {
  return {
      {"codes", golden_code_section(96 * 1024), 0b10},
      {"text", golden_text(48 * 1024), 0b10},
      {"noise", golden_noise(70000), 0b00},  // two stored blocks
      {"short", bytes_of("waveSZ, waveSZ, waveSZ: a wavefront."), 0b01},
      {"empty", {}, 0b01},
  };
}

using golden::expect_pin;
using golden::GoldenPin;

TEST(GoldenBytes, CompressAtBothLevels) {
  // Per input, {Fast, Best}.
  const GoldenPin pins[][2] = {
      {{52762, 0x4eae0a0cu}, {52473, 0x531a6769u}},
      {{9633, 0x07320f16u}, {7863, 0xa0ed5cd3u}},
      {{70015, 0xde74f2ebu}, {70015, 0xde74f2ebu}},
      {{22, 0xf31c87ceu}, {22, 0xf31c87ceu}},
      {{2, 0x6af4413cu}, {2, 0x6af4413cu}},
  };
  const auto inputs = golden_inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    for (const Level level : {Level::Fast, Level::Best}) {
      const auto out = compress(inputs[i].bytes, level);
      ASSERT_FALSE(out.empty());
      EXPECT_EQ((out[0] >> 1) & 3, inputs[i].first_block_type)
          << inputs[i].name;
      expect_pin(out, pins[i][level == Level::Best ? 1 : 0],
                 std::string(inputs[i].name) +
                     (level == Level::Best ? " best" : " fast"));
      EXPECT_EQ(decompress(out), inputs[i].bytes) << inputs[i].name;
    }
  }
}

TEST(GoldenBytes, IndexedGzipAtOneAndTwoThreads) {
  // The v2 container section encode: forced sync-flush chunking at the
  // default index cadence. Per input, {1 thread, 2 threads}.
  const GoldenPin pins[][2] = {
      {{52827, 0xe2372bc7u}, {52827, 0xe2372bc7u}},
      {{9651, 0x07b0e7d5u}, {9651, 0x07b0e7d5u}},
      {{70038, 0x8b82e8d8u}, {70038, 0x8b82e8d8u}},
      {{40, 0x0e4a99b6u}, {40, 0x0e4a99b6u}},
      {{20, 0x4631be2fu}, {20, 0x4631be2fu}},
  };
  const auto inputs = golden_inputs();
  ParallelOptions opts = sz::Config{}.indexed_deflate_options();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    for (const int threads : {1, 2}) {
      opts.threads = threads;
      const auto out =
          gzip_compress_parallel(inputs[i].bytes, Level::Fast, opts);
      expect_pin(out, pins[i][threads - 1],
                 std::string(inputs[i].name) + " threads=" +
                     std::to_string(threads));
      EXPECT_EQ(gzip_decompress(out), inputs[i].bytes) << inputs[i].name;
    }
  }
}


// ------------------------------------------ one pass vs the oracle parse
//
// The one-pass Level::Fast encoder must write the bytes of the parse it
// replaced (deflate_oracle.hpp) on every byte-mode input: random bytes,
// runs, H* streams and raw codes, across the window and block edges.

std::vector<std::uint8_t> random_bytes(std::size_t n, unsigned seed,
                                       int bits = 8) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng() >> (32 - bits));
  return out;
}

std::vector<std::uint8_t> byte_runs(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> out;
  while (out.size() < n) {
    out.insert(out.end(), std::min<std::size_t>(1 + rng() % 40, n - out.size()),
               static_cast<std::uint8_t>(rng() % 7));
  }
  return out;
}

/// Raw codes random-walking around the radius 32768, as a G* section holds.
std::vector<std::uint16_t> walk_codes(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint16_t> out(n);
  int offset = 0;
  for (auto& c : out) {
    const std::uint32_t r = rng();
    offset = std::clamp(offset + static_cast<int>(r % 5) - 2, -24, 24);
    c = static_cast<std::uint16_t>(32768 + offset);
  }
  return out;
}

std::vector<std::uint8_t> byte_image(std::span<const std::uint16_t> codes) {
  const auto b = wavesz::bytes_of(codes);
  return {b.begin(), b.end()};
}

/// A prefix of `source` that the oracle parses into exactly `want` tokens.
std::vector<std::uint8_t> with_token_count(
    const std::vector<std::uint8_t>& source, std::size_t want) {
  std::size_t len = want;
  for (;;) {
    const std::size_t have =
        oracle::tokenize_fast(std::span(source).first(len)).size();
    if (have == want) return {source.begin(), source.begin() + len};
    // A byte adds at most one token, so this never overshoots.
    len += want - have;
    EXPECT_LE(len, source.size());
    if (len > source.size()) return {};
  }
}

TEST(FastOracle, OnePassWritesTheOracleBytes) {
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> cases;
  for (const std::size_t n : {0, 1, 2, 3, 4, 32767, 32768, 32769}) {
    cases.emplace_back("random " + std::to_string(n),
                       random_bytes(n, static_cast<unsigned>(n)));
    cases.emplace_back("runs " + std::to_string(n),
                       byte_runs(n, static_cast<unsigned>(n)));
  }
  cases.emplace_back("runs", byte_runs(300000, 3));
  cases.emplace_back("H*", sz::huffman_encode(walk_codes(150000, 4)));
  cases.emplace_back("raw codes", byte_image(walk_codes(100000, 5)));
  cases.emplace_back("incompressible", random_bytes(70000, 6));
  // Six-bit letters code cheaper than stored, so the block split shows.
  const auto letters = random_bytes(80000, 7, 6);
  cases.emplace_back("65536 tokens", with_token_count(letters, 65536));
  cases.emplace_back("65537 tokens", with_token_count(letters, 65537));
  for (const auto& [name, bytes] : cases) {
    const auto got = compress(bytes, Level::Fast);
    EXPECT_EQ(got, oracle::compress_fast(bytes)) << name;
    EXPECT_EQ(decompress(got), bytes) << name;
    EXPECT_EQ(tokenize(bytes, Level::Fast).size(),
              oracle::tokenize_fast(bytes).size())
        << name;
  }
  // The edge cases hit what they name: a stored first block, and one
  // final block of exactly kTokensPerBlock tokens against two blocks.
  const auto block_type = [](const std::vector<std::uint8_t>& out) {
    return (out[0] >> 1) & 3;
  };
  EXPECT_EQ(block_type(compress(cases[cases.size() - 3].second, Level::Fast)),
            0b00);
  const auto one = compress(cases[cases.size() - 2].second, Level::Fast);
  const auto two = compress(cases.back().second, Level::Fast);
  EXPECT_EQ(block_type(one), 0b10);
  EXPECT_EQ(one[0] & 1, 1) << "65536 tokens fill one final block";
  EXPECT_EQ(two[0] & 1, 0) << "65537 tokens need a second block";
}

TEST(FastOracle, PrimedChunksWriteTheOracleBytes) {
  std::vector<std::uint8_t> input = byte_runs(90000, 8);
  const auto hstar = sz::huffman_encode(walk_codes(60000, 9));
  input.insert(input.end(), hstar.begin(), hstar.end());
  const auto codes = byte_image(walk_codes(60000, 10));
  input.insert(input.end(), codes.begin(), codes.end());
  for (const std::size_t chunk : {4096u, 65536u}) {
    const auto want = oracle::compress_fast_chunked(input, chunk);
    for (const int threads : {1, 2}) {
      ParallelOptions opts{chunk, threads};
      opts.force_chunking = true;
      EXPECT_EQ(compress_parallel(input, Level::Fast, opts), want)
          << "chunk " << chunk << " threads " << threads;
    }
  }
}

// ------------------------------------------------------------ code mode
//
// G* code sections go through gzip_compress_codes(): the matcher steps in
// whole 16-bit codes. The stream is a plain gzip member of the codes' byte
// image.

/// The layouts a code section can take: one stream, chunked on a team and
/// chunked at one thread.
std::vector<ParallelOptions> code_layouts() {
  ParallelOptions forced{4096, 1};
  forced.force_chunking = true;
  return {{kDefaultChunkBytes, 1}, {4096, 2}, forced};
}

std::vector<std::pair<std::string, std::vector<std::uint16_t>>> code_inputs() {
  std::vector<std::uint16_t> distinct(40000);
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    distinct[i] = static_cast<std::uint16_t>(i * 7919);  // no code repeats
  }
  std::vector<std::pair<std::string, std::vector<std::uint16_t>>> out{
      {"walk", walk_codes(70000, 11)},
      {"constant", std::vector<std::uint16_t>(50000, 32768)},
      {"distinct", distinct}};
  for (std::size_t n = 0; n <= 2; ++n) {
    out.emplace_back(std::to_string(n) + " codes", walk_codes(n, 12));
  }
  return out;
}

TEST(CodeMode, RoundTripsThroughEveryInflater) {
  for (const auto& [name, codes] : code_inputs()) {
    const auto bytes = byte_image(codes);
    for (const ParallelOptions& opts : code_layouts()) {
      const std::string what = name + " chunk " +
                               std::to_string(opts.chunk_bytes) +
                               " threads " + std::to_string(opts.threads);
      const auto gz = gzip_compress_codes(codes, Level::Fast, opts);
      EXPECT_EQ(gzip_decompress(gz), bytes) << what;
      // The raw DEFLATE body, through both inflaters.
      const auto body = std::span(gz).subspan(10, gz.size() - 18);
      EXPECT_EQ(decompress(body), bytes) << what;
      EXPECT_EQ(oracle::inflate(body), bytes) << what;
      if (opts.threads == 1 && !opts.force_chunking) {
        EXPECT_EQ(gz, gzip_compress_codes(codes, Level::Fast,
                                          ParallelOptions{4096, 1}))
            << what << ": serial stream ignores chunk_bytes";
        continue;
      }
      // An odd chunk size writes the stream of the next even one.
      ParallelOptions odd = opts;
      odd.chunk_bytes -= 1;
      EXPECT_EQ(gzip_compress_codes(codes, Level::Fast, odd), gz) << what;
      // Every chunk ends on a sync marker: a prefix inflate asked for
      // whole chunks stops right there.
      for (std::size_t k = 1; k * opts.chunk_bytes < bytes.size(); ++k) {
        const auto run = gzip_decompress_prefix(gz, k * opts.chunk_bytes);
        ASSERT_EQ(run.bytes.size(), k * opts.chunk_bytes) << what << " k " << k;
        EXPECT_FALSE(run.complete) << what;
        EXPECT_TRUE(std::equal(run.bytes.begin(), run.bytes.end(),
                               bytes.begin()))
            << what << " k " << k;
      }
      EXPECT_EQ(gzip_decompress_prefix(gz, bytes.size()).bytes, bytes) << what;
    }
  }
}

TEST(CodeMode, MatchesCoverWholeCodes) {
  const auto codes = walk_codes(50000, 13);
  const auto bytes = byte_image(codes);
  const auto tokens = tokenize(bytes, Level::Fast, 0, Stride::Codes);
  EXPECT_EQ(expand(tokens), bytes);
  std::size_t at = 0, matches = 0;
  for (const Token& t : tokens) {
    if (t.length > 0) {
      ++matches;
      EXPECT_EQ(at % 2, 0u);
      EXPECT_EQ(t.length % 2, 0);
      EXPECT_GE(t.length, 4);
      EXPECT_EQ(t.value % 2, 0);
    }
    at += t.length > 0 ? t.length : 1;
  }
  EXPECT_GT(matches, tokens.size() / 4);
  // Level::Best keeps its byte parse on code sections.
  EXPECT_EQ(gzip_compress_codes(codes, Level::Best,
                                ParallelOptions{kDefaultChunkBytes, 1}),
            gzip_compress(bytes, Level::Best));
}

TEST(CodeMode, OddLengthsRoundTrip) {
  // A code section always has an even length, but the parse takes any
  // window: a tail shorter than a code pair goes out byte by byte.
  const auto whole = byte_image(walk_codes(40000, 14));
  for (const std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 4097u, 70001u}) {
    const auto bytes = std::span(whole).first(n);
    BitWriterLSB bw;
    detail::deflate_window(bw, bytes, 0, Level::Fast, Stride::Codes, true);
    EXPECT_EQ(decompress(bw.take()),
              std::vector<std::uint8_t>(bytes.begin(), bytes.end()))
        << n << " bytes";
  }
}

// ------------------------------------------------ the run parse and probe
//
// H* sections take gzip_compress_probed(): each chunk is parsed with runs
// (distance-1 matches only, no hash tables) unless a probe of its first
// kProbeBytes shows the hash chains paying.

/// Every token `parse` writes into a TokenBlock sized for `live` bytes,
/// across all its blocks.
template <typename Parse>
std::vector<Token> collect_tokens(std::size_t live, Parse&& parse) {
  std::vector<Token> out;
  TokenBlock block(live);
  const std::function<void(TokenBlock&)> take = [&](TokenBlock& b) {
    out.insert(out.end(), b.tokens().begin(), b.tokens().end());
    b.clear();
  };
  parse(block, take);
  take(block);
  return out;
}

/// The window `tokens` rebuild after its first `dict_len` bytes.
std::vector<std::uint8_t> expand_after(std::span<const std::uint8_t> window,
                                       std::size_t dict_len,
                                       std::span<const Token> tokens) {
  std::vector<Token> all;
  for (std::size_t i = 0; i < dict_len; ++i) all.push_back({0, window[i]});
  all.insert(all.end(), tokens.begin(), tokens.end());
  return expand(all);
}

/// zlib's Z_RLE parse of `w[dict_len..]`, a byte at a time.
std::vector<Token> byte_at_a_time_runs(std::span<const std::uint8_t> w,
                                       std::size_t dict_len) {
  std::vector<Token> out;
  for (std::size_t pos = dict_len; pos < w.size();) {
    std::size_t len = 0;
    while (pos > 0 && len < kMaxMatch && pos + len < w.size() &&
           w[pos + len] == w[pos - 1]) {
      ++len;
    }
    if (len >= kMinMatch) {
      out.push_back({static_cast<std::uint16_t>(len), 1});
      pos += len;
    } else {
      out.push_back({0, w[pos++]});
    }
  }
  return out;
}

std::vector<Token> runs_of(std::span<const std::uint8_t> window,
                           std::size_t dict_len) {
  return collect_tokens(window.size() - dict_len, [&](TokenBlock& b,
                                                      const auto& on_full) {
    parse_runs(window, dict_len, b, on_full);
  });
}

/// parse_probed()'s tokens and whether it took runs.
std::pair<std::vector<Token>, bool> probed_of(
    std::span<const std::uint8_t> window, std::size_t dict_len) {
  bool on_runs = false;
  auto tokens = collect_tokens(
      window.size() - dict_len, [&](TokenBlock& b, const auto& on_full) {
        on_runs = parse_probed(window, dict_len, b, on_full,
                               detail::block_bits);
      });
  return {std::move(tokens), on_runs};
}

/// Random bytes with runs of 3 to 20 repeats between them: the shape of an
/// H* payload, where the chains find little beyond the runs.
std::vector<std::uint8_t> skewed_bytes(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> out;
  while (out.size() < n) {
    const auto b = static_cast<std::uint8_t>(rng() % 5 == 0 ? 0 : rng());
    const std::size_t reps = rng() % 6 == 0 ? 3 + rng() % 18 : 1;
    out.insert(out.end(), std::min(reps, n - out.size()), b);
  }
  return out;
}

bool same_tokens(std::span<const Token> a, std::span<const Token> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Token& x, const Token& y) {
                      return x.length == y.length && x.value == y.value;
                    });
}

bool only_distance_one(std::span<const Token> tokens) {
  return std::all_of(tokens.begin(), tokens.end(), [](const Token& t) {
    return t.length == 0 || t.value == 1;
  });
}

TEST(RunParse, IsTheByteAtATimeParseWithDistanceOneMatchesOnly) {
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> cases;
  for (const std::size_t n : {0, 1, 2, 3, 4, 5, 9, 10, 11}) {
    cases.emplace_back("run " + std::to_string(n),
                       std::vector<std::uint8_t>(n, 'a'));
  }
  cases.emplace_back("long run", std::vector<std::uint8_t>(1000, 0));
  cases.emplace_back("runs", byte_runs(300000, 15));  // several blocks
  cases.emplace_back("skewed", skewed_bytes(100000, 16));
  cases.emplace_back("random", random_bytes(70000, 17));
  cases.emplace_back("H*", sz::huffman_encode(walk_codes(150000, 18)));
  for (const auto& [name, bytes] : cases) {
    for (const std::size_t dict : {std::size_t{0}, bytes.size() / 3}) {
      const auto tokens = runs_of(bytes, dict);
      EXPECT_TRUE(same_tokens(tokens, byte_at_a_time_runs(bytes, dict)))
          << name << " dict " << dict;
      EXPECT_TRUE(only_distance_one(tokens)) << name;
      EXPECT_EQ(expand_after(bytes, dict, tokens), bytes)
          << name << " dict " << dict;
    }
  }
}

TEST(RunParse, MatchesReachIntoTheDictionary) {
  // The live bytes open with the byte the dictionary ends on: the first
  // token is a distance-1 match whose source is the dictionary's last byte.
  std::vector<std::uint8_t> window = random_bytes(1000, 19);
  window.back() = 'q';
  const std::size_t dict = window.size();
  window.insert(window.end(), 300, 'q');
  window.push_back('z');
  const auto tokens = runs_of(window, dict);
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].length, kMaxMatch);
  EXPECT_EQ(tokens[0].value, 1);
  EXPECT_EQ(tokens[1].length, 300 - kMaxMatch);
  EXPECT_EQ(tokens[2].length, 0);
  EXPECT_EQ(expand_after(window, dict, tokens), window);
}

TEST(ProbedParse, KeepsTheChainOnAPeriodFivePattern) {
  // No byte repeats the one before it, so runs find nothing, while the
  // chains match every period after the first.
  std::vector<std::uint8_t> window(kWindowSize + 3 * kProbeBytes);
  for (std::size_t i = 0; i < window.size(); ++i) {
    window[i] = static_cast<std::uint8_t>("waveS"[i % 5]);
  }
  for (const std::size_t dict : {std::size_t{0}, kWindowSize}) {
    const auto [tokens, on_runs] = probed_of(window, dict);
    EXPECT_FALSE(on_runs) << "dict " << dict;
    EXPECT_TRUE(std::any_of(tokens.begin(), tokens.end(), [](const Token& t) {
      return t.length > 0 && t.value % 5 == 0;
    }));
    EXPECT_LT(tokens.size(), (window.size() - dict) / 100);
    EXPECT_EQ(expand_after(window, dict, tokens), window);
  }
}

TEST(ProbedParse, TakesRunsOnSkewedRandomBytes) {
  // The chains find the runs too, and little else: the probe keeps runs,
  // whose tokens are then exactly parse_runs()'s.
  const auto window = skewed_bytes(kWindowSize + 100000, 20);
  for (const std::size_t dict : {std::size_t{0}, kWindowSize}) {
    const auto [tokens, on_runs] = probed_of(window, dict);
    EXPECT_TRUE(on_runs) << "dict " << dict;
    EXPECT_TRUE(only_distance_one(tokens));
    EXPECT_TRUE(same_tokens(tokens, runs_of(window, dict)));
  }
}

TEST(ProbedParse, ExpandsAtEveryProbeEdge) {
  // Windows ending before, at and after the probe, either way the probe
  // goes, rebuild their bytes.
  auto skewed = skewed_bytes(kWindowSize + 2 * kProbeBytes, 21);
  std::vector<std::uint8_t> periodic(skewed.size());
  for (std::size_t i = 0; i < periodic.size(); ++i) {
    periodic[i] = static_cast<std::uint8_t>(i % 5 * 37);
  }
  for (const auto* source : {&skewed, &periodic}) {
    for (const std::size_t live :
         {std::size_t{0}, std::size_t{1}, kProbeBytes - 1, kProbeBytes,
          kProbeBytes + 1, 2 * kProbeBytes}) {
      for (const std::size_t dict : {std::size_t{0}, kWindowSize}) {
        const auto window = std::span(*source).first(dict + live);
        EXPECT_EQ(expand_after(window, dict, probed_of(window, dict).first),
                  std::vector<std::uint8_t>(window.begin(), window.end()))
            << "live " << live << " dict " << dict;
      }
    }
  }
}

TEST(ProbedGzip, SameMemberAtEveryBudget) {
  // The probe reads only a chunk and the window before it, so the member
  // is the same at every budget, with or without force_chunking; and the
  // serial inflate reads it.
  std::vector<std::uint8_t> input = skewed_bytes(200000, 22);
  const auto hstar = sz::huffman_encode(walk_codes(100000, 23));
  input.insert(input.end(), hstar.begin(), hstar.end());
  for (std::size_t i = 0; i < 50000; ++i) {
    input.push_back(static_cast<std::uint8_t>(i % 5 * 37));
  }
  for (const std::size_t chunk : {4096u, 65536u}) {
    const auto want = gzip_compress_probed(input, {chunk, 1});
    EXPECT_EQ(gzip_decompress(want), input);
    for (const int threads : {1, 2, 4}) {
      for (const bool forced : {false, true}) {
        ParallelOptions opts{chunk, threads};
        opts.force_chunking = forced;
        EXPECT_EQ(gzip_compress_probed(input, opts), want)
            << "chunk " << chunk << " threads " << threads;
      }
    }
  }
  EXPECT_EQ(gzip_decompress(gzip_compress_probed({}, {4096, 2})),
            std::vector<std::uint8_t>{});
}

}  // namespace
}  // namespace wavesz::deflate
