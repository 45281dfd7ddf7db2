// Unit tests for the util layer: bit I/O in both orders, byte serialization,
// CRC-32, IEEE-754 helpers, the shared canonical Huffman machinery, and the
// fork-join helper.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "huffman_oracle.hpp"
#include "huffman_vectors.hpp"
#include "util/bitio.hpp"
#include "util/bytes.hpp"
#include "util/checksum.hpp"
#include "util/dims.hpp"
#include "util/error.hpp"
#include "util/float_bits.hpp"
#include "util/fork_join.hpp"
#include "util/huffman.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace wavesz {
namespace {

// ---------------------------------------------------------------- bit I/O

TEST(BitIoLsb, RoundTripMixedWidths) {
  BitWriterLSB bw;
  bw.bits(0b101, 3);
  bw.bits(0xABCD, 16);
  bw.bits(1, 1);
  bw.bits(0x12345678, 32);
  const auto bytes = bw.take();
  BitReaderLSB br(bytes);
  EXPECT_EQ(br.bits(3), 0b101u);
  EXPECT_EQ(br.bits(16), 0xABCDu);
  EXPECT_EQ(br.bit(), 1u);
  EXPECT_EQ(br.bits(32), 0x12345678u);
}

TEST(BitIoLsb, LsbFirstWithinByte) {
  BitWriterLSB bw;
  bw.bits(1, 1);  // lowest bit of first byte
  bw.bits(0, 1);
  bw.bits(1, 1);
  const auto bytes = bw.take();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0b101);
}

TEST(BitIoLsb, AlignByteThenRawByte) {
  BitWriterLSB bw;
  bw.bits(0b11, 2);
  bw.align_byte();
  bw.byte(0x5A);
  const auto bytes = bw.take();
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(bytes[0], 0b11);
  EXPECT_EQ(bytes[1], 0x5A);
  BitReaderLSB br(bytes);
  EXPECT_EQ(br.bits(2), 0b11u);
  br.align_byte();
  EXPECT_EQ(br.byte(), 0x5A);
}

TEST(BitIoLsb, WideWritesSpillAcrossWords) {
  // Writes of up to 56 bits at every accumulator fill, so each width
  // spills across a 64-bit word store; read back 32 bits at a time.
  std::mt19937_64 rng(56);
  std::vector<std::pair<std::uint64_t, int>> items;
  BitWriterLSB bw;
  for (int i = 0; i < 4000; ++i) {
    const int n = static_cast<int>(rng() % 57);
    const std::uint64_t v = rng() & ((std::uint64_t{1} << n) - 1);
    items.emplace_back(v, n);
    bw.bits(v | (~std::uint64_t{0} << n), n);  // bits above n are ignored
  }
  const std::size_t nbits = bw.bit_count();
  const auto bytes = bw.take();
  ASSERT_EQ(bytes.size(), (nbits + 7) / 8);
  BitReaderLSB br(bytes);
  for (const auto& [v, n] : items) {
    const int low = std::min(n, 32);
    std::uint64_t got = br.bits(low);
    if (n > 32) got |= static_cast<std::uint64_t>(br.bits(n - 32)) << 32;
    ASSERT_EQ(got, v) << n << " bits";
  }
}

TEST(BitIoLsb, TruncatedStreamThrows) {
  std::vector<std::uint8_t> one{0xFF};
  BitReaderLSB br(one);
  EXPECT_EQ(br.bits(8), 0xFFu);
  EXPECT_THROW(br.bit(), Error);
}

TEST(BitIoMsb, RoundTripMixedWidths) {
  BitWriterMSB bw;
  bw.bits(0b110, 3);
  bw.bits(0x1F2E, 13);
  bw.bits(0, 1);
  bw.bits(0x0FEDCBA9, 28);
  const auto bytes = bw.take();
  BitReaderMSB br(bytes);
  EXPECT_EQ(br.bits(3), 0b110u);
  EXPECT_EQ(br.bits(13), 0x1F2Eu);
  EXPECT_EQ(br.bit(), 0u);
  EXPECT_EQ(br.bits(28), 0x0FEDCBA9u);
}

TEST(BitIoMsb, MsbFirstWithinByte) {
  BitWriterMSB bw;
  bw.bits(1, 1);
  const auto bytes = bw.take();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0x80);  // padded with zeros on the right
}

TEST(BitIoMsb, BitCountTracksExactly) {
  BitWriterMSB bw;
  bw.bits(0x3, 2);
  bw.bits(0x7F, 7);
  EXPECT_EQ(bw.bit_count(), 9u);
}

TEST(BitIoMsb, TruncatedStreamThrows) {
  std::vector<std::uint8_t> one{0xAA};
  BitReaderMSB br(one);
  br.bits(8);
  EXPECT_THROW(br.bit(), Error);
}

// Property: arbitrary (value, width) sequences survive both bit orders.
TEST(BitIo, RandomSequencesRoundTripBothOrders) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::pair<std::uint32_t, int>> items;
    for (int i = 0; i < 200; ++i) {
      const int n = 1 + static_cast<int>(rng() % 24);
      const std::uint32_t v = rng() & ((n >= 32) ? ~0u : ((1u << n) - 1));
      items.emplace_back(v, n);
    }
    BitWriterLSB wl;
    BitWriterMSB wm;
    for (auto [v, n] : items) {
      wl.bits(v, n);
      wm.bits(v, n);
    }
    const auto bl = wl.take();
    const auto bm = wm.take();
    BitReaderLSB rl(bl);
    BitReaderMSB rm(bm);
    for (auto [v, n] : items) {
      EXPECT_EQ(rl.bits(n), v);
      EXPECT_EQ(rm.bits(n), v);
    }
  }
}

TEST(BitIoLsb, PeekIsIdempotentAndConsumeAdvances) {
  std::vector<std::uint8_t> bytes{0b10110101, 0xC3, 0x7E};
  BitReaderLSB br(bytes);
  EXPECT_EQ(br.peek(5), 0b10101u);  // LSB-first: low bits of byte 0
  EXPECT_EQ(br.peek(5), 0b10101u);  // peeking must not consume
  br.consume(3);
  EXPECT_EQ(br.bits(5), 0b10110u);
  EXPECT_EQ(br.byte(), 0xC3);
  EXPECT_EQ(br.consumed(), 2u);
}

TEST(BitIoLsb, PeekZeroPadsPastEndButConsumeThrows) {
  std::vector<std::uint8_t> one{0xFF};
  BitReaderLSB br(one);
  EXPECT_EQ(br.peek(16), 0x00FFu);  // upper 8 bits zero-padded
  br.consume(8);
  EXPECT_EQ(br.peek(8), 0u);
  EXPECT_THROW(br.consume(1), Error);
}

TEST(BitIoLsb, ReadBytesMatchesByteLoop) {
  std::vector<std::uint8_t> data(300);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 17 + 3);
  }
  // Consume a few bits first so buffered whole bytes must be drained.
  BitReaderLSB br(data);
  EXPECT_EQ(br.bits(8), data[0]);
  std::vector<std::uint8_t> got(128);
  br.read_bytes(got.data(), got.size());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), data.begin() + 1));
  EXPECT_EQ(br.consumed(), 129u);
  // Reads past the remaining bytes must throw, not wrap.
  std::vector<std::uint8_t> over(300);
  EXPECT_THROW(br.read_bytes(over.data(), over.size()), Error);
}

TEST(BitIoMsb, PeekConsumeAndExactPosition) {
  BitWriterMSB bw;
  bw.bits(0b1101, 4);
  bw.bits(0x2A5, 10);
  bw.bits(0x1FFFF, 17);
  const auto bytes = bw.take();
  BitReaderMSB br(bytes);
  EXPECT_EQ(br.peek(4), 0b1101u);
  EXPECT_EQ(br.peek(4), 0b1101u);
  br.consume(4);
  EXPECT_EQ(br.position(), 4u);
  EXPECT_EQ(br.bits(10), 0x2A5u);
  EXPECT_EQ(br.position(), 14u);
  EXPECT_EQ(br.bits(17), 0x1FFFFu);
  EXPECT_EQ(br.position(), 31u);
}

TEST(BitIoMsb, PeekZeroPadsPastEndButConsumeThrows) {
  std::vector<std::uint8_t> one{0xF0};
  BitReaderMSB br(one);
  EXPECT_EQ(br.peek(12), 0xF00u);  // tail zero-padded on the right
  br.consume(8);
  EXPECT_EQ(br.peek(8), 0u);
  EXPECT_THROW(br.consume(1), Error);
}

// Property: interleaved peek/consume at random widths reads the same bit
// sequence as the pre-rewrite one-bit-at-a-time readers would.
TEST(BitIo, PeekConsumeMatchesBitAtATimeBothOrders) {
  std::mt19937 rng(23);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::uint8_t> bytes(1 + rng() % 64);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    const auto bit_at = [&](std::size_t i) -> std::uint32_t {
      return trial % 2 == 0 ? (bytes[i / 8] >> (i % 8)) & 1u          // LSB
                            : (bytes[i / 8] >> (7 - i % 8)) & 1u;     // MSB
    };
    BitReaderLSB rl(bytes);
    BitReaderMSB rm(bytes);
    std::size_t pos = 0;
    const std::size_t total = bytes.size() * 8;
    while (pos < total) {
      const int n = 1 + static_cast<int>(rng() % 24);
      if (pos + static_cast<std::size_t>(n) > total) break;
      std::uint32_t want = 0;
      for (int k = 0; k < n; ++k) {
        const auto bit = trial % 2 == 0
                             ? (bytes[(pos + k) / 8] >> ((pos + k) % 8)) & 1u
                             : bit_at(pos + k);
        want |= trial % 2 == 0 ? bit << k : 0;
        if (trial % 2 != 0) want = (want << 1) | bit;
      }
      if (trial % 2 == 0) {
        EXPECT_EQ(rl.peek(n), want);
        rl.consume(n);
      } else {
        EXPECT_EQ(rm.peek(n) , want);
        rm.consume(n);
        EXPECT_EQ(rm.position(), pos + static_cast<std::size_t>(n));
      }
      pos += static_cast<std::size_t>(n);
    }
  }
}

// Seek construction: a reader started at bit k must see exactly the bits a
// from-the-top reader sees after consuming k, and position() must stay
// absolute so chunked decoders can seek to a recorded offset and keep the
// same end-of-payload accounting.
TEST(BitIoMsb, SeekConstructorMatchesConsumedReader) {
  std::mt19937 rng(29);
  std::vector<std::uint8_t> bytes(64);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  const std::size_t total = bytes.size() * 8;
  for (std::size_t start : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                            std::size_t{8}, std::size_t{13}, std::size_t{64},
                            std::size_t{257}, total - 9}) {
    BitReaderMSB from_top(bytes);
    from_top.consume(static_cast<int>(start % 32));
    for (std::size_t left = start - start % 32; left > 0; left -= 32) {
      // consume() takes at most 32 bits per call; walk up in two phases.
      from_top.consume(32);
    }
    BitReaderMSB seeked(bytes, start);
    EXPECT_EQ(seeked.position(), start);
    while (seeked.position() + 9 <= total) {
      ASSERT_EQ(seeked.bits(9), from_top.bits(9)) << "start=" << start;
    }
    EXPECT_EQ(seeked.position(), from_top.position());
  }
}

TEST(BitIoMsb, SeekToEndAndPastEnd) {
  std::vector<std::uint8_t> bytes(4, 0xAB);
  BitReaderMSB at_end(bytes, 32);  // legal: zero bits remain
  EXPECT_EQ(at_end.position(), 32u);
  EXPECT_THROW(at_end.consume(1), Error);
  EXPECT_THROW(BitReaderMSB(bytes, 33), Error);
  const std::vector<std::uint8_t> empty;
  EXPECT_NO_THROW(BitReaderMSB(empty, 0));
  EXPECT_THROW(BitReaderMSB(empty, 1), Error);
}

// ------------------------------------------------------------- byte I/O

TEST(Bytes, RoundTripAllTypes) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.f32(3.5f);
  w.f64(-2.25);
  const std::vector<float> fs{1.0f, -2.0f, 0.5f};
  w.floats(fs);
  const std::vector<std::uint16_t> us{7, 8, 9};
  w.u16s(us);

  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.f32(), 3.5f);
  EXPECT_EQ(r.f64(), -2.25);
  EXPECT_EQ(r.floats(3), fs);
  EXPECT_EQ(r.u16s(3), us);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, ZeroCountArraysReadFromAnyBuffer) {
  // A decoder asks for zero values when a section holds none, and the
  // section's plain bytes are then empty.
  const std::vector<std::uint8_t> empty;
  ByteReader r(empty);
  EXPECT_TRUE(r.floats(0).empty());
  EXPECT_TRUE(r.doubles(0).empty());
  EXPECT_TRUE(r.u16s(0).empty());
  const std::vector<std::uint8_t> one{1};
  ByteReader s(one);
  EXPECT_TRUE(s.floats(0).empty());
  EXPECT_EQ(s.u8(), 1);
}

TEST(Bytes, OverrunThrows) {
  ByteWriter w;
  w.u16(1);
  ByteReader r(w.data());
  (void)r.u8();
  EXPECT_THROW(r.u32(), Error);
}

// ---------------------------------------------------------------- CRC-32

TEST(Crc32, KnownVector) {
  const std::string s = "123456789";
  EXPECT_EQ(Crc32::of({reinterpret_cast<const std::uint8_t*>(s.data()),
                       s.size()}),
            0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(Crc32::of({}), 0u); }

TEST(Crc32, StreamingEqualsOneShot) {
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31);
  }
  Crc32 streaming;
  streaming.update({data.data(), 400});
  streaming.update({data.data() + 400, 600});
  EXPECT_EQ(streaming.value(), Crc32::of(data));
}

// Bitwise CRC-32 straight from the reflected polynomial, as the oracle for
// the slice-by-8 implementation (which also mixes split/unaligned updates).
std::uint32_t crc32_bitwise(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xffffffffu;
  for (const auto b : data) {
    crc ^= b;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return crc ^ 0xffffffffu;
}

TEST(Crc32, SliceBy8MatchesBitwiseReference) {
  std::mt19937 rng(7);
  for (const std::size_t size : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 1000u, 4097u}) {
    std::vector<std::uint8_t> data(size);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    EXPECT_EQ(Crc32::of(data), crc32_bitwise(data)) << "size=" << size;
    // Split at a random point so the word loop sees unaligned resumes.
    Crc32 split;
    const std::size_t cut = size == 0 ? 0 : rng() % size;
    split.update({data.data(), cut});
    split.update({data.data() + cut, size - cut});
    EXPECT_EQ(split.value(), crc32_bitwise(data)) << "size=" << size;
  }
}

// ----------------------------------------------------------------- dims

TEST(Dims, CountsAndFlatten) {
  const auto d = Dims::d3(100, 500, 500);
  EXPECT_EQ(d.count(), 25'000'000u);
  const auto f = d.flatten2d();
  EXPECT_EQ(f.rank, 2);
  EXPECT_EQ(f[0], 100u);
  EXPECT_EQ(f[1], 250'000u);
  EXPECT_EQ(f.count(), d.count());
  EXPECT_EQ(Dims::d2(1800, 3600).str(), "1800x3600");
}

TEST(Dims, RejectsZeroExtents) {
  EXPECT_THROW(Dims::d1(0), Error);
  EXPECT_THROW(Dims::d2(0, 5), Error);
  EXPECT_THROW(Dims::d3(5, 0, 5), Error);
}

// ----------------------------------------------------------- float bits

TEST(FloatBits, TightenMatchesPaperExample) {
  // Paper §3.3: 1e-3 tightens to 2^-10 = 1/1024.
  EXPECT_EQ(pow2_tighten(1e-3), std::ldexp(1.0, -10));
  EXPECT_EQ(pow2_tighten_exp(1e-3), -10);
}

TEST(FloatBits, TightenIsIdentityOnPowersOfTwo) {
  for (int e = -30; e <= 30; ++e) {
    const double p = std::ldexp(1.0, e);
    EXPECT_EQ(pow2_tighten(p), p);
    EXPECT_TRUE(is_pow2(p));
  }
}

TEST(FloatBits, TightenNeverExceedsInput) {
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> dist(1e-9, 1e3);
  for (int i = 0; i < 1000; ++i) {
    const double x = dist(rng);
    const double t = pow2_tighten(x);
    EXPECT_LE(t, x);
    EXPECT_GT(t, x / 2.0);  // nearest smaller power of two
    EXPECT_TRUE(is_pow2(t));
  }
}

TEST(FloatBits, RejectsNonPositive) {
  EXPECT_THROW(pow2_tighten(0.0), Error);
  EXPECT_THROW(pow2_tighten(-1.0), Error);
  EXPECT_FALSE(is_pow2(0.0));
  EXPECT_FALSE(is_pow2(-4.0));
}

TEST(FloatBits, ScalePow2MatchesMultiplication) {
  EXPECT_EQ(scale_pow2(3.0, 4), 48.0);
  EXPECT_EQ(scale_pow2(48.0, -4), 3.0);
}

TEST(FloatBits, DecomposeTable3Entries) {
  // Paper Table 3 rows: binary representation of decimal bases.
  const auto d1 = decompose(0.1);
  EXPECT_EQ(d1.exponent, -4);
  EXPECT_EQ(d1.mantissa_bits, "1001100110011");
  const auto d3 = decompose(0.001);
  EXPECT_EQ(d3.exponent, -10);
  EXPECT_EQ(d3.mantissa_bits, "0000011000100");
  const auto d7 = decompose(0.0000001);
  EXPECT_EQ(d7.exponent, -24);
  EXPECT_EQ(d7.mantissa_bits, "1010110101111");
  EXPECT_FALSE(d1.mantissa_is_zero);
}

TEST(FloatBits, DecomposePowerOfTwoHasZeroMantissa) {
  const auto d = decompose(0.25);
  EXPECT_EQ(d.exponent, -2);
  EXPECT_TRUE(d.mantissa_is_zero);
  EXPECT_EQ(d.mantissa_bits, std::string(13, '0'));
}

// -------------------------------------------------------------- Huffman

TEST(Huffman, EmptyAndSingleSymbol) {
  std::vector<std::uint64_t> none(8, 0);
  auto lengths = huffman_code_lengths(none, 15);
  EXPECT_TRUE(std::all_of(lengths.begin(), lengths.end(),
                          [](std::uint8_t l) { return l == 0; }));
  std::vector<std::uint64_t> one(8, 0);
  one[3] = 42;
  lengths = huffman_code_lengths(one, 15);
  EXPECT_EQ(lengths[3], 1);
  EXPECT_TRUE(kraft_complete(lengths));
}

TEST(Huffman, TwoSymbolsGetOneBitEach) {
  std::vector<std::uint64_t> f{10, 0, 90, 0};
  const auto lengths = huffman_code_lengths(f, 15);
  EXPECT_EQ(lengths[0], 1);
  EXPECT_EQ(lengths[2], 1);
  EXPECT_TRUE(kraft_complete(lengths));
}

TEST(Huffman, MoreFrequentNeverLonger) {
  std::vector<std::uint64_t> f{1, 2, 4, 8, 16, 32, 64, 128};
  const auto lengths = huffman_code_lengths(f, 15);
  for (std::size_t i = 1; i < f.size(); ++i) {
    EXPECT_GE(lengths[i - 1], lengths[i]);
  }
  EXPECT_TRUE(kraft_complete(lengths));
}

TEST(Huffman, LengthLimitIsEnforcedAndKraftComplete) {
  // Fibonacci-ish frequencies force deep optimal trees.
  std::vector<std::uint64_t> f(40);
  std::uint64_t a = 1, b = 1;
  for (auto& x : f) {
    x = a;
    const auto next = a + b;
    a = b;
    b = next;
  }
  for (int limit : {7, 10, 15}) {
    const auto lengths = huffman_code_lengths(f, limit);
    for (auto l : lengths) EXPECT_LE(static_cast<int>(l), limit);
    EXPECT_TRUE(kraft_complete(lengths));
  }
}

TEST(Huffman, AlphabetTooLargeForLimitThrows) {
  std::vector<std::uint64_t> f(32, 1);  // 32 symbols cannot fit 4-bit codes...
  // 2^4 = 16 < 32 used symbols
  EXPECT_THROW(huffman_code_lengths(f, 4), Error);
}

TEST(Huffman, CanonicalCodesAreOrderedAndPrefixFree) {
  std::vector<std::uint8_t> lengths{2, 1, 3, 3};
  const auto codes = canonical_codes(lengths);
  // RFC 1951 convention: symbol 1 (len 1) -> 0; symbol 0 (len 2) -> 10;
  // symbols 2,3 (len 3) -> 110, 111.
  EXPECT_EQ(codes[1], 0u);
  EXPECT_EQ(codes[0], 0b10u);
  EXPECT_EQ(codes[2], 0b110u);
  EXPECT_EQ(codes[3], 0b111u);
}

TEST(Huffman, LengthsMatchTheNodeListBuild) {
  // The rolling-list build against the node-list oracle: the same lengths
  // for random, geometric, Fibonacci and all-equal weights, at the DEFLATE
  // and H* limits and the code-length code's 7.
  std::mt19937_64 rng(29);
  std::size_t sets = 0;
  for (int round = 0; round < 400; ++round) {
    const std::size_t alphabet =
        round % 50 == 0 ? 2000 + rng() % 2000 : 2 + rng() % 320;
    std::vector<std::uint64_t> freqs(alphabet);
    const int shape = round % 4;
    std::uint64_t a = 1, b = 1;
    for (auto& f : freqs) {
      switch (shape) {
        case 0:  // sparse, wide range
          f = rng() % 3 == 0 ? 0 : 1 + rng() % 100000;
          break;
        case 1:  // geometric: deep optimal trees
          f = std::uint64_t{1} << (rng() % 40);
          break;
        case 2:  // Fibonacci
          f = a;
          b = std::exchange(a, a + b);
          if (a > (std::uint64_t{1} << 50)) a = b = 1;
          break;
        default:  // ties everywhere
          f = rng() % 4 == 0 ? 0 : 7;
      }
    }
    for (int limit : {7, 9, 12, 15, 24}) {
      const auto used = static_cast<std::uint64_t>(std::count_if(
          freqs.begin(), freqs.end(), [](std::uint64_t f) { return f > 0; }));
      if (used > (std::uint64_t{1} << limit)) continue;
      ASSERT_EQ(huffman_code_lengths(freqs, limit),
                oracle::huffman_code_lengths(freqs, limit))
          << "round " << round << " limit " << limit;
      ++sets;
    }
  }
  EXPECT_GT(sets, 1500u);
}

TEST(Huffman, DecoderInvertsEncoder) {
  std::mt19937 rng(11);
  std::vector<std::uint64_t> freqs(64);
  for (auto& f : freqs) f = rng() % 1000;
  freqs[0] = 100000;  // strongly skewed
  const auto lengths = huffman_code_lengths(freqs, 15);
  const auto codes = canonical_codes(lengths);
  const oracle::CanonicalWalk walk(lengths);

  std::vector<std::uint32_t> symbols;
  for (std::uint32_t s = 0; s < freqs.size(); ++s) {
    if (lengths[s] > 0) symbols.push_back(s);
  }
  BitWriterMSB bw;
  std::vector<std::uint32_t> message;
  for (int i = 0; i < 5000; ++i) {
    const auto s = symbols[rng() % symbols.size()];
    message.push_back(s);
    bw.bits(codes[s], lengths[s]);
  }
  const auto bytes = bw.take();
  BitReaderMSB br(bytes);
  for (auto expected : message) {
    EXPECT_EQ(walk.decode([&] { return br.bit(); }), expected);
  }
}

TEST(Huffman, DecoderRejectsOversubscribedStream) {
  // With lengths {1,1}, the code space is full; any decoder walk terminates
  // at depth 1, so feed a decoder built from a deliberately sparse table.
  std::vector<std::uint8_t> lengths{3, 0, 0, 0};
  const oracle::CanonicalWalk walk(lengths);
  int calls = 0;
  // bits 111... never matches the only code (000 at depth 3 is code 0).
  EXPECT_THROW(walk.decode([&] {
    ++calls;
    return 1u;
  }),
               Error);
  EXPECT_LE(calls, 4);
}

TEST(Huffman, OversubscribedLengthsAreRejectedAtConstruction) {
  // Kraft sums above 1, as zlib's inflate_table rejects them: three 1-bit
  // codes, and the DEFLATE vector's 1-bit end-of-block beside three 2-bit
  // literals. The canonical codes of such a set overflow their own widths,
  // so no table can hold them. Complete and incomplete sets are admitted.
  for (const auto& lengths :
       {std::vector<std::uint8_t>{1, 1, 1}, std::vector<std::uint8_t>{1, 2, 2, 2},
        std::vector<std::uint8_t>{24, 1, 1}}) {
    for (const BitOrder order : {BitOrder::MsbFirst, BitOrder::LsbFirst}) {
      EXPECT_THROW(CanonicalDecoder(lengths, order), Error);
    }
    EXPECT_THROW(oracle::CanonicalWalk{lengths}, Error);
  }
  for (const auto& lengths :
       {std::vector<std::uint8_t>{1, 2, 2}, std::vector<std::uint8_t>{1, 2}}) {
    EXPECT_NO_THROW(CanonicalDecoder(lengths, BitOrder::LsbFirst));
    EXPECT_NO_THROW(oracle::CanonicalWalk{lengths});
  }
}

TEST(Huffman, EmptyCodeHasOneBitRootOfInvalidSlots) {
  // A DEFLATE block without matches may send an all-zero distance code.
  // Its table is a 1-bit root whose slots are both invalid (a 0-bit root
  // would make msb_table().lookup() shift by 64): every decode throws.
  const std::vector<std::uint8_t> none(30, 0);
  for (const BitOrder order : {BitOrder::MsbFirst, BitOrder::LsbFirst}) {
    const CanonicalDecoder dec(none, order);
    EXPECT_EQ(dec.root_bits(), 1);
    EXPECT_EQ(dec.table().size(), 2u);
    EXPECT_TRUE(std::all_of(dec.table().begin(), dec.table().end(),
                            [](std::uint32_t e) { return e == 0; }));
    const std::vector<std::uint8_t> bytes{0x00, 0xff};
    BitReaderLSB br(bytes);
    EXPECT_THROW(dec.decode_fast([&](int n) { return br.peek(n); },
                                 [&](int n) { br.consume(n); }),
                 Error);
  }
  const CanonicalDecoder msb(none);
  EXPECT_EQ(msb.msb_table().lookup(0), 0u);
  EXPECT_EQ(msb.msb_table().lookup(~std::uint64_t{0}), 0u);
}

TEST(Huffman, DeepCompleteSetStaysUnderTheTableBound) {
  // huffman_vectors.hpp's deep complete H* set: one root prefix for each
  // tail depth 1..14 and two full prefixes of 24-bit codes. Canonical
  // lengths never fall as codes rise, which bounds any admitted table by
  // 2^10 + 2^15 + 2^14 + symbols entries.
  const auto lengths = huffman_vectors::deep_code_lengths();
  const auto used = static_cast<std::size_t>(
      std::count_if(lengths.begin(), lengths.end(),
                    [](std::uint8_t l) { return l > 0; }));
  ASSERT_EQ(used, 50173u);
  EXPECT_TRUE(kraft_complete(lengths));
  for (const BitOrder order : {BitOrder::MsbFirst, BitOrder::LsbFirst}) {
    const CanonicalDecoder dec(lengths, order);
    EXPECT_EQ(dec.table().size(), 66558u);
    EXPECT_LE(dec.table().size(), (1u << 10) + (1u << 15) + (1u << 14) + used);
  }
}

// Differential property: decode_fast over the flat table must emit the very
// same symbol sequence as the bit-at-a-time oracle walk, in both bit orders,
// across skewed random alphabets (including ones deep enough to need
// subtables past the root-bits boundary).
TEST(Huffman, DecodeFastMatchesOracleBothOrders) {
  std::mt19937 rng(42);
  for (const int alphabet : {2, 3, 29, 300, 2000}) {
    std::vector<std::uint64_t> freqs(static_cast<std::size_t>(alphabet));
    for (auto& f : freqs) {
      f = 1 + rng() % 1000;
      if (rng() % 4 == 0) f *= 100000;  // force a wide spread of lengths
    }
    const int limit = alphabet > 512 ? 24 : 15;
    const auto lengths = huffman_code_lengths(freqs, limit);
    const auto codes = canonical_codes(lengths);

    std::vector<std::uint32_t> message;
    BitWriterMSB bw;
    for (int i = 0; i < 2000; ++i) {
      const auto s = static_cast<std::uint32_t>(rng() % freqs.size());
      message.push_back(s);
      bw.bits(codes[s], lengths[s]);
    }
    const auto msb_bytes = bw.take();

    const CanonicalDecoder dec_msb(lengths, BitOrder::MsbFirst);
    const oracle::CanonicalWalk walk(lengths);
    BitReaderMSB slow(msb_bytes);
    BitReaderMSB fast(msb_bytes);
    for (auto expected : message) {
      EXPECT_EQ(walk.decode([&] { return slow.bit(); }), expected);
      EXPECT_EQ(dec_msb.decode_fast([&](int n) { return fast.peek(n); },
                                    [&](int n) { fast.consume(n); }),
                expected);
      EXPECT_EQ(fast.position(), slow.position());
    }

    // The same walk over the reader's registers held in locals, refilled
    // once per symbol and probed through msb_table(), as the H* decode loop
    // does.
    BitReaderMSB regs(msb_bytes);
    BitReaderMSB::State st = regs.state();
    for (auto expected : message) {
      BitReaderMSB::refill(st, regs.source());
      const std::uint32_t e = dec_msb.msb_table().lookup(st.acc);
      ASSERT_NE(e, 0u);
      EXPECT_EQ(e >> 8, expected);
      st.acc <<= e & 0xffu;
      st.fill -= static_cast<int>(e & 0xffu);
      ASSERT_GE(st.fill, 0);
    }
    regs.set_state(st);
    EXPECT_EQ(regs.position(), slow.position());

    // Same message through the DEFLATE bit order: reversed code bits packed
    // LSB-first, decoded with an LsbFirst table.
    BitWriterLSB lw;
    for (auto s : message) {
      std::uint32_t rc = 0, c = codes[s];
      for (int b = 0; b < lengths[s]; ++b) rc = (rc << 1) | ((c >> b) & 1u);
      lw.bits(rc, lengths[s]);
    }
    const auto lsb_bytes = lw.take();
    const CanonicalDecoder dec_lsb(lengths, BitOrder::LsbFirst);
    BitReaderLSB lfast(lsb_bytes);
    for (auto expected : message) {
      EXPECT_EQ(dec_lsb.decode_fast([&](int n) { return lfast.peek(n); },
                                    [&](int n) { lfast.consume(n); }),
                expected);
    }
  }
}

TEST(Huffman, DecodeFastRejectsInvalidCodeAndTruncation) {
  // Sparse table: only symbol 0 has a (length-3) code, so slot 111... is an
  // invalid entry in the flat table and must throw, not emit garbage.
  std::vector<std::uint8_t> lengths{3, 0, 0, 0};
  const CanonicalDecoder dec(lengths, BitOrder::MsbFirst);
  std::vector<std::uint8_t> ones{0xff};
  BitReaderMSB bad(ones);
  EXPECT_THROW(dec.decode_fast([&](int n) { return bad.peek(n); },
                               [&](int n) { bad.consume(n); }),
               Error);
  EXPECT_EQ(dec.msb_table().lookup(~std::uint64_t{0}), 0u);
  EXPECT_EQ(dec.msb_table().lookup(0), 3u);  // symbol 0, three bits

  // A stream that ends mid-code must surface the truncation Error from
  // consume() — peek() zero-pads, so the thrower is the reader, not UB.
  std::vector<std::uint8_t> empty;
  BitReaderMSB trunc(empty);
  EXPECT_THROW(dec.decode_fast([&](int n) { return trunc.peek(n); },
                               [&](int n) { trunc.consume(n); }),
               Error);
}

// Parameterized Kraft/limit sweep across alphabet sizes and skews.
class HuffmanSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HuffmanSweep, LengthsAreKraftCompleteWithinLimit) {
  const auto [alphabet, limit] = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(alphabet * 131 + limit));
  std::vector<std::uint64_t> freqs(static_cast<std::size_t>(alphabet));
  for (auto& f : freqs) {
    f = (rng() % 7 == 0) ? 0 : (1 + rng() % 100000);
  }
  const std::uint64_t used = static_cast<std::uint64_t>(
      std::count_if(freqs.begin(), freqs.end(),
                    [](std::uint64_t f) { return f > 0; }));
  if (used > (1ull << limit)) {
    // More used symbols than the code space allows: must refuse loudly.
    EXPECT_THROW(huffman_code_lengths(freqs, limit), Error);
    return;
  }
  const auto lengths = huffman_code_lengths(freqs, limit);
  EXPECT_TRUE(kraft_complete(lengths));
  for (std::size_t s = 0; s < freqs.size(); ++s) {
    EXPECT_EQ(lengths[s] > 0, freqs[s] > 0);
    EXPECT_LE(static_cast<int>(lengths[s]), limit);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlphabetsAndLimits, HuffmanSweep,
    ::testing::Combine(::testing::Values(2, 5, 19, 30, 288, 1000, 65536),
                       ::testing::Values(7, 15, 24)));

// ------------------------------------------------------------- fork-join

/// The most workers team_size hands out: the CPUs OpenMP may run the
/// process on, or 1 in a build without OpenMP.
int team_cap() {
#ifdef _OPENMP
  return omp_get_num_procs();
#else
  return 1;
#endif
}

TEST(ForkJoin, BudgetAndWorkerCount) {
  EXPECT_EQ(util::resolve_thread_budget(3), 3);
  EXPECT_GE(util::resolve_thread_budget(0), 1);
  EXPECT_EQ(util::resolve_thread_budget(-1), util::resolve_thread_budget(0));
  const int cap = team_cap();
  EXPECT_EQ(util::team_size(4, 1000), std::min(4, cap));
  EXPECT_EQ(util::team_size(4, 2), std::min(2, cap));  // the item count
  EXPECT_EQ(util::team_size(4, 0), 1);
  // Capped by the work floor: three floors' worth feeds three workers.
  EXPECT_EQ(util::team_size(4, 3u << 15, 1u << 15), std::min(3, cap));
  EXPECT_EQ(util::team_size(4, (1u << 15) - 1, 1u << 15), 1);
  EXPECT_EQ(util::team_size(4, 1000, 0), std::min(4, cap));  // 0 = no floor
}

TEST(ForkJoin, TeamsNeverOutnumberTheCpus) {
  // Team sizes only: nothing here starts a thread.
  const int cap = team_cap();
  ASSERT_GE(cap, 1);
  EXPECT_EQ(util::team_size(64, 1u << 20), std::min(64, cap));
  EXPECT_EQ(util::team_size(64, 1000, 0), std::min(64, cap));
  EXPECT_EQ(util::team_size(64, 3), std::min(3, cap));
  EXPECT_EQ(util::team_size(64, 1u << 20, 1u << 18), std::min(4, cap));
  EXPECT_LE(util::team_size(0, 1u << 20), cap);
  // The budget itself is not capped: layouts keyed to it keep their bytes.
  EXPECT_EQ(util::resolve_thread_budget(64), 64);
#ifndef _OPENMP
  // Without OpenMP every team runs on the caller.
  EXPECT_EQ(util::team_size(4, 1u << 20), 1);
#endif
}

TEST(ForkJoin, EveryItemRunsExactlyOnce) {
  const std::vector<std::size_t> sizes{3, 1, 7, 0, 5, 64};
  std::vector<std::size_t> first{0};
  for (const std::size_t n : sizes) first.push_back(first.back() + n);
  for (const int budget : {1, 2, 4}) {
    std::vector<std::atomic<int>> hits(1000);
    util::parallel_for(hits.size(), budget,
                       [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "item " << i << " budget " << budget;
    }

    // Batched: each item once, and none before its whole previous batch.
    std::vector<std::atomic<int>> batch_hits(first.back());
    std::vector<std::atomic<std::size_t>> done(sizes.size());
    std::atomic<bool> in_order{true};
    util::parallel_batches(
        sizes.size(), [&](std::size_t b) { return sizes[b]; }, budget,
        [&](std::size_t b, std::size_t i) {
          if (b > 0 && done[b - 1].load() != sizes[b - 1]) in_order = false;
          batch_hits[first[b] + i].fetch_add(1);
          done[b].fetch_add(1);
        });
    EXPECT_TRUE(in_order.load()) << "budget " << budget;
    for (std::size_t i = 0; i < batch_hits.size(); ++i) {
      ASSERT_EQ(batch_hits[i].load(), 1) << "item " << i << " budget "
                                         << budget;
    }
  }
}

TEST(ForkJoin, ExceptionReachesTheCallerAfterTheTeamJoins) {
  for (const int budget : {1, 2, 4}) {
    std::atomic<int> running{0};
    try {
      util::parallel_for(32, budget, [&](std::size_t i) {
        running.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(300));
        running.fetch_sub(1);
        if (i == 3) throw std::runtime_error("item 3");
      });
      ADD_FAILURE() << "no exception at budget " << budget;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "item 3");
      // Every item that started had finished before the rethrow.
      EXPECT_EQ(running.load(), 0) << "budget " << budget;
    }
  }
}

TEST(ForkJoin, NoBatchRunsAfterAThrowAndNoWorkerHangs) {
  for (const int budget : {1, 2, 4}) {
    std::atomic<std::size_t> last_batch{0};
    std::atomic<int> running{0};
    const auto throwing = [&](std::size_t b, std::size_t i) {
      running.fetch_add(1);
      std::size_t seen = last_batch.load();
      while (b > seen && !last_batch.compare_exchange_weak(seen, b)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      running.fetch_sub(1);
      if (b == 2 && i == 1) throw std::runtime_error("batch 2");
    };
    // Returning at all shows no worker waits at a barrier after the throw.
    EXPECT_THROW(util::parallel_batches(
                     6, [](std::size_t) { return std::size_t{4}; }, budget,
                     throwing),
                 std::runtime_error);
    EXPECT_EQ(last_batch.load(), 2u) << "budget " << budget;
    EXPECT_EQ(running.load(), 0) << "budget " << budget;
    // The same team shape runs again cleanly afterwards.
    std::atomic<int> items{0};
    util::parallel_batches(
        6, [](std::size_t) { return std::size_t{4}; }, budget,
        [&](std::size_t, std::size_t) { items.fetch_add(1); });
    EXPECT_EQ(items.load(), 24) << "budget " << budget;
  }
}

}  // namespace
}  // namespace wavesz
