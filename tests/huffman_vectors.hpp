// Window-edge H* code streams. The H* decode loop reads an 11-bit window per
// lookup: one table entry emits up to four symbols whose codes end inside
// it, and a longer code goes through the two-level table. These streams
// put codes on both sides of that window and at the coder's 24-bit length
// limit, and a hand-built blob gives the two-level table a subtable of
// every depth. They are shared by tests/decode_differential_test.cpp,
// tests/util_test.cpp and the fuzz seed generator (fuzz/fuzz_seed_gen.cpp),
// so the fuzz corpora start from the same edges the unit tests pin.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "sz/compressor.hpp"
#include "util/bitio.hpp"
#include "util/bytes.hpp"
#include "util/dims.hpp"
#include "util/huffman.hpp"

namespace wavesz::huffman_vectors {

/// `counts[i]` copies of `symbols[i]`, shuffled by a fixed seed so codes of
/// every length share windows.
inline std::vector<std::uint16_t> shuffled_stream(
    std::span<const std::uint16_t> symbols,
    std::span<const std::uint64_t> counts) {
  std::vector<std::uint16_t> out;
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    out.insert(out.end(), counts[i], symbols[i]);
  }
  std::mt19937 rng(2024);
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

/// Two symbols in near-equal numbers: every code is 1 bit, so every
/// window entry holds four symbols.
inline std::vector<std::uint16_t> two_symbol_stream() {
  const std::vector<std::uint16_t> symbols{32767, 32768};
  const std::vector<std::uint64_t> counts{4099, 4097};
  return shuffled_stream(symbols, counts);
}

/// Counts 2^12, 2^11, ..., 2, 1, 1: code lengths 1 through 13, so codes of
/// 10, 11 and 12 bits end just inside, on and just past the window edge.
/// Symbol 0 (unpredictable) is among them.
inline std::vector<std::uint16_t> geometric_stream() {
  std::vector<std::uint16_t> symbols;
  std::vector<std::uint64_t> counts;
  for (int i = 0; i <= 12; ++i) {
    symbols.push_back(static_cast<std::uint16_t>(i == 5 ? 0 : 32768 + i));
    counts.push_back(std::uint64_t{1} << (12 - i));
  }
  symbols.push_back(40000);
  counts.push_back(1);
  return shuffled_stream(symbols, counts);
}

/// Fibonacci counts over 25 symbols: the deepest Huffman tree, whose two
/// rarest codes are 24 bits long, the coder's length limit. 196,417
/// symbols, enough for four encode workers; symbol 0 included.
inline std::vector<std::uint16_t> fibonacci_stream() {
  std::vector<std::uint16_t> symbols;
  std::vector<std::uint64_t> counts;
  std::uint64_t a = 1, b = 1;
  for (int i = 0; i < 25; ++i) {
    symbols.push_back(
        static_cast<std::uint16_t>(i == 20 ? 0 : 32768 - 12 + i));
    counts.push_back(a);
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  return shuffled_stream(symbols, counts);
}

/// Code lengths (65,536 entries) of a complete H* code whose two-level
/// table has a subtable of every depth 1..14, and 24-bit codes, the
/// coder's limit: 1,008 10-bit codes fill all root prefixes but 16. The
/// next 14 prefixes take codes whose longest tails run 1, 2, ..., 14 bits
/// past the root: the prefix of tail depth t ends in two codes of 10 + t
/// bits after 2^(t-1) - 1 codes of 9 + t bits, which finish that length.
/// The last two prefixes hold 32,768 24-bit codes. Symbols 0..50172 take
/// the codes in canonical order. The table has 2^10 + (2^1 + ... + 2^14)
/// + 2 x 2^14 = 66,558 entries. The encoder would need about 2^24 symbols
/// to produce these lengths.
inline std::vector<std::uint8_t> deep_code_lengths() {
  std::vector<std::uint8_t> lengths;
  const auto add = [&](std::size_t n, int len) {
    lengths.insert(lengths.end(), n, static_cast<std::uint8_t>(len));
  };
  add(1008, 10);
  add(2, 11);
  for (int t = 2; t <= 14; ++t) {
    add((std::size_t{1} << (t - 1)) - 1, 9 + t);
    add(2, 10 + t);
  }
  add(32768, 24);
  lengths.resize(65536, 0);
  return lengths;
}

/// An H* blob and the symbols it codes.
struct HuffmanBlobVector {
  std::vector<std::uint8_t> blob;
  std::vector<std::uint16_t> symbols;
};

/// A blob in sz::huffman_encode()'s framing over deep_code_lengths(): the
/// first and last symbol of every length 10..24, then 4,000 symbols drawn
/// by a fixed seed.
inline HuffmanBlobVector deep_blob() {
  const auto lengths = deep_code_lengths();
  const auto codes = canonical_codes(lengths);
  HuffmanBlobVector v;
  for (std::uint8_t len = 10; len <= 24; ++len) {
    const auto first = std::find(lengths.begin(), lengths.end(), len);
    const auto last = std::find(lengths.rbegin(), lengths.rend(), len);
    v.symbols.push_back(static_cast<std::uint16_t>(first - lengths.begin()));
    v.symbols.push_back(
        static_cast<std::uint16_t>(lengths.rend() - last - 1));
  }
  std::mt19937 rng(24);
  for (int i = 0; i < 4000; ++i) {
    v.symbols.push_back(static_cast<std::uint16_t>(rng() % 50173));
  }
  BitWriterMSB bw;
  for (const std::uint16_t s : v.symbols) bw.bits(codes[s], lengths[s]);
  const std::uint64_t bits = bw.bit_count();
  ByteWriter w;
  w.u32(50173);
  w.u64(v.symbols.size());
  for (std::size_t s = 0; s < 50173; ++s) {
    w.u16(static_cast<std::uint16_t>(s));
    w.u8(lengths[s]);
  }
  w.u64(bits);
  w.bytes(bw.take());
  v.blob = w.take();
  return v;
}

/// An SZ-1.4 v2 container whose code stream is `codes` with every
/// unpredictable marker (0) turned into 32768 + 13, a symbol none of the
/// streams above uses, so the code lengths stay those of the stream. The
/// field is a 1D walk of integer steps `code - 32768` under the absolute
/// bound 0.5: the previous-value prediction then quantizes each step
/// exactly to its code.
inline std::vector<std::uint8_t> container_with_codes(
    std::vector<std::uint16_t> codes, std::uint32_t chunk_symbols) {
  std::replace(codes.begin(), codes.end(), std::uint16_t{0},
               std::uint16_t{32768 + 13});
  std::vector<float> field(codes.size());
  double walk = 0.0;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    walk += static_cast<double>(codes[i]) - 32768.0;
    field[i] = static_cast<float>(walk);
  }
  sz::Config cfg;
  cfg.mode = sz::EbMode::Absolute;
  cfg.error_bound = 0.5;
  cfg.index_chunk_symbols = chunk_symbols;
  return sz::compress(field, Dims::d1(field.size()), cfg).bytes;
}

}  // namespace wavesz::huffman_vectors
