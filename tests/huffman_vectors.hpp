// Window-edge H* code streams. The H* decode loop reads an 11-bit window per
// lookup: one table entry emits up to four symbols whose codes end inside
// it, and a longer code goes through the two-level table. These streams
// put codes on both sides of that window and at the coder's 24-bit length
// limit. They are shared by tests/decode_differential_test.cpp and the fuzz
// seed generator (fuzz/fuzz_seed_gen.cpp), so the fuzz corpora start from
// the same edges the unit tests pin.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "sz/compressor.hpp"
#include "util/dims.hpp"

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
