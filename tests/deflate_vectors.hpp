// Hand-built DEFLATE and gzip vectors that the encoder never writes but a
// decoder must judge. Shared by tests/deflate_test.cpp and the fuzz seed
// generator (fuzz/fuzz_seed_gen.cpp), so the fuzz corpora start from the
// same malformed streams the unit tests pin.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "deflate/deflate_tables.hpp"
#include "util/bitio.hpp"
#include "util/bytes.hpp"
#include "util/checksum.hpp"
#include "util/huffman.hpp"

namespace wavesz::deflate::vectors {

/// The plain text of oversubscribed_clc_block().
inline constexpr char kOversubscribedClcText[] =
    "an over-subscribed code-length code";

/// One final dynamic block that decodes to the single byte 'A' and whose
/// header declares `hlit` lit/len code lengths, 268..288. RFC 1951 allows
/// at most 286; the 5-bit field can say 288. HDIST is 1. The code-length
/// codes 1 and 18 have length 1 each, as do 'A', end-of-block and distance
/// code 0; every other length is sent as a zero run.
inline std::vector<std::uint8_t> dynamic_block_with_hlit(int hlit) {
  BitWriterLSB bw;
  bw.bits(1, 1);     // BFINAL
  bw.bits(0b10, 2);  // dynamic Huffman codes
  bw.bits(static_cast<std::uint32_t>(hlit - 257), 5);
  bw.bits(0, 5);  // HDIST 1
  // Code-length code lengths go out in kClcOrder, where symbol 1 is the
  // 18th entry, so 18 of them are sent.
  constexpr std::size_t kHclen = 18;
  bw.bits(static_cast<std::uint32_t>(kHclen - 4), 4);
  for (std::size_t i = 0; i < kHclen; ++i) {
    bw.bits(kClcOrder[i] == 1 || kClcOrder[i] == 18 ? 1u : 0u, 3);
  }
  // Canonical codes: code-length symbol 1 is the bit 0, symbol 18 (a run
  // of 11..138 zeros, 7 extra bits) is the bit 1.
  const auto length_one = [&] { bw.bits(0, 1); };
  const auto zeros = [&](int run) {
    bw.bits(1, 1);
    bw.bits(static_cast<std::uint32_t>(run - 11), 7);
  };
  zeros('A');
  length_one();  // 'A'
  zeros(138);
  zeros(255 - 'A' - 138);
  length_one();  // end-of-block
  zeros(hlit - 257);
  length_one();  // distance code 0
  // Lit/len codes: 'A' is the bit 0, end-of-block the bit 1.
  bw.bits(0, 1);
  bw.bits(1, 1);
  return bw.take();
}

/// Append the canonical code `code` of `len` bits, first code bit first,
/// to the LSB-first DEFLATE stream.
inline void put_code(BitWriterLSB& bw, std::uint32_t code, int len) {
  std::uint32_t reversed = 0;
  for (int i = 0; i < len; ++i) reversed = (reversed << 1) | ((code >> i) & 1u);
  bw.bits(reversed, len);
}

/// The header of one final dynamic block: HLIT = litlen.size() and HDIST =
/// dist.size() code lengths, each sent as its own code-length symbol (no
/// runs) under the code-length code `clc`, whose 19 lengths are in symbol
/// order. Codes come from canonical_codes(), so an over-subscribed `clc`
/// sends the codes an unchecked bit walk would read.
inline void dynamic_header(BitWriterLSB& bw,
                           const std::array<std::uint8_t, kNumClc>& clc,
                           std::span<const std::uint8_t> litlen,
                           std::span<const std::uint8_t> dist) {
  bw.bits(1, 1);     // BFINAL
  bw.bits(0b10, 2);  // dynamic Huffman codes
  bw.bits(static_cast<std::uint32_t>(litlen.size() - 257), 5);
  bw.bits(static_cast<std::uint32_t>(dist.size() - 1), 5);
  std::size_t hclen = kNumClc;
  while (hclen > 4 && clc[kClcOrder[hclen - 1]] == 0) --hclen;
  bw.bits(static_cast<std::uint32_t>(hclen - 4), 4);
  for (std::size_t i = 0; i < hclen; ++i) bw.bits(clc[kClcOrder[i]], 3);
  const auto codes = canonical_codes(clc);
  for (const auto lens : {litlen, dist}) {
    for (const std::uint8_t l : lens) put_code(bw, codes[l], clc[l]);
  }
}

/// One final dynamic block of literals only, whose code-length code is
/// `clc`: bytes 0..254 and end-of-block take 8-bit codes, and the one
/// distance length HDIST sends is 0, an empty distance code (RFC 1951
/// §3.2.7 allows it when no match follows). `clc` must give symbols 0 and
/// 8 codes; `plain` must not hold 0xff.
inline std::vector<std::uint8_t> literal_block(
    const std::array<std::uint8_t, kNumClc>& clc,
    std::span<const std::uint8_t> plain) {
  std::vector<std::uint8_t> litlen(257, 8);
  litlen[255] = 0;
  const std::vector<std::uint8_t> dist{0};
  BitWriterLSB bw;
  dynamic_header(bw, clc, litlen, dist);
  const auto codes = canonical_codes(litlen);
  for (const std::uint8_t b : plain) put_code(bw, codes[b], 8);
  put_code(bw, codes[kEndOfBlock], 8);
  return bw.take();
}

/// literal_block() under a complete code-length code: symbols 0 and 8 at
/// 1 bit each.
inline std::vector<std::uint8_t> literal_only_block(
    std::span<const std::uint8_t> plain) {
  std::array<std::uint8_t, kNumClc> clc{};
  clc[0] = 1;
  clc[8] = 1;
  return literal_block(clc, plain);
}

/// "AAA", then one 3-byte match in a block whose distance code is empty:
/// the match has no distance code to read, so decoders must reject it.
/// The lit/len code is complete: 'A' 1 bit, end-of-block and length
/// symbol 257 (a 3-byte match) 2 bits each.
inline std::vector<std::uint8_t> match_without_distance_code() {
  std::array<std::uint8_t, kNumClc> clc{};
  clc[0] = 1;
  clc[1] = 2;
  clc[2] = 2;
  std::vector<std::uint8_t> litlen(258, 0);
  litlen['A'] = 1;
  litlen[kEndOfBlock] = 2;
  litlen[257] = 2;
  const std::vector<std::uint8_t> dist{0};
  BitWriterLSB bw;
  dynamic_header(bw, clc, litlen, dist);
  const auto codes = canonical_codes(litlen);
  for (int i = 0; i < 3; ++i) put_code(bw, codes['A'], 1);
  put_code(bw, codes[257], 2);
  bw.bits(0, 5);  // where a distance code would go
  put_code(bw, codes[kEndOfBlock], 2);
  return bw.take();
}

/// What match_without_distance_code() would give were its match at
/// distance 1.
inline std::vector<std::uint8_t> match_without_distance_code_plain() {
  return std::vector<std::uint8_t>(6, 'A');
}

/// "ABAB..." (1,000 bytes) under an over-subscribed lit/len set:
/// end-of-block 1 bit, 'A', 'B' and 'C' 2 bits each (Kraft sum 5/4), with
/// one 1-bit distance code. A bit walk that never checks the sum decodes
/// it; zlib rejects it as an "invalid literal/lengths set".
inline std::vector<std::uint8_t> oversubscribed_litlen_block() {
  std::array<std::uint8_t, kNumClc> clc{};
  clc[0] = 1;
  clc[1] = 2;
  clc[2] = 2;
  std::vector<std::uint8_t> litlen(257, 0);
  litlen[kEndOfBlock] = 1;
  litlen['A'] = litlen['B'] = litlen['C'] = 2;
  const std::vector<std::uint8_t> dist{1};
  BitWriterLSB bw;
  dynamic_header(bw, clc, litlen, dist);
  const auto codes = canonical_codes(litlen);
  for (int i = 0; i < 500; ++i) {
    put_code(bw, codes['A'], 2);
    put_code(bw, codes['B'], 2);
  }
  put_code(bw, codes[kEndOfBlock], 1);
  return bw.take();
}

inline std::vector<std::uint8_t> oversubscribed_litlen_plain() {
  std::vector<std::uint8_t> out;
  for (int i = 0; i < 500; ++i) out.insert(out.end(), {'A', 'B'});
  return out;
}

/// The text below under an over-subscribed code-length code: symbols 0, 7
/// and 8 at 1 bit each (Kraft sum 3/2). The header sends only 0 and 7,
/// whose codes a bit walk reads as 0 and 1: literals 0..126 and
/// end-of-block take 7-bit codes, and the distance code is empty.
inline std::vector<std::uint8_t> oversubscribed_clc_block() {
  std::array<std::uint8_t, kNumClc> clc{};
  clc[0] = clc[7] = clc[8] = 1;
  std::vector<std::uint8_t> litlen(257, 0);
  for (int b = 0; b < 127; ++b) litlen[static_cast<std::size_t>(b)] = 7;
  litlen[kEndOfBlock] = 7;
  const std::vector<std::uint8_t> dist{0};
  BitWriterLSB bw;
  dynamic_header(bw, clc, litlen, dist);
  const auto codes = canonical_codes(litlen);
  for (const char c : std::string_view(kOversubscribedClcText)) {
    put_code(bw, codes[static_cast<std::uint8_t>(c)], 7);
  }
  put_code(bw, codes[kEndOfBlock], 7);
  return bw.take();
}

/// The plain text of incomplete_clc_block().
inline constexpr char kIncompleteClcText[] = "an incomplete code-length code";

/// literal_block() of kIncompleteClcText under an incomplete code-length
/// code: symbol 0 at 1 bit and symbol 8 at 2 bits (Kraft sum 3/4). A table
/// that leaves the unused slot invalid decodes it; zlib rejects it as an
/// "invalid code lengths set".
inline std::vector<std::uint8_t> incomplete_clc_block() {
  std::array<std::uint8_t, kNumClc> clc{};
  clc[0] = 1;
  clc[8] = 2;
  const std::string_view text(kIncompleteClcText);
  const std::vector<std::uint8_t> plain(text.begin(), text.end());
  return literal_block(clc, plain);
}

/// "AAAAA" under an incomplete lit/len code: 'A' 1 bit and end-of-block
/// 2 bits (Kraft sum 3/4), with one 1-bit distance code. A table that
/// leaves the unused slot invalid decodes it; zlib rejects it as an
/// "invalid literal/lengths set".
inline std::vector<std::uint8_t> incomplete_litlen_block() {
  std::array<std::uint8_t, kNumClc> clc{};
  clc[0] = 1;
  clc[1] = 2;
  clc[2] = 2;
  std::vector<std::uint8_t> litlen(257, 0);
  litlen['A'] = 1;
  litlen[kEndOfBlock] = 2;
  const std::vector<std::uint8_t> dist{1};
  BitWriterLSB bw;
  dynamic_header(bw, clc, litlen, dist);
  const auto codes = canonical_codes(litlen);
  for (int i = 0; i < 5; ++i) put_code(bw, codes['A'], 1);
  put_code(bw, codes[kEndOfBlock], 2);
  return bw.take();
}

inline std::vector<std::uint8_t> incomplete_litlen_plain() {
  return std::vector<std::uint8_t>(5, 'A');
}

/// An empty block whose lit/len code is end-of-block alone, at 1 bit, and
/// whose distance code is empty. zlib admits an incomplete lit/len code
/// that holds exactly one code of length 1, so it decodes to nothing.
inline std::vector<std::uint8_t> lone_end_of_block_block() {
  std::array<std::uint8_t, kNumClc> clc{};
  clc[0] = 1;
  clc[1] = 1;
  std::vector<std::uint8_t> litlen(257, 0);
  litlen[kEndOfBlock] = 1;
  const std::vector<std::uint8_t> dist{0};
  BitWriterLSB bw;
  dynamic_header(bw, clc, litlen, dist);
  put_code(bw, 0, 1);  // end-of-block
  return bw.take();
}

/// The literals before the reserved symbol of reserved_fixed_symbol_block().
inline constexpr char kReservedFixedPrefix[] = "abc";

/// One final fixed-code block: the literals of kReservedFixedPrefix, one
/// match of length symbol `length_symbol` at distance code `dist_code`,
/// then end-of-block. RFC 1951 §3.2.6 reserves length symbols 286 and 287
/// and distance codes 30 and 31, which take part in the fixed codes but
/// never occur in compressed data, so decoders must reject a block that
/// sends one.
inline std::vector<std::uint8_t> reserved_fixed_symbol_block(int length_symbol,
                                                           int dist_code) {
  const auto lens = fixed_litlen_lengths();
  const auto codes = canonical_codes(lens);
  BitWriterLSB bw;
  const auto put_symbol = [&](int sym) {
    const auto s = static_cast<std::size_t>(sym);
    put_code(bw, codes[s], lens[s]);
  };
  bw.bits(1, 1);     // BFINAL
  bw.bits(0b01, 2);  // fixed Huffman codes
  for (const char c : std::string_view(kReservedFixedPrefix)) {
    put_symbol(static_cast<std::uint8_t>(c));
  }
  put_symbol(length_symbol);
  put_code(bw, static_cast<std::uint32_t>(dist_code), 5);
  put_symbol(kEndOfBlock);
  return bw.take();
}

/// The four reserved fixed-code symbols as (length symbol, distance code):
/// a 3-byte match (symbol 257) where the distance code is the reserved one.
inline constexpr std::array<std::pair<int, int>, 4> kReservedFixedSymbols = {
    {{286, 0}, {287, 0}, {257, 30}, {257, 31}}};

/// A gzip member (RFC 1952): fixed header, the raw DEFLATE `body`, then
/// the CRC-32 and ISIZE of `plain`, the bytes the body decodes to.
inline std::vector<std::uint8_t> gzip_member(
    std::span<const std::uint8_t> body, std::span<const std::uint8_t> plain) {
  ByteWriter w;
  w.u8(0x1f);
  w.u8(0x8b);
  w.u8(8);    // CM = deflate
  w.u8(0);    // FLG
  w.u32(0);   // MTIME
  w.u8(4);    // XFL
  w.u8(255);  // OS
  w.bytes(body);
  w.u32(Crc32::of(plain));
  w.u32(static_cast<std::uint32_t>(plain.size()));
  return w.take();
}

/// `member` with `gap` zero bytes inserted between the end of its DEFLATE
/// stream and its 8-byte trailer.
inline std::vector<std::uint8_t> with_gap_before_trailer(
    std::vector<std::uint8_t> member, std::size_t gap) {
  member.insert(member.end() - 8, gap, std::uint8_t{0});
  return member;
}

}  // namespace wavesz::deflate::vectors
