// Hand-built DEFLATE and gzip vectors that the encoder never writes but a
// decoder must judge. Shared by tests/deflate_test.cpp and the fuzz seed
// generator (fuzz/fuzz_seed_gen.cpp), so the fuzz corpora start from the
// same malformed streams the unit tests pin.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "deflate/deflate_tables.hpp"
#include "util/bitio.hpp"
#include "util/bytes.hpp"
#include "util/checksum.hpp"

namespace wavesz::deflate::vectors {

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
