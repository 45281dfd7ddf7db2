// Oracles of the DEFLATE substrate, kept beside the tests that compare the
// production code with them:
//  * the Level::Fast parse as it was before the one-pass encoder: one
//    std::vector<Token> per call, hash chains with one prev entry per input
//    byte, a hash computed separately for find and insert, and a chunked
//    engine that tokenizes each chunk whole before coding it. The
//    production pass must write the same bytes;
//  * a bit-at-a-time inflater and gzip reader over the canonical walk of
//    huffman_oracle.hpp, with the block-header, stored-block and trailer
//    checks of deflate.cpp and zlib's admission rule for the codes of a
//    dynamic header. The table-driven decoders must give the same
//    bytes and the same verdict on every input.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "deflate/deflate.hpp"
#include "deflate/deflate_tables.hpp"
#include "deflate/parallel.hpp"
#include "huffman_oracle.hpp"
#include "util/bitio.hpp"
#include "util/bytes.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"

namespace wavesz::deflate::oracle {

inline int match_extend(const std::uint8_t* a, const std::uint8_t* b,
                        int max_len) {
  int len = 0;
  while (len + 8 <= max_len) {
    const std::uint64_t diff = load_le64(a + len) ^ load_le64(b + len);
    if (diff != 0) return len + (std::countr_zero(diff) >> 3);
    len += 8;
  }
  while (len < max_len && a[len] == b[len]) ++len;
  return len;
}

inline std::uint32_t hash3(const std::uint8_t* p) {
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - 15);
}

/// Greedy parse, chain 8, nice length 32, of `input[dict_len..]`.
inline std::vector<Token> tokenize_fast(std::span<const std::uint8_t> input,
                                        std::size_t dict_len = 0) {
  constexpr std::uint32_t kNil = 0xffffffffu;
  constexpr int kMaxChain = 8;
  constexpr int kNice = 32;
  std::vector<Token> out;
  const std::size_t n = input.size();
  if (n == 0 || dict_len == n) return out;
  std::vector<std::uint32_t> head(1u << 15, kNil);
  std::vector<std::uint32_t> prev(n, kNil);
  const std::uint8_t* base = input.data();
  const auto insert = [&](std::size_t p) {
    const std::uint32_t h = hash3(base + p);
    prev[p] = head[h];
    head[h] = static_cast<std::uint32_t>(p);
  };
  const auto find = [&](std::size_t pos) -> std::pair<int, std::size_t> {
    int best_len = 0;
    std::size_t best_dist = 0;
    const std::size_t limit = pos >= kWindowSize ? pos - kWindowSize : 0;
    const int max_len =
        static_cast<int>(std::min<std::size_t>(kMaxMatch, n - pos));
    if (max_len < kMinMatch) return {0, 0};
    std::uint32_t cand = head[hash3(base + pos)];
    int chain = kMaxChain;
    while (cand != kNil && cand >= limit && chain-- > 0) {
      const auto c = static_cast<std::size_t>(cand);
      if (c < pos && base[c + static_cast<std::size_t>(best_len)] ==
                         base[pos + static_cast<std::size_t>(best_len)]) {
        const int len = match_extend(base + c, base + pos, max_len);
        if (len > best_len) {
          best_len = len;
          best_dist = pos - c;
          if (len >= kNice || len >= max_len) break;
        }
      }
      cand = prev[c];
    }
    if (best_len < kMinMatch) return {0, 0};
    return {best_len, best_dist};
  };
  for (std::size_t p = 0; p < dict_len && p + kMinMatch <= n; ++p) insert(p);
  std::size_t pos = dict_len;
  while (pos < n) {
    if (pos + kMinMatch > n) {
      out.push_back(Token{0, base[pos]});
      ++pos;
      continue;
    }
    const auto [len, dist] = find(pos);
    if (len >= kMinMatch) {
      out.push_back(Token{static_cast<std::uint16_t>(len),
                          static_cast<std::uint16_t>(dist)});
      for (std::size_t k = 0; k < static_cast<std::size_t>(len) &&
                              pos + k + kMinMatch <= n;
           ++k) {
        insert(pos + k);
      }
      pos += static_cast<std::size_t>(len);
    } else {
      insert(pos);
      out.push_back(Token{0, base[pos]});
      ++pos;
    }
  }
  return out;
}

/// compress(input, Level::Fast) through the oracle parse.
inline std::vector<std::uint8_t> compress_fast(
    std::span<const std::uint8_t> input) {
  BitWriterLSB bw;
  detail::deflate_blocks(bw, input, tokenize_fast(input), true);
  return bw.take();
}

/// compress_parallel(input, Level::Fast, opts) on its chunked path, through
/// the oracle parse.
inline std::vector<std::uint8_t> compress_fast_chunked(
    std::span<const std::uint8_t> input, std::size_t chunk_bytes) {
  const std::size_t n = input.size();
  const std::size_t chunks =
      std::max<std::size_t>(1, (n + chunk_bytes - 1) / chunk_bytes);
  BitWriterLSB whole;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t offset = c * chunk_bytes;
    const std::size_t dict = std::min(kWindowSize, offset);
    const auto window = input.subspan(
        offset - dict, dict + std::min(chunk_bytes, n - offset));
    BitWriterLSB bw;
    detail::deflate_blocks(bw, window.subspan(dict),
                           tokenize_fast(window, dict), c + 1 == chunks);
    if (c + 1 < chunks) detail::sync_flush(bw);
    const std::size_t nbits = bw.bit_count();
    whole.append(bw.take(), nbits);
  }
  return whole.take();
}

/// Bytes of a raw DEFLATE stream, and how many input bytes it took.
struct Inflated {
  std::vector<std::uint8_t> bytes;
  std::size_t consumed = 0;
};

/// zlib's inflate_table verdict on one code of a dynamic header, counted
/// down the code tree as zlib counts it: over-subscribed sets are left to
/// CanonicalWalk, and an incomplete one passes only as an empty code (then
/// every decode of it fails) or, outside the code-length code, as a single
/// code of length 1.
inline void require_zlib_admits(std::span<const std::uint8_t> lens,
                                bool code_lengths) {
  std::array<int, 16> count{};
  for (const std::uint8_t l : lens) ++count[l];
  int max = 0;
  int left = 1;
  for (int len = 1; len <= 15; ++len) {
    left = 2 * left - count[static_cast<std::size_t>(len)];
    if (left < 0) return;
    if (count[static_cast<std::size_t>(len)] > 0) max = len;
  }
  WAVESZ_REQUIRE(max == 0 || left == 0 || (!code_lengths && max == 1),
                 "incomplete Huffman code");
}

/// Decode one Huffman-coded block's symbols onto `out`.
inline void inflate_codes(BitReaderLSB& br,
                          const wavesz::oracle::CanonicalWalk& litlen,
                          const wavesz::oracle::CanonicalWalk& dist,
                          std::vector<std::uint8_t>& out) {
  const auto next_bit = [&] { return br.bit(); };
  for (;;) {
    const std::uint32_t sym = litlen.decode(next_bit);
    if (sym < 256) {
      out.push_back(static_cast<std::uint8_t>(sym));
      continue;
    }
    if (sym == kEndOfBlock) return;
    WAVESZ_REQUIRE(sym <= 285, "invalid length symbol");
    const std::size_t lc = sym - 257;
    const std::uint32_t length = kLengthBase[lc] + br.bits(kLengthExtra[lc]);
    const std::uint32_t dsym = dist.decode(next_bit);
    WAVESZ_REQUIRE(dsym < kNumDist, "invalid distance symbol");
    const std::uint32_t distance = kDistBase[dsym] + br.bits(kDistExtra[dsym]);
    WAVESZ_REQUIRE(distance <= out.size(),
                   "distance reaches before stream start");
    const std::size_t from = out.size() - distance;
    for (std::uint32_t k = 0; k < length; ++k) out.push_back(out[from + k]);
  }
}

/// decompress(), one code bit per walk step.
inline Inflated inflate_stream(std::span<const std::uint8_t> input) {
  using wavesz::oracle::CanonicalWalk;
  BitReaderLSB br(input);
  std::vector<std::uint8_t> out;
  for (;;) {
    const bool final_block = br.bit() != 0;
    const std::uint32_t type = br.bits(2);
    if (type == 0b00) {
      br.align_byte();
      const std::uint32_t len_lo = br.byte();
      const std::uint32_t len_hi = br.byte();
      const std::uint32_t nlen_lo = br.byte();
      const std::uint32_t nlen_hi = br.byte();
      const std::uint32_t len = len_lo | (len_hi << 8);
      WAVESZ_REQUIRE((len ^ 0xffffu) == (nlen_lo | (nlen_hi << 8)),
                     "stored block LEN/NLEN mismatch");
      for (std::uint32_t i = 0; i < len; ++i) out.push_back(br.byte());
    } else if (type == 0b01) {
      const auto ll = fixed_litlen_lengths();
      const auto dd = fixed_dist_lengths();
      inflate_codes(br, CanonicalWalk(ll), CanonicalWalk(dd), out);
    } else if (type == 0b10) {
      const std::uint32_t hlit = br.bits(5) + 257;
      const std::uint32_t hdist = br.bits(5) + 1;
      const std::uint32_t hclen = br.bits(4) + 4;
      WAVESZ_REQUIRE(hlit <= kMaxHlit && hdist <= kNumDist,
                     "dynamic header counts out of range");
      std::array<std::uint8_t, kNumClc> clc_lens{};
      for (std::uint32_t i = 0; i < hclen; ++i) {
        clc_lens[kClcOrder[i]] = static_cast<std::uint8_t>(br.bits(3));
      }
      require_zlib_admits(clc_lens, true);
      const CanonicalWalk clc(clc_lens);
      std::vector<std::uint8_t> lens;
      while (lens.size() < hlit + hdist) {
        const std::uint32_t sym = clc.decode([&] { return br.bit(); });
        if (sym <= 15) {
          lens.push_back(static_cast<std::uint8_t>(sym));
        } else if (sym == 16) {
          WAVESZ_REQUIRE(!lens.empty(), "repeat with no previous length");
          const std::uint8_t prev = lens.back();
          lens.insert(lens.end(), 3 + br.bits(2), prev);
        } else {
          lens.insert(lens.end(), sym == 17 ? 3 + br.bits(3) : 11 + br.bits(7),
                      std::uint8_t{0});
        }
      }
      WAVESZ_REQUIRE(lens.size() == hlit + hdist,
                     "code-length run overshoots header");
      const std::span<const std::uint8_t> all(lens);
      WAVESZ_REQUIRE(all[kEndOfBlock] > 0, "no end-of-block code");
      require_zlib_admits(all.first(hlit), false);
      require_zlib_admits(all.subspan(hlit), false);
      inflate_codes(br, CanonicalWalk(all.first(hlit)),
                    CanonicalWalk(all.subspan(hlit)), out);
    } else {
      throw Error("reserved DEFLATE block type");
    }
    if (final_block) break;
  }
  return {std::move(out), br.consumed()};
}

inline std::vector<std::uint8_t> inflate(std::span<const std::uint8_t> input) {
  return inflate_stream(input).bytes;
}

/// gzip_decompress(): the fixed 10-byte header, the DEFLATE body ending
/// exactly at the 8-byte trailer, and its CRC-32 and ISIZE.
inline std::vector<std::uint8_t> gunzip(std::span<const std::uint8_t> member) {
  WAVESZ_REQUIRE(member.size() >= 18, "gzip member too short");
  WAVESZ_REQUIRE(member[0] == 0x1f && member[1] == 0x8b && member[2] == 8 &&
                     member[3] == 0,
                 "unsupported gzip header");
  const auto body = member.subspan(10, member.size() - 18);
  Inflated run = inflate_stream(body);
  WAVESZ_REQUIRE(run.consumed == body.size(),
                 "bytes between DEFLATE stream and trailer");
  ByteReader tail(member.subspan(member.size() - 8));
  WAVESZ_REQUIRE(tail.u32() == Crc32::of(run.bytes), "gzip CRC mismatch");
  WAVESZ_REQUIRE(tail.u32() == static_cast<std::uint32_t>(run.bytes.size()),
                 "gzip ISIZE mismatch");
  return std::move(run.bytes);
}

}  // namespace wavesz::deflate::oracle
