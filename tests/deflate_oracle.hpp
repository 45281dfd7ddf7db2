// The Level::Fast parse as it was before the one-pass encoder: one
// std::vector<Token> per call, hash chains with one prev entry per input
// byte, a hash computed separately for find and insert, and a chunked
// engine that tokenizes each chunk whole before coding it. Kept only as the
// oracle of the differential tests, which require the production pass to
// write the same bytes.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "deflate/deflate.hpp"
#include "deflate/parallel.hpp"
#include "util/bitio.hpp"
#include "util/bytes.hpp"

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

}  // namespace wavesz::deflate::oracle
