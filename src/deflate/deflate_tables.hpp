// RFC 1951 constant tables: length/distance code bases and extra-bit counts,
// the code-length alphabet permutation, and the fixed Huffman code lengths.
#pragma once

#include <array>
#include <cstdint>

#include "util/error.hpp"

namespace wavesz::deflate {

inline constexpr int kEndOfBlock = 256;
inline constexpr int kNumLitLen = 288;  // 0..287 (286/287 reserved)
inline constexpr int kMaxHlit = 286;    // most lit/len lengths a header sends
inline constexpr int kNumDist = 30;
inline constexpr int kNumClc = 19;  // code-length alphabet

// Length codes 257..285.
inline constexpr std::array<std::uint16_t, 29> kLengthBase = {
    3,  4,  5,  6,  7,  8,  9,  10, 11,  13,  15,  17,  19,  23, 27,
    31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
inline constexpr std::array<std::uint8_t, 29> kLengthExtra = {
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2,
    2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0};

// Distance codes 0..29.
inline constexpr std::array<std::uint16_t, 30> kDistBase = {
    1,    2,    3,    4,    5,    7,     9,     13,    17,   25,
    33,   49,   65,   97,   129,  193,   257,   385,   513,  769,
    1025, 1537, 2049, 3073, 4097, 6145,  8193,  12289, 16385, 24577};
inline constexpr std::array<std::uint8_t, 30> kDistExtra = {
    0, 0, 0, 0, 1, 1, 2, 2,  3,  3,  4,  4,  5,  5,  6,
    6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

// Order in which code-length-code lengths appear in the dynamic header.
inline constexpr std::array<std::uint8_t, 19> kClcOrder = {
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15};

namespace detail {

/// Index of the last entry of ascending `base` that is <= `value`.
template <std::size_t N>
constexpr std::uint8_t code_for(const std::array<std::uint16_t, N>& base,
                                std::size_t value) {
  std::size_t c = 0;
  while (c + 1 < N && value >= base[c + 1]) ++c;
  return static_cast<std::uint8_t>(c);
}

/// Length code index per match length, indexed by the length itself.
inline constexpr std::array<std::uint8_t, 259> kLengthCodeOf = [] {
  std::array<std::uint8_t, 259> t{};
  for (std::size_t len = 3; len < t.size(); ++len) {
    t[len] = code_for(kLengthBase, len);
  }
  return t;
}();

/// Distance code index in zlib's two-range layout: `distance - 1` for
/// distances up to 256, then `256 + ((distance - 1) >> 7)`. Every code from
/// 16 up spans a multiple of 128 distances starting at 128k + 1, so the
/// shifted index never straddles two codes.
inline constexpr std::array<std::uint8_t, 512> kDistCodeOf = [] {
  std::array<std::uint8_t, 512> t{};
  for (std::size_t d = 1; d <= 256; ++d) t[d - 1] = code_for(kDistBase, d);
  for (std::size_t k = 2; k < 256; ++k) {
    t[256 + k] = code_for(kDistBase, 128 * k + 1);
  }
  return t;
}();

}  // namespace detail

/// Length code index (0-based into kLengthBase) for a match length 3..258.
inline int length_code(int length) {
  WAVESZ_ASSERT(length >= 3 && length <= 258, "match length out of range");
  return detail::kLengthCodeOf[static_cast<std::size_t>(length)];
}

/// Distance code index for a distance 1..32768.
inline int distance_code(int distance) {
  WAVESZ_ASSERT(distance >= 1 && distance <= 32768,
                "match distance out of range");
  const auto d = static_cast<std::size_t>(distance - 1);
  return detail::kDistCodeOf[d < 256 ? d : 256 + (d >> 7)];
}

/// Fixed lit/len code lengths per RFC 1951 §3.2.6.
std::array<std::uint8_t, kNumLitLen> fixed_litlen_lengths();

/// Fixed distance code lengths (5 bits each; table has 30 usable codes).
std::array<std::uint8_t, kNumDist> fixed_dist_lengths();

}  // namespace wavesz::deflate
