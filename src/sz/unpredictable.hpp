// Truncation-based binary analysis for unpredictable values (SZ-1.4; paper
// §3.2 contrasts it with waveSZ's verbatim pass-through).
//
// Each value is stored as sign + exponent + only as many leading mantissa
// bits as the absolute error bound requires; dropped low bits introduce an
// error strictly below the bound. Values with |v| <= bound collapse to a
// single "zero" bit. One codec serves float32 and float64 through the
// IEEE format of each: a kept value costs
//   1 flag + kept-bit count + 1 sign + exponent + kept bits.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

namespace wavesz::sz {

/// The IEEE-754 fields of T as the truncation codec writes them:
/// mantissa 23 / 52 bits, exponent 8 / 11 bits with bias 127 / 1023, and a
/// 5 / 6-bit field for the number of kept mantissa bits.
template <typename T>
struct TruncationFormat {
  static_assert(std::is_same_v<T, float> || std::is_same_v<T, double>);
  using Bits = std::conditional_t<sizeof(T) == 4, std::uint32_t,
                                  std::uint64_t>;
  static constexpr int kMantissa = std::numeric_limits<T>::digits - 1;
  static constexpr int kExponent = 8 * static_cast<int>(sizeof(T)) - 1 -
                                   kMantissa;
  static constexpr int kBias = std::numeric_limits<T>::max_exponent - 1;
  static constexpr int kKeptField =
      std::bit_width(static_cast<unsigned>(kMantissa));
  /// The most plain bits one value takes: 38 for float32, 71 for float64.
  static constexpr int kMaxBits = 1 + kKeptField + 1 + kExponent + kMantissa;
};

/// Encode values so each decodes within `bound` of the original. T is
/// named, not deduced, so float32 callers may pass any contiguous float
/// range; float64 callers write truncation_encode<double>.
template <typename T = float>
std::vector<std::uint8_t> truncation_encode(
    std::span<const std::type_identity_t<T>> values, double bound);

/// Decode `count` values produced by truncation_encode<T> with the same
/// bound.
template <typename T = float>
std::vector<T> truncation_decode(std::span<const std::uint8_t> blob,
                                 std::size_t count, double bound);

/// Bits needed to represent one value at the given bound (for cost models).
template <typename T>
int truncation_bits(T value, double bound);

/// The value the decoder will reconstruct for `value` at this bound. The
/// compressor writes this back into its history so that prediction stays
/// closed over decompressor-visible values.
template <typename T>
T truncation_roundtrip(T value, double bound);

}  // namespace wavesz::sz
