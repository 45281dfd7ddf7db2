#include "sz/unpredictable.hpp"

#include <algorithm>
#include <cmath>

#include "util/bitio.hpp"
#include "util/error.hpp"

namespace wavesz::sz {
namespace {

/// floor(log2(bound)) for a positive finite bound.
int bound_exponent(double bound) {
  WAVESZ_REQUIRE(bound > 0.0 && std::isfinite(bound),
                 "truncation bound must be positive and finite");
  int e = 0;
  (void)std::frexp(bound, &e);  // bound == f * 2^e, f in [0.5, 1)
  return e - 1;
}

template <typename T>
using Bits = typename TruncationFormat<T>::Bits;

template <typename T>
constexpr Bits<T> kMantissaMask =
    (Bits<T>{1} << TruncationFormat<T>::kMantissa) - 1;

/// The biased exponent field of `bits`.
template <typename T>
int biased_exponent(Bits<T> bits) {
  using F = TruncationFormat<T>;
  return static_cast<int>((bits >> F::kMantissa) &
                          ((Bits<T>{1} << F::kExponent) - 1));
}

/// Number of leading mantissa bits to keep so the truncation error of a
/// value with biased exponent `biased` stays <= 2^e_p <= bound; a
/// subnormal keeps every bit (exact).
template <typename T>
int kept_bits(int biased, int e_p) {
  using F = TruncationFormat<T>;
  return biased == 0 ? F::kMantissa
                     : std::clamp(biased - F::kBias - e_p, 0, F::kMantissa);
}

/// Writes the k-bit value `top` through the writer's 32-bit bits(): a
/// float64 keeps up to 52 bits, so k > 32 goes as two words.
template <typename T>
void put_kept(BitWriterMSB& bw, Bits<T> top, int k) {
  if constexpr (TruncationFormat<T>::kMantissa > 32) {
    if (k > 32) {
      bw.bits(static_cast<std::uint32_t>(top >> 32), k - 32);
      bw.bits(static_cast<std::uint32_t>(top), 32);
      return;
    }
  }
  if (k > 0) bw.bits(static_cast<std::uint32_t>(top), k);
}

/// Reads what put_kept wrote.
template <typename T>
Bits<T> get_kept(BitReaderMSB& br, int k) {
  if constexpr (TruncationFormat<T>::kMantissa > 32) {
    if (k > 32) {
      const auto hi = static_cast<Bits<T>>(br.bits(k - 32)) << 32;
      return hi | br.bits(32);
    }
  }
  return k > 0 ? static_cast<Bits<T>>(br.bits(k)) : Bits<T>{0};
}

}  // namespace

template <typename T>
int truncation_bits(T value, double bound) {
  using F = TruncationFormat<T>;
  if (std::fabs(static_cast<double>(value)) <= bound) return 1;
  const int k = kept_bits<T>(biased_exponent<T>(std::bit_cast<Bits<T>>(value)),
                             bound_exponent(bound));
  return 1 + F::kKeptField + 1 + F::kExponent + k;
}

template <typename T>
T truncation_roundtrip(T value, double bound) {
  using F = TruncationFormat<T>;
  if (std::fabs(static_cast<double>(value)) <= bound) return T{0};
  const auto bits = std::bit_cast<Bits<T>>(value);
  const int k = kept_bits<T>(biased_exponent<T>(bits), bound_exponent(bound));
  const Bits<T> keep_mask =
      k == 0 ? Bits<T>{0}
             : (kMantissaMask<T> >> (F::kMantissa - k)) << (F::kMantissa - k);
  return std::bit_cast<T>(bits & (~kMantissaMask<T> | keep_mask));
}

template <typename T>
std::vector<std::uint8_t> truncation_encode(
    std::span<const std::type_identity_t<T>> values, double bound) {
  using F = TruncationFormat<T>;
  const int e_p = bound_exponent(bound);
  BitWriterMSB bw;
  for (const T v : values) {
    WAVESZ_REQUIRE(std::isfinite(v), "cannot truncation-encode non-finite");
    if (std::fabs(static_cast<double>(v)) <= bound) {
      bw.bits(0, 1);
      continue;
    }
    bw.bits(1, 1);
    const auto bits = std::bit_cast<Bits<T>>(v);
    const int biased = biased_exponent<T>(bits);
    const int k = kept_bits<T>(biased, e_p);
    bw.bits(static_cast<std::uint32_t>(k), F::kKeptField);
    bw.bits(static_cast<std::uint32_t>(bits >> (F::kMantissa + F::kExponent)),
            1);                                                // sign
    bw.bits(static_cast<std::uint32_t>(biased), F::kExponent);  // exponent
    put_kept<T>(bw, (bits & kMantissaMask<T>) >> (F::kMantissa - k), k);
  }
  return bw.take();
}

template <typename T>
std::vector<T> truncation_decode(std::span<const std::uint8_t> blob,
                                 std::size_t count, double bound) {
  using F = TruncationFormat<T>;
  (void)bound;  // symmetric format: bound only affects how many bits exist
  // Every value costs at least one bit; a larger count is a forged header.
  WAVESZ_REQUIRE(count <= blob.size() * 8,
                 "value count exceeds payload capacity");
  BitReaderMSB br(blob);
  std::vector<T> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (br.bit() == 0) {
      out.push_back(T{0});
      continue;
    }
    const int k = static_cast<int>(br.bits(F::kKeptField));
    WAVESZ_REQUIRE(k <= F::kMantissa, "corrupt truncation stream");
    const Bits<T> sign = br.bit();
    const Bits<T> exp = br.bits(F::kExponent);
    const Bits<T> mant = get_kept<T>(br, k) << (F::kMantissa - k);
    out.push_back(std::bit_cast<T>(
        (sign << (F::kMantissa + F::kExponent)) | (exp << F::kMantissa) |
        mant));
  }
  return out;
}

template int truncation_bits<float>(float, double);
template int truncation_bits<double>(double, double);
template float truncation_roundtrip<float>(float, double);
template double truncation_roundtrip<double>(double, double);
template std::vector<std::uint8_t> truncation_encode<float>(
    std::span<const float>, double);
template std::vector<std::uint8_t> truncation_encode<double>(
    std::span<const double>, double);
template std::vector<float> truncation_decode<float>(
    std::span<const std::uint8_t>, std::size_t, double);
template std::vector<double> truncation_decode<double>(
    std::span<const std::uint8_t>, std::size_t, double);

}  // namespace wavesz::sz
