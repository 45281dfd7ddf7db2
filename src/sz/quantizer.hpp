// Linear-scaling quantization, a faithful implementation of the paper's
// Algorithm 1 ("Computation of prediction, quantization, and decompression").
//
// Given precision p (the absolute error bound), radius r and the maximum
// quantizable magnitude `capacity`:
//
//   diff   = d - pred
//   code0  = floor(|diff| / p) + 1          (integer bin index, 1-based)
//   if code0 < capacity:
//     code0 = signum(diff) * code0
//     code  = trunc(code0 / 2) + r          (stored 16-bit symbol)
//     d_re  = pred + 2 * (code - r) * p     (in-loop decompressed value)
//     accept iff |d_re - d| <= p            (overbound check, line 10)
//   else: unpredictable (code 0)
//
// code 0 is reserved for unpredictable points in every SZ variant. The
// quantizer scales by a precomputed reciprocal (the overbound check keeps
// the contract exact either way); at a power-of-two bound (EbBase::Two)
// the reciprocal is exact, so the multiply is the hardware exponent-add of
// §3.3 and bit-identical to division (tested property). One body serves
// float32 and float64 data: only the width the reconstruction is stored
// at differs.
#pragma once

#include <cmath>
#include <cstdint>

#include "util/error.hpp"

namespace wavesz::sz {

template <typename T>
struct QuantResultT {
  std::uint16_t code = 0;  ///< 0 => unpredictable
  T reconstructed = 0;     ///< valid when code != 0
};
using QuantResult = QuantResultT<float>;

class LinearQuantizer {
 public:
  LinearQuantizer(double precision, int quant_bits)
      : p_(precision), inv_p_(1.0 / precision),
        capacity_(1u << quant_bits), radius_(capacity_ / 2) {
    WAVESZ_REQUIRE(precision > 0.0, "precision must be positive");
    WAVESZ_REQUIRE(quant_bits >= 2 && quant_bits <= 16,
                   "quantization symbols are stored as 16-bit codes");
  }

  double precision() const { return p_; }
  double inv_precision() const { return inv_p_; }
  std::uint32_t capacity() const { return capacity_; }
  std::uint32_t radius() const { return radius_; }

  /// Quantize `orig` against `pred` for data stored as T (float or double).
  template <typename T = float>
  QuantResultT<T> quantize(double pred, double orig) const {
    const double diff = orig - pred;
    // Reciprocal multiply: cheaper than division on the loop-carried
    // dependency chain; the explicit overbound check below keeps the error
    // contract exact regardless of the rounding of inv_p_.
    const double scaled = std::fabs(diff) * inv_p_;
    if (!(scaled < static_cast<double>(capacity_ - 1))) {
      return {};  // too far from the prediction (or NaN): unpredictable
    }
    const auto code0 = static_cast<std::int64_t>(scaled) + 1;
    const std::int64_t signed0 = diff >= 0.0 ? code0 : -code0;
    const std::int64_t q = signed0 / 2;  // trunc toward zero, as cast does
    const std::int64_t code = q + static_cast<std::int64_t>(radius_);
    if (code <= 0 || code >= static_cast<std::int64_t>(capacity_)) {
      return {};
    }
    const auto rec = static_cast<T>(pred + 2.0 * static_cast<double>(q) * p_);
    if (!(std::fabs(static_cast<double>(rec) - orig) <= p_)) {
      return {};  // overbound check (rounding to T at the cell edge)
    }
    return {static_cast<std::uint16_t>(code), rec};
  }

  /// Reconstruction used by the decompressor; code must be nonzero.
  template <typename T = float>
  T reconstruct(double pred, std::uint16_t code) const {
    const std::int64_t q =
        static_cast<std::int64_t>(code) - static_cast<std::int64_t>(radius_);
    return static_cast<T>(pred + 2.0 * static_cast<double>(q) * p_);
  }

 private:
  double p_;
  double inv_p_;
  std::uint32_t capacity_;
  std::uint32_t radius_;
};

}  // namespace wavesz::sz
