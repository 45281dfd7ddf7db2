// Internal building blocks of the SZ-1.4 Lorenzo PQD kernels, shared by the
// serial kernels (compressor.cpp) and the tiled anti-diagonal wavefront
// schedule (wavefront_pqd.cpp).
//
// Every schedule must produce bit-identical results — they only change the
// visit order, never a point's arithmetic — so everything a point computes
// (prediction path selection, stencil term order, quantizer entry, history
// writeback) lives here exactly once and every kernel inlines the same code.
// The 1-layer rank-2 and rank-3 kernels visit points in the skewed row walk
// below; rank 1 and the 2-layer stencil keep the raster loop, which also
// stays as the oracle the tests and bench/pqd_parallel compare against.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "sz/compressor.hpp"
#include "sz/config.hpp"
#include "sz/predictor.hpp"
#include "sz/quantizer.hpp"
#include "sz/unpredictable.hpp"
#include "util/dims.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace wavesz::sz::detail {

/// Zero-padded accessor over the reconstructed field: any index off the grid
/// reads as 0.0, which collapses the Lorenzo stencil to its reduced-dimension
/// form on borders.
template <typename T>
struct Padded {
  const T* rec;
  std::size_t d0, d1, d2;

  double at(std::ptrdiff_t i0, std::ptrdiff_t i1, std::ptrdiff_t i2) const {
    if (i0 < 0 || i1 < 0 || i2 < 0) return 0.0;
    return rec[(static_cast<std::size_t>(i0) * d1 +
                static_cast<std::size_t>(i1)) *
                   d2 +
               static_cast<std::size_t>(i2)];
  }
};

template <typename T>
double predict(const Padded<T>& p, int rank, PredictorKind kind,
               std::ptrdiff_t i0, std::ptrdiff_t i1, std::ptrdiff_t i2) {
  if (kind == PredictorKind::Lorenzo2Layer) {
    // Supported for 1D/2D (the 3D 2-layer stencil has 26 taps and is not
    // part of this reproduction); enforced at compress() time.
    if (rank == 1) {
      return lorenzo1d_2layer(p.at(i0 - 1, 0, 0), p.at(i0 - 2, 0, 0));
    }
    return lorenzo2d_2layer(p.at(i0, i1 - 1, 0), p.at(i0, i1 - 2, 0),
                            p.at(i0 - 1, i1, 0), p.at(i0 - 1, i1 - 1, 0),
                            p.at(i0 - 1, i1 - 2, 0), p.at(i0 - 2, i1, 0),
                            p.at(i0 - 2, i1 - 1, 0), p.at(i0 - 2, i1 - 2, 0));
  }
  switch (rank) {
    case 1:
      return lorenzo1d(p.at(i0 - 1, 0, 0));
    case 2:
      return lorenzo2d(p.at(i0 - 1, i1 - 1, 0), p.at(i0 - 1, i1, 0),
                       p.at(i0, i1 - 1, 0));
    default:
      return lorenzo3d(p.at(i0 - 1, i1 - 1, i2 - 1), p.at(i0 - 1, i1 - 1, i2),
                       p.at(i0 - 1, i1, i2 - 1), p.at(i0, i1 - 1, i2 - 1),
                       p.at(i0 - 1, i1, i2), p.at(i0, i1 - 1, i2),
                       p.at(i0, i1, i2 - 1));
  }
}

struct Shape {
  std::size_t n0, n1, n2;
};

inline Shape shape_of(const Dims& dims) {
  return {dims[0], dims.rank >= 2 ? dims[1] : 1,
          dims.rank >= 3 ? dims[2] : 1};
}

/// The half-open box [lo0,hi0) x [lo1,hi1) x [lo2,hi2) of a Shape.
struct Box {
  std::size_t lo0, hi0, lo1, hi1, lo2, hi2;
};

inline Box whole(const Shape& s) { return {0, s.n0, 0, s.n1, 0, s.n2}; }

/// Branch-free Lorenzo prediction for interior points (every coordinate
/// > 0): direct strided loads, term order identical to lorenzo{1,2,3}d so
/// the result is bit-equal to the generic Padded path.
template <typename T>
double predict_interior(const T* rec, int rank, std::size_t s0,
                        std::size_t s1, std::size_t i) {
  switch (rank) {
    case 1:
      return static_cast<double>(rec[i - 1]);
    case 2:
      // Row stride of a rank-2 grid is s0 (= n1, since n2 == 1).
      return static_cast<double>(rec[i - s0]) +
             static_cast<double>(rec[i - 1]) -
             static_cast<double>(rec[i - s0 - 1]);
    default:
      return static_cast<double>(rec[i - s0]) +
             static_cast<double>(rec[i - s1]) +
             static_cast<double>(rec[i - 1]) -
             static_cast<double>(rec[i - s0 - s1]) -
             static_cast<double>(rec[i - s0 - 1]) -
             static_cast<double>(rec[i - s1 - 1]) +
             static_cast<double>(rec[i - s0 - s1 - 1]);
  }
}

/// Quantize data[i] against `pred`, write the code and the
/// decompressor-visible history. Returns false when the point is
/// unpredictable (code 0).
template <typename T>
inline bool pqd_point(const T* data, T* rec, std::uint16_t* codes,
                      const LinearQuantizer& q, double pred, std::size_t i) {
  const auto r = q.quantize<T>(pred, data[i]);
  codes[i] = r.code;
  if (r.code != 0) {
    rec[i] = r.reconstructed;
    return true;
  }
  // History must hold what the decompressor will see: the truncation-decoded
  // value, not the original.
  rec[i] = truncation_roundtrip(data[i], q.precision());
  return false;
}

/// The prediction at point (i0, i1, i2) / raster index i: the branch-free
/// interior form when every 1-layer tap is on the grid, the padded form on
/// borders and for the 2-layer stencil.
template <typename T>
inline double predict_at(const Padded<T>& padded, const Dims& dims,
                         PredictorKind kind, std::size_t s0, std::size_t s1,
                         std::size_t i0, std::size_t i1, std::size_t i2,
                         std::size_t i) {
  if (kind == PredictorKind::Lorenzo1Layer && i0 > 0 &&
      (dims.rank < 2 || i1 > 0) && (dims.rank < 3 || i2 > 0)) {
    return predict_interior(padded.rec, dims.rank, s0, s1, i);
  }
  return predict(padded, dims.rank, kind, static_cast<std::ptrdiff_t>(i0),
                 static_cast<std::ptrdiff_t>(i1),
                 static_cast<std::ptrdiff_t>(i2));
}

/// One compress-side PQD step at point (i0, i1, i2) / raster index i:
/// predict_at, then pqd_point. Returns false when the point is
/// unpredictable — the caller owns collecting data[i] into the raster-order
/// unpredictable stream.
template <typename T>
inline bool pqd_step(const T* data, T* rec, std::uint16_t* codes,
                     const Padded<T>& padded, const LinearQuantizer& q,
                     const Dims& dims, PredictorKind kind, std::size_t s0,
                     std::size_t s1, std::size_t i0, std::size_t i1,
                     std::size_t i2, std::size_t i) {
  return pqd_point(data, rec, codes, q,
                   predict_at(padded, dims, kind, s0, s1, i0, i1, i2, i), i);
}

/// One decompress-side step for a quantized point (codes[i] != 0).
template <typename T>
inline T reconstruct_step(const std::uint16_t* codes, const Padded<T>& padded,
                          const LinearQuantizer& q, const Dims& dims,
                          PredictorKind kind, std::size_t s0, std::size_t s1,
                          std::size_t i0, std::size_t i1, std::size_t i2,
                          std::size_t i) {
  return q.reconstruct<T>(
      predict_at(padded, dims, kind, s0, s1, i0, i1, i2, i), codes[i]);
}

/// POD view of the quantizer for the simd kernels (which must not depend on
/// the sz layer).
inline simd::QuantSpec quant_spec(const LinearQuantizer& q) {
  return {q.precision(), q.inv_precision(),
          static_cast<std::int64_t>(q.capacity()),
          static_cast<std::int64_t>(q.radius())};
}

/// Rows one group of the skewed walk keeps in flight: the dependency chains
/// the core overlaps. 4 beat 2, 8 and 16 for both ranks (EXPERIMENTS.md,
/// "Skewed row walk").
inline constexpr std::size_t kWalkRows = 4;

/// The skewed row walk of the 1-layer Lorenzo stencil over box `b` of a
/// rank-`Rank` grid (2 or 3). Rows run along the last axis; a rank-2 grid is
/// one plane of rows. Rows go in groups of R = kWalkRows, and at step t
/// row k of a group visits column lo + t - k, so the R points of a step
/// read only points of earlier steps, rows or planes and never each other.
/// Grid borders (plane 0 at rank 3, row 0) go row by row and the first R
/// steps of each group (its ramp, which holds the box's first column) go
/// through `border(i0, i1, i2, i)`; every later point has all coordinates
/// > 0 and goes through `interior(i)`. Requires the points below the box
/// on every axis to be complete. Flattened: at rank 3 gcc otherwise keeps
/// `interior` a call, and the R chains no longer overlap.
template <int Rank, typename Border, typename Interior>
[[gnu::flatten]] void skewed_walk(const Shape& s, const Box& b,
                                  Border&& border, Interior&& interior) {
  static_assert(Rank == 2 || Rank == 3);
  constexpr std::size_t R = kWalkRows;
  constexpr bool kPlanes = Rank == 3;
  const std::size_t sr = kPlanes ? s.n2 : s.n1;  // row stride
  const std::size_t sp = s.n1 * s.n2;            // plane stride
  const std::size_t p_lo = kPlanes ? b.lo0 : 0, p_hi = kPlanes ? b.hi0 : 1;
  const std::size_t r_lo = kPlanes ? b.lo1 : b.lo0;
  const std::size_t r_hi = kPlanes ? b.hi1 : b.hi0;
  const std::size_t c_lo = kPlanes ? b.lo2 : b.lo1;
  const std::size_t w = (kPlanes ? b.hi2 : b.hi1) - c_lo;
  for (std::size_t p = p_lo; p < p_hi; ++p) {
    const auto at = [&](std::size_t row, std::size_t col) {
      const std::size_t i = p * sp + row * sr + col;
      if constexpr (kPlanes) {
        border(p, row, col, i);
      } else {
        border(row, col, std::size_t{0}, i);
      }
    };
    std::size_t row = r_lo;
    const std::size_t border_end =
        kPlanes && p == 0 ? r_hi : std::clamp<std::size_t>(1, r_lo, r_hi);
    for (; row < border_end; ++row) {
      for (std::size_t c = 0; c < w; ++c) at(row, c_lo + c);
    }
    for (; row < r_hi; row += R) {
      const std::size_t g = std::min(R, r_hi - row);
      const std::size_t steps = w + g - 1;  // row k ends at step w - 1 + k
      const std::size_t base = p * sp + row * sr + c_lo;
      std::size_t t = 0;
      for (; t < std::min(R, steps); ++t) {
        for (std::size_t k = t >= w ? t - w + 1 : 0; k < std::min(g, t + 1);
             ++k) {
          at(row + k, c_lo + t - k);
        }
      }
      // Row k's point of step t sits at base + k * sr + t - k. A full group
      // spells its R points out, so the core sees R chains side by side.
      if (g == R) {
        for (; t < w; ++t) {
          [&]<std::size_t... K>(std::index_sequence<K...>) {
            (interior(base + t + K * (sr - 1)), ...);
          }(std::make_index_sequence<R>{});
        }
      }
      for (; t < steps; ++t) {
        for (std::size_t k = t >= w ? t - w + 1 : 0; k < g; ++k) {
          interior(base + t + k * (sr - 1));
        }
      }
    }
  }
}

/// Runs `fn(std::integral_constant<int, rank>)` for a rank-2 or rank-3 grid.
template <typename Fn>
void with_walk_rank(int rank, Fn&& fn) {
  if (rank == 3) {
    fn(std::integral_constant<int, 3>{});
  } else {
    fn(std::integral_constant<int, 2>{});
  }
}

/// Whether lorenzo_pqd_t / lorenzo_reconstruct_t take the skewed walk.
inline bool walks(const Dims& dims, PredictorKind kind) {
  return kind == PredictorKind::Lorenzo1Layer && dims.rank >= 2;
}

/// 1-layer Lorenzo PQD of box `b` of a rank-2/3 field in the skewed walk:
/// codes and history only; the caller collects the unpredictable stream.
/// The interior body captures by value: its copy of the quantizer cannot
/// alias the history it stores, so the fields stay in registers.
template <typename T>
void pqd_box(const T* data, T* rec, std::uint16_t* codes,
             const LinearQuantizer& q, const Dims& dims, const Box& b) {
  const Shape s = shape_of(dims);
  const Padded<T> padded{rec, s.n0, s.n1, s.n2};
  const std::size_t s1 = s.n2, s0 = s.n1 * s.n2;
  with_walk_rank(dims.rank, [&](auto rank) {
    skewed_walk<decltype(rank)::value>(
        s, b,
        [&](std::size_t i0, std::size_t i1, std::size_t i2, std::size_t i) {
          pqd_step(data, rec, codes, padded, q, dims,
                   PredictorKind::Lorenzo1Layer, s0, s1, i0, i1, i2, i);
        },
        [=](std::size_t i) {
          pqd_point(data, rec, codes, q,
                    predict_interior(rec, decltype(rank)::value, s0, s1, i),
                    i);
        });
  });
}

/// Decode-side twin of pqd_box: rebuilds the quantized points of box `b`
/// and skips code-0 points, whose values place_unpredictable() put in rec
/// beforehand.
template <typename T>
void reconstruct_box(const std::uint16_t* codes, T* rec,
                     const LinearQuantizer& q, const Dims& dims,
                     const Box& b) {
  const Shape s = shape_of(dims);
  const Padded<T> padded{rec, s.n0, s.n1, s.n2};
  const std::size_t s1 = s.n2, s0 = s.n1 * s.n2;
  with_walk_rank(dims.rank, [&](auto rank) {
    skewed_walk<decltype(rank)::value>(
        s, b,
        [&](std::size_t i0, std::size_t i1, std::size_t i2, std::size_t i) {
          if (codes[i] == 0) return;
          rec[i] = reconstruct_step(codes, padded, q, dims,
                                    PredictorKind::Lorenzo1Layer, s0, s1, i0,
                                    i1, i2, i);
        },
        [=](std::size_t i) {
          if (codes[i] == 0) return;
          rec[i] = q.reconstruct<T>(
              predict_interior(rec, decltype(rank)::value, s0, s1, i),
              codes[i]);
        });
  });
}

/// The originals of the code-0 points, in raster order: the unpredictable
/// stream of a PQD that visited its points in another order.
template <typename T>
std::vector<T> collect_unpredictable(std::span<const std::uint16_t> codes,
                                     const T* data) {
  std::vector<T> out;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    if (codes[i] == 0) out.push_back(data[i]);
  }
  return out;
}

/// Puts the raster-order unpredictable stream into its code-0 slots of rec,
/// so a reconstruct in another order only ever reads finished history.
template <typename T>
void place_unpredictable(std::span<const std::uint16_t> codes,
                         std::span<const T> unpredictable, T* rec) {
  std::size_t next = 0;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    if (codes[i] == 0) {
      WAVESZ_REQUIRE(next < unpredictable.size(),
                     "unpredictable stream exhausted");
      rec[i] = unpredictable[next++];
    }
  }
  WAVESZ_REQUIRE(next == unpredictable.size(),
                 "unpredictable stream has trailing values");
}

/// Raster-order reference PQD: the kernel of rank 1 and the 2-layer
/// stencil, and the oracle of the skewed walk.
template <typename T>
PqdT<T> lorenzo_pqd_raster_t(
    std::span<const T> data, const Dims& dims, const LinearQuantizer& q,
    PredictorKind kind = PredictorKind::Lorenzo1Layer) {
  WAVESZ_REQUIRE(data.size() == dims.count(), "data size disagrees with dims");
  const auto [n0, n1, n2] = shape_of(dims);
  PqdT<T> out;
  out.codes.resize(data.size());
  out.reconstructed.resize(data.size());
  T* rec = out.reconstructed.data();
  const Padded<T> padded{rec, n0, n1, n2};
  const std::size_t s1 = n2, s0 = n1 * n2;
  std::size_t i = 0;
  for (std::size_t i0 = 0; i0 < n0; ++i0) {
    for (std::size_t i1 = 0; i1 < n1; ++i1) {
      for (std::size_t i2 = 0; i2 < n2; ++i2, ++i) {
        if (!pqd_step(data.data(), rec, out.codes.data(), padded, q, dims,
                      kind, s0, s1, i0, i1, i2, i)) {
          out.unpredictable.push_back(data[i]);
        }
      }
    }
  }
  return out;
}

/// Raster-order reference reconstruction (the oracle of the skewed walk).
template <typename T>
std::vector<T> lorenzo_reconstruct_raster_t(
    std::span<const std::uint16_t> codes, std::span<const T> unpredictable,
    const Dims& dims, const LinearQuantizer& q,
    PredictorKind kind = PredictorKind::Lorenzo1Layer) {
  WAVESZ_REQUIRE(codes.size() == dims.count(),
                 "code count disagrees with dims");
  const auto [n0, n1, n2] = shape_of(dims);
  std::vector<T> rec(codes.size());
  const Padded<T> padded{rec.data(), n0, n1, n2};
  const std::size_t s1 = n2, s0 = n1 * n2;
  std::size_t next_unpred = 0;
  std::size_t i = 0;
  for (std::size_t i0 = 0; i0 < n0; ++i0) {
    for (std::size_t i1 = 0; i1 < n1; ++i1) {
      for (std::size_t i2 = 0; i2 < n2; ++i2, ++i) {
        if (codes[i] == 0) {
          WAVESZ_REQUIRE(next_unpred < unpredictable.size(),
                         "unpredictable stream exhausted");
          rec[i] = unpredictable[next_unpred++];
        } else {
          rec[i] = reconstruct_step(codes.data(), padded, q, dims, kind, s0,
                                    s1, i0, i1, i2, i);
        }
      }
    }
  }
  WAVESZ_REQUIRE(next_unpred == unpredictable.size(),
                 "unpredictable stream has trailing values");
  return rec;
}

/// Serial PQD entry point: the skewed walk for the 1-layer stencil at rank
/// 2 and 3, the raster loop otherwise. Bit-identical either way.
template <typename T>
PqdT<T> lorenzo_pqd_t(
    std::span<const T> data, const Dims& dims, const LinearQuantizer& q,
    PredictorKind kind = PredictorKind::Lorenzo1Layer) {
  if (!walks(dims, kind)) return lorenzo_pqd_raster_t<T>(data, dims, q, kind);
  WAVESZ_REQUIRE(data.size() == dims.count(), "data size disagrees with dims");
  PqdT<T> out;
  out.codes.resize(data.size());
  out.reconstructed.resize(data.size());
  pqd_box(data.data(), out.reconstructed.data(), out.codes.data(), q, dims,
          whole(shape_of(dims)));
  out.unpredictable = collect_unpredictable<T>(out.codes, data.data());
  return out;
}

template <typename T>
std::vector<T> lorenzo_reconstruct_t(
    std::span<const std::uint16_t> codes, std::span<const T> unpredictable,
    const Dims& dims, const LinearQuantizer& q,
    PredictorKind kind = PredictorKind::Lorenzo1Layer) {
  if (!walks(dims, kind)) {
    return lorenzo_reconstruct_raster_t<T>(codes, unpredictable, dims, q,
                                           kind);
  }
  WAVESZ_REQUIRE(codes.size() == dims.count(),
                 "code count disagrees with dims");
  std::vector<T> rec(codes.size());
  place_unpredictable(codes, unpredictable, rec.data());
  reconstruct_box(codes.data(), rec.data(), q, dims, whole(shape_of(dims)));
  return rec;
}

}  // namespace wavesz::sz::detail
