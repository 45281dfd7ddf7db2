#include "sz/wavefront_pqd.hpp"

#include <algorithm>
#include <atomic>

#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/fork_join.hpp"
#include "util/simd.hpp"

namespace wavesz::sz {
namespace {

using detail::FpOps;
using detail::Padded;
using detail::shape_of;

// Tile extents. The inner (fastest-varying) axis gets the widest tile so a
// tile row stays a contiguous, vectorizable run; the outer axes stay square
// enough that a 512x512 grid still yields 8 tiles per diagonal for the
// threads to share. Dependencies are correct for any extent >= 1 (every
// stencil tap lands on a coordinate-wise <= tile, i.e. an earlier tile
// diagonal), so these are pure performance knobs.
constexpr std::size_t kTile2d0 = 64, kTile2d1 = 64;
constexpr std::size_t kTile3d0 = 16, kTile3d1 = 16, kTile3d2 = 64;

struct Tile {
  std::uint32_t t0, t1, t2;
};

/// Tiles bucketed by anti-diagonal d = t0 + t1 + t2, the wavefront schedule
/// at tile granularity: all tiles of diagonal d may run concurrently once
/// diagonals < d are complete.
struct TileSchedule {
  std::size_t e0, e1, e2;  // tile extents
  std::vector<std::vector<Tile>> diagonals;
};

TileSchedule make_schedule(const detail::Shape& s, int rank) {
  TileSchedule g;
  if (rank >= 3) {
    g.e0 = kTile3d0;
    g.e1 = kTile3d1;
    g.e2 = kTile3d2;
  } else {
    g.e0 = kTile2d0;
    g.e1 = kTile2d1;
    g.e2 = 1;
  }
  const std::size_t b0 = (s.n0 + g.e0 - 1) / g.e0;
  const std::size_t b1 = (s.n1 + g.e1 - 1) / g.e1;
  const std::size_t b2 = (s.n2 + g.e2 - 1) / g.e2;
  g.diagonals.resize(b0 + b1 + b2 - 2);
  for (std::size_t t0 = 0; t0 < b0; ++t0) {
    for (std::size_t t1 = 0; t1 < b1; ++t1) {
      for (std::size_t t2 = 0; t2 < b2; ++t2) {
        g.diagonals[t0 + t1 + t2].push_back(
            Tile{static_cast<std::uint32_t>(t0),
                 static_cast<std::uint32_t>(t1),
                 static_cast<std::uint32_t>(t2)});
      }
    }
  }
  return g;
}

/// Runs `body(i0, i1, i2, i)` over every point of `tile` in raster order.
template <typename Body>
void for_tile_points(const Tile& tile, const TileSchedule& g,
                     const detail::Shape& s, Body&& body) {
  const std::size_t lo0 = tile.t0 * g.e0;
  const std::size_t hi0 = std::min(s.n0, lo0 + g.e0);
  const std::size_t lo1 = tile.t1 * g.e1;
  const std::size_t hi1 = std::min(s.n1, lo1 + g.e1);
  const std::size_t lo2 = tile.t2 * g.e2;
  const std::size_t hi2 = std::min(s.n2, lo2 + g.e2);
  for (std::size_t i0 = lo0; i0 < hi0; ++i0) {
    for (std::size_t i1 = lo1; i1 < hi1; ++i1) {
      std::size_t i = (i0 * s.n1 + i1) * s.n2 + lo2;
      for (std::size_t i2 = lo2; i2 < hi2; ++i2, ++i) {
        body(i0, i1, i2, i);
      }
    }
  }
}

// Default floor: matches range_of's per-thread minimum — at 2^18 points per
// worker a 512x512 field (2^18 points) stays serial, a 1024x1024 field gets
// up to 4 workers, which is where BENCH_pqd.json shows the wavefront barrier
// amortized.
std::atomic<std::size_t> g_min_points_per_thread{std::size_t{1} << 18};

}  // namespace

std::size_t wavefront_min_points_per_thread() {
  return g_min_points_per_thread.load(std::memory_order_relaxed);
}

void set_wavefront_min_points_per_thread(std::size_t points) {
  g_min_points_per_thread.store(points, std::memory_order_relaxed);
}

namespace detail {

template <typename T>
typename FpOps<T>::PqdType lorenzo_pqd_wavefront_t(std::span<const T> data,
                                                   const Dims& dims,
                                                   const LinearQuantizer& q,
                                                   PredictorKind kind,
                                                   int threads) {
  const int nt = util::team_size(threads, dims.count(),
                                 wavefront_min_points_per_thread());
  if (nt <= 1 || dims.rank < 2) {
    return lorenzo_pqd_t<T>(data, dims, q, kind);
  }
  WAVESZ_REQUIRE(data.size() == dims.count(), "data size disagrees with dims");
  const auto shape = shape_of(dims);
  typename FpOps<T>::PqdType out;
  out.codes.resize(data.size());
  out.reconstructed.resize(data.size());
  T* rec = out.reconstructed.data();
  std::uint16_t* codes = out.codes.data();
  const Padded<T> padded{rec, shape.n0, shape.n1, shape.n2};
  const std::size_t s1 = shape.n2, s0 = shape.n1 * shape.n2;
  const bool one_layer = kind == PredictorKind::Lorenzo1Layer;
  const TileSchedule g = make_schedule(shape, dims.rank);
  telemetry::counter_add(telemetry::Counter::PqdDiagonalBatches,
                         g.diagonals.size());
  const T* src = data.data();
  const bool use_simd = simd_pqd_eligible(dims, kind);
  const simd::QuantSpec spec = quant_spec(q);

  // The barrier between batches is the hyperplane boundary: diagonal d+1
  // only starts once every tile of diagonal d is written.
  util::parallel_batches(
      g.diagonals.size(),
      [&](std::size_t d) { return g.diagonals[d].size(); }, nt,
      [&](std::size_t d, std::size_t t) {
        const Tile& tile = g.diagonals[d][t];
        if (use_simd) {
          const std::size_t lo0 = tile.t0 * g.e0;
          const std::size_t lo1 = tile.t1 * g.e1;
          pqd_tile_simd(src, rec, codes, padded, q, dims, kind, spec, s0,
                        lo0, std::min(shape.n0, lo0 + g.e0), lo1,
                        std::min(shape.n1, lo1 + g.e1));
        } else {
          for_tile_points(tile, g, shape,
                          [&](std::size_t i0, std::size_t i1, std::size_t i2,
                              std::size_t i) {
                            pqd_step(src, rec, codes, padded, q, dims, kind,
                                     one_layer, s0, s1, i0, i1, i2, i);
                          });
        }
      });

  // Splice the unpredictable originals back into the exact raster-order
  // stream the container format requires; the code array already marks them.
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (codes[i] == 0) out.unpredictable.push_back(data[i]);
  }
  return out;
}

template <typename T>
std::vector<T> lorenzo_reconstruct_wavefront_t(
    std::span<const std::uint16_t> codes, std::span<const T> unpredictable,
    const Dims& dims, const LinearQuantizer& q, PredictorKind kind,
    int threads) {
  const int nt = util::team_size(threads, dims.count(),
                                 wavefront_min_points_per_thread());
  if (nt <= 1 || dims.rank < 2) {
    return lorenzo_reconstruct_t<T>(codes, unpredictable, dims, q, kind);
  }
  WAVESZ_REQUIRE(codes.size() == dims.count(),
                 "code count disagrees with dims");
  const auto shape = shape_of(dims);
  std::vector<T> rec(codes.size());
  const Padded<T> padded{rec.data(), shape.n0, shape.n1, shape.n2};
  const std::size_t s1 = shape.n2, s0 = shape.n1 * shape.n2;
  const bool one_layer = kind == PredictorKind::Lorenzo1Layer;

  // Unpredictable values are consumed in raster order in the serial kernel;
  // here their slots are known up front (code 0), so place them all before
  // the wavefront sweep — they depend on nothing, and neighbours read them
  // from rec[] like any other history.
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    if (codes[i] == 0) {
      WAVESZ_REQUIRE(zeros < unpredictable.size(),
                     "unpredictable stream exhausted");
      rec[i] = unpredictable[zeros++];
    }
  }
  WAVESZ_REQUIRE(zeros == unpredictable.size(),
                 "unpredictable stream has trailing values");

  const TileSchedule g = make_schedule(shape, dims.rank);
  telemetry::counter_add(telemetry::Counter::PqdDiagonalBatches,
                         g.diagonals.size());
  const bool use_simd = simd_pqd_eligible(dims, kind);
  const simd::QuantSpec spec = quant_spec(q);
  util::parallel_batches(
      g.diagonals.size(),
      [&](std::size_t d) { return g.diagonals[d].size(); }, nt,
      [&](std::size_t d, std::size_t t) {
        const Tile& tile = g.diagonals[d][t];
        if (use_simd) {
          const std::size_t lo0 = tile.t0 * g.e0;
          const std::size_t lo1 = tile.t1 * g.e1;
          reconstruct_tile_simd(codes.data(), rec.data(), padded, q, dims,
                                kind, spec, s0, lo0,
                                std::min(shape.n0, lo0 + g.e0), lo1,
                                std::min(shape.n1, lo1 + g.e1));
        } else {
          for_tile_points(tile, g, shape,
                          [&](std::size_t i0, std::size_t i1, std::size_t i2,
                              std::size_t i) {
                            if (codes[i] == 0) return;  // placed above
                            rec[i] = reconstruct_step(
                                codes.data(), rec.data(), padded, q, dims,
                                kind, one_layer, s0, s1, i0, i1, i2, i);
                          });
        }
      });
  return rec;
}

template Pqd lorenzo_pqd_wavefront_t<float>(std::span<const float>,
                                            const Dims&,
                                            const LinearQuantizer&,
                                            PredictorKind, int);
template Pqd64 lorenzo_pqd_wavefront_t<double>(std::span<const double>,
                                               const Dims&,
                                               const LinearQuantizer&,
                                               PredictorKind, int);
template std::vector<float> lorenzo_reconstruct_wavefront_t<float>(
    std::span<const std::uint16_t>, std::span<const float>, const Dims&,
    const LinearQuantizer&, PredictorKind, int);
template std::vector<double> lorenzo_reconstruct_wavefront_t<double>(
    std::span<const std::uint16_t>, std::span<const double>, const Dims&,
    const LinearQuantizer&, PredictorKind, int);

}  // namespace detail

Pqd lorenzo_pqd_wavefront(std::span<const float> data, const Dims& dims,
                          const LinearQuantizer& q, PredictorKind kind,
                          int threads) {
  return detail::lorenzo_pqd_wavefront_t<float>(data, dims, q, kind, threads);
}

Pqd64 lorenzo_pqd64_wavefront(std::span<const double> data, const Dims& dims,
                              const LinearQuantizer& q, PredictorKind kind,
                              int threads) {
  return detail::lorenzo_pqd_wavefront_t<double>(data, dims, q, kind,
                                                 threads);
}

std::vector<float> lorenzo_reconstruct_wavefront(
    std::span<const std::uint16_t> codes, std::span<const float> unpredictable,
    const Dims& dims, const LinearQuantizer& q, PredictorKind kind,
    int threads) {
  return detail::lorenzo_reconstruct_wavefront_t<float>(codes, unpredictable,
                                                        dims, q, kind,
                                                        threads);
}

std::vector<double> lorenzo_reconstruct64_wavefront(
    std::span<const std::uint16_t> codes,
    std::span<const double> unpredictable, const Dims& dims,
    const LinearQuantizer& q, PredictorKind kind, int threads) {
  return detail::lorenzo_reconstruct_wavefront_t<double>(codes, unpredictable,
                                                         dims, q, kind,
                                                         threads);
}

}  // namespace wavesz::sz
