#include "sz/wavefront_pqd.hpp"

#include <algorithm>
#include <atomic>

#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/fork_join.hpp"

namespace wavesz::sz {
namespace {

using detail::Padded;
using detail::shape_of;

// Tile extents. Inside a tile the points run in the skewed row walk of
// pqd_detail.hpp, whose ramp (the first R steps of each R-row group) takes
// the slower border step, so a rank-3 tile spans whole rows of the last
// axis; the outer axes stay small enough that a 512x512 grid still yields 8
// tiles per diagonal and a 50x250x250 grid 7 for the threads to share.
// Dependencies are correct for any extent >= 1 (every stencil tap lands on
// a coordinate-wise <= tile, i.e. an earlier tile diagonal), so these are
// pure performance knobs: 8x32 by whole rows beat 16x16x64 on 50x250x250
// at budgets 2 and 4 and tied on 64x256x256 (EXPERIMENTS.md, "Skewed row
// walk").
constexpr std::size_t kTile2d0 = 64, kTile2d1 = 64;
constexpr std::size_t kTile3d0 = 8, kTile3d1 = 32;

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
    g.e2 = s.n2;
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

/// The points of `tile`, clipped to the grid.
detail::Box box_of(const Tile& tile, const TileSchedule& g,
                   const detail::Shape& s) {
  const std::size_t lo0 = tile.t0 * g.e0;
  const std::size_t lo1 = tile.t1 * g.e1;
  const std::size_t lo2 = tile.t2 * g.e2;
  return {lo0, std::min(s.n0, lo0 + g.e0), lo1, std::min(s.n1, lo1 + g.e1),
          lo2, std::min(s.n2, lo2 + g.e2)};
}

/// Runs `body(i0, i1, i2, i)` over every point of box `b` in raster order:
/// the 2-layer stencil's visit order inside a tile.
template <typename Body>
void for_box_points(const detail::Box& b, const detail::Shape& s,
                    Body&& body) {
  for (std::size_t i0 = b.lo0; i0 < b.hi0; ++i0) {
    for (std::size_t i1 = b.lo1; i1 < b.hi1; ++i1) {
      std::size_t i = (i0 * s.n1 + i1) * s.n2 + b.lo2;
      for (std::size_t i2 = b.lo2; i2 < b.hi2; ++i2, ++i) {
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
PqdT<T> lorenzo_pqd_wavefront_t(std::span<const T> data, const Dims& dims,
                                const LinearQuantizer& q, PredictorKind kind,
                                int threads) {
  const int nt = util::team_size(threads, dims.count(),
                                 wavefront_min_points_per_thread());
  if (nt <= 1 || dims.rank < 2) {
    return lorenzo_pqd_t<T>(data, dims, q, kind);
  }
  WAVESZ_REQUIRE(data.size() == dims.count(), "data size disagrees with dims");
  const auto shape = shape_of(dims);
  PqdT<T> out;
  out.codes.resize(data.size());
  out.reconstructed.resize(data.size());
  T* rec = out.reconstructed.data();
  std::uint16_t* codes = out.codes.data();
  const Padded<T> padded{rec, shape.n0, shape.n1, shape.n2};
  const std::size_t s1 = shape.n2, s0 = shape.n1 * shape.n2;
  const TileSchedule g = make_schedule(shape, dims.rank);
  telemetry::counter_add(telemetry::Counter::PqdDiagonalBatches,
                         g.diagonals.size());
  const T* src = data.data();

  // The barrier between batches is the hyperplane boundary: diagonal d+1
  // only starts once every tile of diagonal d is written.
  util::parallel_batches(
      g.diagonals.size(),
      [&](std::size_t d) { return g.diagonals[d].size(); }, nt,
      [&](std::size_t d, std::size_t t) {
        const detail::Box b = box_of(g.diagonals[d][t], g, shape);
        if (walks(dims, kind)) {
          pqd_box(src, rec, codes, q, dims, b);
          return;
        }
        for_box_points(b, shape,
                       [&](std::size_t i0, std::size_t i1, std::size_t i2,
                           std::size_t i) {
                         pqd_step(src, rec, codes, padded, q, dims, kind,
                                  s0, s1, i0, i1, i2, i);
                       });
      });

  // The container format requires the raster-order stream; the code array
  // already marks its points.
  out.unpredictable = collect_unpredictable<T>(out.codes, src);
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

  // Unpredictable values depend on nothing: place them all before the
  // sweep, and neighbours read them from rec[] like any other history.
  place_unpredictable(codes, unpredictable, rec.data());

  const TileSchedule g = make_schedule(shape, dims.rank);
  telemetry::counter_add(telemetry::Counter::PqdDiagonalBatches,
                         g.diagonals.size());
  util::parallel_batches(
      g.diagonals.size(),
      [&](std::size_t d) { return g.diagonals[d].size(); }, nt,
      [&](std::size_t d, std::size_t t) {
        const detail::Box b = box_of(g.diagonals[d][t], g, shape);
        if (walks(dims, kind)) {
          reconstruct_box(codes.data(), rec.data(), q, dims, b);
          return;
        }
        for_box_points(b, shape,
                       [&](std::size_t i0, std::size_t i1, std::size_t i2,
                           std::size_t i) {
                         if (codes[i] == 0) return;  // placed above
                         rec[i] = reconstruct_step(codes.data(), padded, q,
                                                   dims, kind, s0, s1, i0, i1,
                                                   i2, i);
                       });
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
