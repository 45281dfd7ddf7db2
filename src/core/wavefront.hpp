// Wavefront memory layout (paper §3.1, Fig. 5).
//
// A d0 x d1 raster grid is re-laid so that all points with the same
// Manhattan distance h = x + y from the pivot (0,0) — an anti-diagonal —
// become one contiguous "column", columns stored in increasing h, points
// within a column ordered by row index x. Because single-layer Lorenzo
// dependencies only reach columns h-1 and h-2, every point within a column
// is dependency-free with respect to its column mates: iterating column-
// major over this layout gives the FPGA pipeline a new input every cycle
// (pII = 1) with no stalls in the body (paper §3.2).
//
// The preprocessing is "basically memory copy" (paper §3.3): to_wavefront /
// from_wavefront are exact bijections, tested as such over many shapes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "util/dims.hpp"
#include "util/error.hpp"

namespace wavesz::wave {

/// Index math for the wavefront layout of a d0 x d1 grid.
class WavefrontLayout {
 public:
  WavefrontLayout(std::size_t d0, std::size_t d1);

  std::size_t rows() const { return d0_; }
  std::size_t cols() const { return d1_; }

  /// Number of anti-diagonal columns: d0 + d1 - 1.
  std::size_t column_count() const { return d0_ + d1_ - 1; }

  /// Points in column h (the paper's Lambda for body columns).
  std::size_t column_length(std::size_t h) const;

  /// Smallest row index x present in column h.
  std::size_t column_first_row(std::size_t h) const {
    return h >= d1_ ? h - (d1_ - 1) : 0;
  }

  /// Storage offset of column h's first point.
  std::size_t column_start(std::size_t h) const { return col_start_[h]; }

  /// Storage offset of grid point (x, y) in the wavefront layout.
  std::size_t offset(std::size_t x, std::size_t y) const;

  /// Inverse map: (x, y) of the point at a wavefront storage offset.
  std::pair<std::size_t, std::size_t> point_at(std::size_t offset) const;

  std::size_t count() const { return d0_ * d1_; }

 private:
  std::size_t d0_, d1_;
  std::vector<std::size_t> col_start_;  // prefix sums, size column_count()+1
};

namespace detail {

/// The tile loop behind both permutes. Walks the raster in 32 x 32 tiles,
/// one wavefront-column segment at a time, and calls
/// segment(wf, raster, n) for each: the segment's n points sit at
/// wf, wf + 1, ... in the wavefront layout and at raster, raster +
/// (d1 - 1), ... in the raster, so the strided side stays inside the tile.
template <typename SegmentFn>
void for_each_tile_segment(const WavefrontLayout& layout,
                           SegmentFn&& segment) {
  constexpr std::size_t kTile = 32;
  const std::size_t d0 = layout.rows();
  const std::size_t d1 = layout.cols();
  for (std::size_t x0 = 0; x0 < d0; x0 += kTile) {
    const std::size_t x_last = std::min(d0, x0 + kTile) - 1;
    for (std::size_t y0 = 0; y0 < d1; y0 += kTile) {
      const std::size_t y_last = std::min(d1, y0 + kTile) - 1;
      for (std::size_t h = x0 + y0; h <= x_last + y_last; ++h) {
        // Rows of column h inside the tile: y = h - x within [y0, y_last].
        const std::size_t x_lo = std::max(x0, h > y_last ? h - y_last : 0);
        const std::size_t x_hi = std::min(x_last, h - y0);
        segment(layout.column_start(h) + (x_lo - layout.column_first_row(h)),
                x_lo * d1 + (h - x_lo), x_hi - x_lo + 1);
      }
    }
  }
}

}  // namespace detail

/// Reorder a raster-major grid into the wavefront layout ("basically a
/// memory copy", §3.3): strided reads inside each tile, contiguous writes.
/// Works for float32 and float64 fields.
template <typename T>
std::vector<T> to_wavefront(std::span<const T> raster,
                            const WavefrontLayout& layout) {
  WAVESZ_REQUIRE(raster.size() == layout.count(),
                 "raster size disagrees with layout");
  std::vector<T> out(raster.size());
  const std::size_t step = layout.cols() - 1;
  detail::for_each_tile_segment(
      layout, [in = raster.data(), to = out.data(), step](
                  std::size_t wf, std::size_t r, std::size_t n) {
        const T* src = in + r;
        for (std::size_t i = 0; i < n; ++i, src += step) to[wf + i] = *src;
      });
  return out;
}

/// Inverse of to_wavefront over the same tiles: contiguous reads, strided
/// writes inside each tile.
template <typename T>
std::vector<T> from_wavefront(std::span<const T> wavefront,
                              const WavefrontLayout& layout) {
  WAVESZ_REQUIRE(wavefront.size() == layout.count(),
                 "wavefront size disagrees with layout");
  std::vector<T> out(wavefront.size());
  const std::size_t step = layout.cols() - 1;
  detail::for_each_tile_segment(
      layout, [in = wavefront.data(), to = out.data(), step](
                  std::size_t wf, std::size_t r, std::size_t n) {
        T* dst = to + r;
        for (std::size_t i = 0; i < n; ++i, dst += step) *dst = in[wf + i];
      });
  return out;
}

/// Convenience overloads so containers convert without explicit template
/// arguments at call sites taking vectors.
inline std::vector<float> to_wavefront(const std::vector<float>& raster,
                                       const WavefrontLayout& layout) {
  return to_wavefront(std::span<const float>(raster), layout);
}
inline std::vector<float> from_wavefront(const std::vector<float>& wf,
                                         const WavefrontLayout& layout) {
  return from_wavefront(std::span<const float>(wf), layout);
}

}  // namespace wavesz::wave
