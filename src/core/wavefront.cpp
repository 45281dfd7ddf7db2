#include "core/wavefront.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace wavesz::wave {

WavefrontLayout::WavefrontLayout(std::size_t d0, std::size_t d1)
    : d0_(d0), d1_(d1) {
  WAVESZ_REQUIRE(d0 > 0 && d1 > 0, "wavefront layout needs positive extents");
  const std::size_t cols = column_count();
  col_start_.resize(cols + 1);
  col_start_[0] = 0;
  for (std::size_t h = 0; h < cols; ++h) {
    col_start_[h + 1] = col_start_[h] + column_length(h);
  }
  WAVESZ_ASSERT(col_start_[cols] == d0_ * d1_,
                "column lengths must cover the grid exactly");
}

std::size_t WavefrontLayout::column_length(std::size_t h) const {
  const std::size_t x_hi = std::min(d0_ - 1, h);
  const std::size_t x_lo = column_first_row(h);
  return x_hi - x_lo + 1;
}

std::size_t WavefrontLayout::offset(std::size_t x, std::size_t y) const {
  WAVESZ_ASSERT(x < d0_ && y < d1_, "point outside the grid");
  const std::size_t h = x + y;
  return col_start_[h] + (x - column_first_row(h));
}

std::pair<std::size_t, std::size_t> WavefrontLayout::point_at(
    std::size_t off) const {
  WAVESZ_ASSERT(off < count(), "offset outside the layout");
  // Binary search the column whose range contains `off`.
  const auto it =
      std::upper_bound(col_start_.begin(), col_start_.end(), off);
  const auto h = static_cast<std::size_t>(it - col_start_.begin()) - 1;
  const std::size_t x = column_first_row(h) + (off - col_start_[h]);
  return {x, h - x};
}

}  // namespace wavesz::wave
