#include "deflate/deflate_tables.hpp"

namespace wavesz::deflate {

std::array<std::uint8_t, kNumLitLen> fixed_litlen_lengths() {
  std::array<std::uint8_t, kNumLitLen> lengths{};
  for (int s = 0; s <= 143; ++s) lengths[static_cast<std::size_t>(s)] = 8;
  for (int s = 144; s <= 255; ++s) lengths[static_cast<std::size_t>(s)] = 9;
  for (int s = 256; s <= 279; ++s) lengths[static_cast<std::size_t>(s)] = 7;
  for (int s = 280; s <= 287; ++s) lengths[static_cast<std::size_t>(s)] = 8;
  return lengths;
}

std::array<std::uint8_t, kNumDist> fixed_dist_lengths() {
  std::array<std::uint8_t, kNumDist> lengths{};
  lengths.fill(5);
  return lengths;
}

}  // namespace wavesz::deflate
