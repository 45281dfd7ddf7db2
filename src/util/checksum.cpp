#include "util/checksum.hpp"

#include <array>

#include "util/bytes.hpp"
#include "util/simd.hpp"

namespace wavesz {
namespace {

/// Slicing tables: t[0] is the classic byte-at-a-time table; t[k][i] is the
/// CRC of byte i followed by k zero bytes, so eight bytes can be folded into
/// the state with eight independent lookups per iteration instead of a
/// serial chain of eight table walks.
std::array<std::array<std::uint32_t, 256>, 8> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xffu] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

const std::array<std::array<std::uint32_t, 256>, 8>& tables() {
  static const auto t = make_tables();
  return t;
}

}  // namespace

void Crc32::update(std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  const std::size_t folded = simd::crc32_fold(simd::active(), &state_, p, n);
  p += folded;
  n -= folded;
  const auto& t = tables();
  std::uint32_t c = state_;
  while (n >= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
        t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  }
  state_ = c;
}

}  // namespace wavesz
