// Golden-bytes pins: the size and CRC-32 of an output whose bytes must not
// change. Shared by the GoldenBytes.* tests in deflate_test.cpp,
// sz_test.cpp and wave_test.cpp.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "util/bytes.hpp"
#include "util/checksum.hpp"

namespace wavesz::golden {

struct GoldenPin {
  std::size_t size;
  std::uint32_t crc;
};

inline void expect_pin(const std::vector<std::uint8_t>& out,
                       const GoldenPin& pin, const std::string& what) {
  EXPECT_EQ(out.size(), pin.size) << what;
  EXPECT_EQ(Crc32::of(out), pin.crc) << what;
}

/// Little-endian bytes of decoded values, the input of a decode pin.
template <typename T>
std::vector<std::uint8_t> value_bytes(const std::vector<T>& values) {
  ByteWriter w;
  if constexpr (std::is_same_v<T, float>) {
    w.floats(values);
  } else {
    w.doubles(values);
  }
  return w.take();
}

}  // namespace wavesz::golden
