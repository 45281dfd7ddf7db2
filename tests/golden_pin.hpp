// Golden-bytes pins: the size and CRC-32 of an output whose bytes must not
// change. Shared by the GoldenBytes.* tests in deflate_test.cpp,
// sz_test.cpp and wave_test.cpp.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

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

}  // namespace wavesz::golden
