// Fuzz target: waveSZ container parse + wavefront reconstruction.
//
// Contract: wave::decompress / decompress64 are contained on arbitrary
// bytes — the wavefront layout math (diagonal index remapping) must never
// index outside the buffer the header sized, whatever the header claims —
// and every input gets one answer at every SIMD level: decoded at
// simd::Level::Scalar and at the detected level, either both reject it or
// both accept it with the same output bits.
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <span>
#include <vector>

#include "core/wavesz.hpp"
#include "fuzz_common.hpp"
#include "util/bytes.hpp"
#include "util/dims.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace {

using namespace wavesz;

/// The output bits of `decode` at `level`, or nullopt when it rejects.
template <typename Decode>
std::optional<std::vector<std::uint8_t>> decode_at(simd::Level level,
                                                   Decode&& decode) {
  simd::set_level(level);
  try {
    Dims dims;
    const auto out = decode(&dims);
    if (out.size() != dims.count()) std::abort();
    ByteWriter w;
    if constexpr (sizeof(out[0]) == sizeof(float)) {
      w.floats(out);
    } else {
      w.doubles(out);
    }
    return w.take();
  } catch (const Error&) {
    return std::nullopt;
  }
}

template <typename Decode>
void expect_one_answer(Decode&& decode) {
  if (decode_at(simd::Level::Scalar, decode) !=
      decode_at(simd::detected(), decode)) {
    std::abort();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size > fuzz::kMaxInput) return 0;
  const std::span<const std::uint8_t> input(data, size);
  expect_one_answer(
      [&](Dims* dims) { return wave::decompress(input, {}, dims); });
  expect_one_answer(
      [&](Dims* dims) { return wave::decompress64(input, {}, dims); });
  return 0;
}
