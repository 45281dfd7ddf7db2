// Fuzz target: SZx-fast container parse + decode (float32 and float64).
//
// Contract: sz::decompress / decompress64 are contained on arbitrary
// SzxFast-tagged bytes — wavesz::Error or a fully-owned result whose
// element count matches the dims the parser reported. The interesting
// states are the per-block tag dispatch (const / raw / k-bit), the packed
// delta-width validation, the block-count-vs-header cross-check and the
// trailing-bytes rejection; the seed corpus covers all three block kinds.
#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

#include "fuzz_common.hpp"
#include "sz/compressor.hpp"
#include "util/dims.hpp"
#include "util/error.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace wavesz;
  if (size > fuzz::kMaxInput) return 0;
  const std::span<const std::uint8_t> input(data, size);

  try {
    Dims dims;
    const auto out = sz::decompress(input, {}, &dims);
    if (out.size() != dims.count()) std::abort();
    // Touch every element: proves the buffer is fully owned under ASan.
    for (float v : out) (void)v;
  } catch (const Error&) {
  }
  try {
    Dims dims;
    const auto out = sz::decompress64(input, {}, &dims);
    if (out.size() != dims.count()) std::abort();
    for (double v : out) (void)v;
  } catch (const Error&) {
  }
  return 0;
}
