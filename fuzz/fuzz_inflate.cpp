// Fuzz target: raw DEFLATE decode, the table-driven inflater vs the
// bit-at-a-time oracle (tests/deflate_oracle.hpp).
//
// Contract: on any input, deflate::decompress and oracle::inflate either
// both throw wavesz::Error or both succeed with identical bytes. A
// divergence means the table-driven loop mis-decodes, or mis-judges, some
// stream the oracle walks one bit at a time — exactly the class of bug
// differential fuzzing exists to find.
#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

#include "deflate/deflate.hpp"
#include "deflate_oracle.hpp"
#include "fuzz_common.hpp"
#include "util/error.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace wavesz;
  if (size > fuzz::kMaxInput) return 0;
  const std::span<const std::uint8_t> input(data, size);

  bool fast_ok = false;
  bool ref_ok = false;
  std::vector<std::uint8_t> fast;
  std::vector<std::uint8_t> ref;
  try {
    fast = deflate::decompress(input);
    fast_ok = true;
  } catch (const Error&) {
  }
  try {
    ref = deflate::oracle::inflate(input);
    ref_ok = true;
  } catch (const Error&) {
  }
  if (fast_ok != ref_ok || (fast_ok && fast != ref)) std::abort();
  return 0;
}
