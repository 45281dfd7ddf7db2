// Fuzz target: Huffman blob decode, the table-driven decoder vs the
// bit-at-a-time oracle (tests/huffman_oracle.hpp).
//
// Contract: on any input, sz::huffman_decode (multi-symbol window table
// over the flat two-level table) and oracle::huffman_decode (its own
// framing parse and a canonical walk one bit per step) either both throw
// wavesz::Error or both return identical symbol streams. Forged tables —
// over-subscribed Kraft sums, duplicate entries, claimed counts past the
// payload — must be rejected identically by both.
#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

#include "fuzz_common.hpp"
#include "huffman_oracle.hpp"
#include "sz/huffman_codec.hpp"
#include "util/error.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace wavesz;
  if (size > fuzz::kMaxInput) return 0;
  const std::span<const std::uint8_t> input(data, size);

  bool fast_ok = false;
  bool ref_ok = false;
  std::vector<std::uint16_t> fast;
  std::vector<std::uint16_t> ref;
  try {
    fast = sz::huffman_decode(input);
    fast_ok = true;
  } catch (const Error&) {
  }
  try {
    ref = oracle::huffman_decode(input);
    ref_ok = true;
  } catch (const Error&) {
  }
  if (fast_ok != ref_ok || (fast_ok && fast != ref)) std::abort();
  return 0;
}
