// Fuzz target: the container v2 chunk-index surface.
//
// Seeds are valid v2 (chunk-indexed) SZ-1.4 and waveSZ containers; the
// mutator's job is to forge the index block — overlapping / out-of-range /
// non-monotonic offsets, corrupted per-chunk CRCs, truncated entry tables —
// and every forgery must surface as wavesz::Error before the decoder
// allocates or writes output. On top of containment, the harness checks
// three invariants the index exists to uphold:
//
//   * serial and thread-parallel decode agree exactly: the same inputs are
//     accepted, and accepted inputs decode bit-identically at any budget;
//   * the bit-at-a-time reference decoders (set_reference_decode) accept
//     and reject the same inputs as the table-driven fast paths, with the
//     same bytes;
//   * a leading-slab region decode equals the prefix of the full field.
#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

#include "core/wavesz.hpp"
#include "fuzz_common.hpp"
#include "sz/compressor.hpp"
#include "sz/container.hpp"
#include "util/dims.hpp"
#include "util/error.hpp"
#include "util/huffman.hpp"

namespace {

using namespace wavesz;

/// Serial vs parallel vs reference-path decode of one variant: all reject,
/// or all accept with identical bytes. `Decode(bytes, opts, dims*)` is
/// sz::decompress or wave::decompress (float32 or float64).
template <typename Decode>
auto check_parallel_agreement(std::span<const std::uint8_t> input,
                              Decode decode, Dims& dims, bool& ok) {
  decltype(decode(input, sz::DecodeOptions{}, &dims)) serial;
  ok = false;
  try {
    serial = decode(input, sz::DecodeOptions{1, 1}, &dims);
    if (serial.size() != dims.count()) std::abort();
    ok = true;
  } catch (const Error&) {
  }
  bool par_ok = false;
  try {
    Dims pdims;
    const auto par = decode(input, sz::DecodeOptions{4, 1}, &pdims);
    par_ok = true;
    if (!ok || par != serial || !(pdims == dims)) std::abort();
  } catch (const Error&) {
  }
  if (ok != par_ok) std::abort();
  bool ref_ok = false;
  set_reference_decode(true);
  try {
    Dims rdims;
    const auto ref = decode(input, sz::DecodeOptions{1, 1}, &rdims);
    ref_ok = true;
    if (!ok || ref != serial || !(rdims == dims)) std::abort();
  } catch (const Error&) {
  }
  set_reference_decode(false);
  if (ok != ref_ok) std::abort();
  return serial;
}

/// A region covering the leading half of the outer axis is a contiguous
/// raster prefix of the field, so its decode must equal the front of the
/// full serial decode byte for byte.
template <typename Full, typename RegionFn>
void check_leading_slab(std::span<const std::uint8_t> input, const Dims& dims,
                        const Full& full, RegionFn region_fn) {
  sz::Region rg;
  rg.hi[0] = std::max<std::size_t>(1, dims[0] / 2);
  for (int a = 1; a < dims.rank; ++a) {
    rg.hi[static_cast<std::size_t>(a)] = dims[a];
  }
  try {
    const auto res = region_fn(input, rg, sz::DecodeOptions{2, 1});
    const std::size_t n = res.data.size();
    if (n != res.region_dims.count() || n > full.size()) std::abort();
    for (std::size_t i = 0; i < n; ++i) {
      if (res.data[i] != full[i]) std::abort();
    }
    if (res.compressed_bytes_read > input.size()) std::abort();
  } catch (const Error&) {
    // A forged index a full decode tolerated may still fail the region
    // path's tighter prefix accounting; rejection is a valid outcome.
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size > fuzz::kMaxInput) return 0;
  const std::span<const std::uint8_t> input(data, size);

  {
    Dims dims;
    bool ok = false;
    const auto full = check_parallel_agreement(
        input,
        [](auto b, const sz::DecodeOptions& o, Dims* d) {
          return sz::decompress(b, o, d);
        },
        dims, ok);
    if (ok) {
      check_leading_slab(input, dims, full,
                         [](auto b, const sz::Region& r,
                            const sz::DecodeOptions& o) {
                           return sz::decompress_region(b, r, o);
                         });
    }
  }
  {
    Dims dims;
    bool ok = false;
    const auto full = check_parallel_agreement(
        input,
        [](auto b, const sz::DecodeOptions& o, Dims* d) {
          return wave::decompress(b, o, d);
        },
        dims, ok);
    if (ok && dims.rank >= 2) {
      check_leading_slab(input, dims, full,
                         [](auto b, const sz::Region& r,
                            const sz::DecodeOptions& o) {
                           return wave::decompress_region(b, r, o);
                         });
    }
  }
  {
    Dims dims;
    bool ok = false;
    check_parallel_agreement(
        input,
        [](auto b, const sz::DecodeOptions& o, Dims* d) {
          return sz::decompress64(b, o, d);
        },
        dims, ok);
  }
  return 0;
}
