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
//   * on an accepted input, the bit-at-a-time oracles (tests/
//     deflate_oracle.hpp, tests/huffman_oracle.hpp) inflate and decode the
//     container's two sections to the codes and unpredictable bytes that
//     decode_sections() gives;
//   * a leading-slab region decode equals the prefix of the full field;
//   * an SZ-1.4 box read (float32 and float64), which reconstructs a box
//     narrower than its outer-slab prefix, equals the same slice of the
//     full field.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <type_traits>
#include <vector>

#include "core/wavesz.hpp"
#include "deflate_oracle.hpp"
#include "fuzz_common.hpp"
#include "huffman_oracle.hpp"
#include "sz/compressor.hpp"
#include "sz/container.hpp"
#include "sz/sections.hpp"
#include "util/bytes.hpp"
#include "util/dims.hpp"
#include "util/error.hpp"

namespace {

using namespace wavesz;

/// Bit-for-bit equality of two decodes. A header's absolute bound is only
/// checked to be positive, so a forged +inf or 1e308 decodes to NaN, which
/// must still compare equal to itself.
template <typename T>
bool same_bits(std::span<const T> a, std::span<const T> b) {
  using Bits =
      std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), [](T x, T y) {
    return std::bit_cast<Bits>(x) == std::bit_cast<Bits>(y);
  });
}

/// The sections of a container a serial decode accepted, through the
/// oracles: gunzip both, H*-decode or read the codes, and compare with
/// decode_sections(). Any rejection or difference aborts.
void check_sections_oracle(std::span<const std::uint8_t> input) {
  ByteReader r(input);
  const sz::ContainerHeader h = sz::read_header(r);
  if (h.variant == sz::Variant::SzxFast) return;  // no code/unpred sections
  const sz::Sections s = sz::read_sections(r, h);
  const sz::SectionsDecoded d = sz::decode_sections(s, sz::DecodeOptions{});
  try {
    const auto plain = deflate::oracle::gunzip(s.codes);
    std::vector<std::uint16_t> codes;
    if (h.huffman) {
      codes = oracle::huffman_decode(plain);
    } else {
      ByteReader cr(plain);
      codes = cr.u16s(h.point_count);
    }
    if (codes != d.codes || deflate::oracle::gunzip(s.unpred) != d.unpred) {
      std::abort();
    }
  } catch (const Error&) {
    std::abort();
  }
}

/// Serial vs parallel decode of one variant: both reject, or both accept
/// with identical bytes, which the section oracles then reproduce.
/// `Decode(bytes, opts, dims*)` is sz::decompress or wave::decompress
/// (float32 or float64).
template <typename Decode>
auto check_parallel_agreement(std::span<const std::uint8_t> input,
                              Decode decode, Dims& dims, bool& ok) {
  decltype(decode(input, sz::DecodeOptions{}, &dims)) serial;
  using V = typename decltype(serial)::value_type;
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
    if (!ok || !same_bits<V>(par, serial) || !(pdims == dims)) std::abort();
  } catch (const Error&) {
  }
  if (ok != par_ok) std::abort();
  if (ok) check_sections_oracle(input);
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
    using V = typename Full::value_type;
    if (!same_bits<V>(res.data, std::span<const V>(full).first(n))) {
      std::abort();
    }
    if (res.compressed_bytes_read > input.size()) std::abort();
  } catch (const Error&) {
    // A forged index a full decode tolerated may still fail the region
    // path's tighter prefix accounting; rejection is a valid outcome.
  }
}

/// The hyperslab `rg` of a row-major field of `dims`.
template <typename Full>
Full slice(const Full& full, const Dims& dims, const sz::Region& rg) {
  Full out;
  const std::size_t s0 = dims[1] * dims[2];
  for (std::size_t x = rg.lo[0]; x < rg.hi[0]; ++x) {
    for (std::size_t y = rg.lo[1]; y < rg.hi[1]; ++y) {
      const auto row = full.begin() +
                       static_cast<std::ptrdiff_t>(x * s0 + y * dims[2]);
      out.insert(out.end(), row + static_cast<std::ptrdiff_t>(rg.lo[2]),
                 row + static_cast<std::ptrdiff_t>(rg.hi[2]));
    }
  }
  return out;
}

/// Box reads whose region ends before the extent on every inner axis and
/// starts past 0 on at least one, so the decoder picks each box row and
/// the unpredictable values it consumes out of the outer-slab prefix: one
/// ending halfway along the outer axis at budget 1, one reaching the last
/// plane at budget 2. Rejection stays a valid outcome; an accepted read
/// must equal the same slice of the full serial decode.
template <typename Full, typename RegionFn>
void check_box(std::span<const std::uint8_t> input, const Dims& dims,
               const Full& full, RegionFn region_fn) {
  sz::Region rg;
  rg.hi = {1, 1, 1};
  bool narrower = false;
  for (std::size_t a = 1; a < static_cast<std::size_t>(dims.rank); ++a) {
    const std::size_t e = dims.extent[a];
    if (e < 2) return;
    rg.lo[a] = e / 3;
    rg.hi[a] = e - 1;
    narrower = narrower || rg.lo[a] > 0;
  }
  if (!narrower) return;
  for (const int budget : {1, 2}) {
    rg.hi[0] = budget == 1 ? (dims[0] + 1) / 2 : dims[0];
    rg.lo[0] = rg.hi[0] - 1;
    try {
      const auto res =
          region_fn(input, rg, sz::DecodeOptions{budget, budget});
      if (!same_bits<typename Full::value_type>(res.data,
                                                slice(full, dims, rg))) {
        std::abort();
      }
      if (res.compressed_bytes_read > input.size()) std::abort();
    } catch (const Error&) {
    }
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
      const auto region = [](auto b, const sz::Region& r,
                             const sz::DecodeOptions& o) {
        return sz::decompress_region(b, r, o);
      };
      check_leading_slab(input, dims, full, region);
      check_box(input, dims, full, region);
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
    const auto full = check_parallel_agreement(
        input,
        [](auto b, const sz::DecodeOptions& o, Dims* d) {
          return sz::decompress64(b, o, d);
        },
        dims, ok);
    if (ok) {
      check_box(input, dims, full,
                [](auto b, const sz::Region& r, const sz::DecodeOptions& o) {
                  return sz::decompress_region64(b, r, o);
                });
    }
  }
  return 0;
}
