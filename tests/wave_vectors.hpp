// Test vectors for the waveSZ kernels: a per-point PQD oracle that shares
// no column geometry with the encoder and decoder, and hand-forged waveSZ
// containers that the encoder never writes but a decoder must reject. The
// forger is shared by tests/wave_test.cpp and the fuzz seed generator
// (fuzz/fuzz_seed_gen.cpp), so the fuzz corpora start from the same
// malformed containers the unit tests pin.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/wavefront.hpp"
#include "core/wavesz.hpp"
#include "deflate/deflate.hpp"
#include "sz/container.hpp"
#include "sz/predictor.hpp"
#include "sz/quantizer.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace wavesz::wave::vectors {

/// Codes in storage order (0 = verbatim) and the verbatim values in stream
/// order, as the encoder emits them for one wavefront-layout plane.
template <typename T>
struct OraclePqd {
  std::vector<std::uint16_t> codes;
  std::vector<T> verbatim;
};

/// The per-point waveSZ PQD kernel (Listing 1 semantics: column-major walk
/// of the wavefront layout, in-place decompression writeback into
/// `wavefront`). It finds every Lorenzo tap through
/// WavefrontLayout::offset(), three lookups per point, so a geometry error
/// in the production column walk cannot hide in it.
template <typename T>
OraclePqd<T> point_oracle_2d(std::span<T> wavefront,
                             const WavefrontLayout& layout,
                             const sz::LinearQuantizer& q) {
  WAVESZ_REQUIRE(wavefront.size() == layout.count(),
                 "wavefront size disagrees with layout");
  OraclePqd<T> out;
  out.codes.reserve(wavefront.size());
  const std::size_t cols = layout.column_count();
  for (std::size_t h = 0; h < cols; ++h) {
    const std::size_t x_lo = layout.column_first_row(h);
    const std::size_t len = layout.column_length(h);
    for (std::size_t k = 0; k < len; ++k) {
      const std::size_t x = x_lo + k;
      const std::size_t y = h - x;
      const std::size_t off = layout.column_start(h) + k;
      if (x == 0 || y == 0) {
        // Border: passed to the lossless compressor verbatim (§3.2); the
        // exact original stays in place as downstream history.
        out.codes.push_back(0);
        out.verbatim.push_back(wavefront[off]);
        continue;
      }
      const double pred = sz::lorenzo2d(wavefront[layout.offset(x - 1, y - 1)],
                                        wavefront[layout.offset(x - 1, y)],
                                        wavefront[layout.offset(x, y - 1)]);
      const auto r = q.quantize<T>(pred, wavefront[off]);
      if (r.code != 0) {
        out.codes.push_back(r.code);
        wavefront[off] = r.reconstructed;  // in-place decompression writeback
      } else {
        out.codes.push_back(0);
        out.verbatim.push_back(wavefront[off]);
      }
    }
  }
  return out;
}

/// The per-point True3D kernel for planes >= 1: 3D Lorenzo over `cur` and
/// the previous plane's writeback `prev`, both in wavefront layout, with
/// every tap found through offset(). Appends to `out`.
template <typename T>
void point_oracle_slice3d(std::span<T> cur, std::span<const T> prev,
                          const WavefrontLayout& layout,
                          const sz::LinearQuantizer& q, OraclePqd<T>& out) {
  const std::size_t cols = layout.column_count();
  for (std::size_t h = 0; h < cols; ++h) {
    const std::size_t x_lo = layout.column_first_row(h);
    const std::size_t len = layout.column_length(h);
    for (std::size_t k = 0; k < len; ++k) {
      const std::size_t x = x_lo + k;
      const std::size_t y = h - x;
      const std::size_t off = layout.column_start(h) + k;
      if (x == 0 || y == 0) {
        out.codes.push_back(0);
        out.verbatim.push_back(cur[off]);
        continue;  // cur[off] keeps the exact original as history
      }
      const std::size_t o_nw = layout.offset(x - 1, y - 1);
      const std::size_t o_n = layout.offset(x - 1, y);
      const std::size_t o_w = layout.offset(x, y - 1);
      const double pred = sz::lorenzo3d(
          prev[o_nw], cur[o_nw], prev[o_n], prev[o_w], cur[o_n], cur[o_w],
          prev[off]);
      const auto r = q.quantize<T>(pred, cur[off]);
      if (r.code != 0) {
        out.codes.push_back(r.code);
        cur[off] = r.reconstructed;
      } else {
        out.codes.push_back(0);
        out.verbatim.push_back(cur[off]);
      }
    }
  }
}

/// `container`, a v1 G⋆ waveSZ container (no chunk index, raw 16-bit
/// codes), with a nonzero quantization code at border point (x, y) of
/// plane `plane`. Border points have x == 0 or y == 0 in the 2D wavefront
/// view: the flattened d0 x (d1*d2) grid for Flatten2D (plane 0), one
/// d1 x d2 plane for True3D. The verbatim value the point consumed is
/// removed and `unpredictable_count` decremented, so every count in the
/// container stays consistent and only the border rule is broken.
inline std::vector<std::uint8_t> with_border_code(
    std::span<const std::uint8_t> container, std::size_t plane,
    std::size_t x, std::size_t y) {
  ByteReader r(container);
  sz::ContainerHeader h = sz::read_header(r);
  WAVESZ_REQUIRE(h.variant == sz::Variant::WaveSz && h.version == 1 &&
                     !h.huffman,
                 "forger needs a v1 G* waveSZ container");
  const auto code_plain = deflate::gzip_decompress(sz::read_section(r));
  auto verbatim_plain = deflate::gzip_decompress(sz::read_section(r));

  const bool true3d = static_cast<LayoutMode>(h.aux) == LayoutMode::True3D;
  const Dims view = true3d ? Dims::d2(h.dims[1], h.dims[2])
                           : h.dims.flatten2d();
  WAVESZ_REQUIRE(x == 0 || y == 0, "forged point must be on the border");
  WAVESZ_REQUIRE(true3d ? plane < h.dims[0] : plane == 0,
                 "plane outside the field");
  const WavefrontLayout layout(view[0], view[1]);
  const std::size_t at = plane * layout.count() + layout.offset(x, y);

  ByteReader cr(code_plain);
  auto codes = cr.u16s(h.point_count);
  WAVESZ_REQUIRE(codes[at] == 0, "border points carry code 0");
  std::size_t consumed = 0;  // verbatim values before the forged point
  for (std::size_t i = 0; i < at; ++i) consumed += codes[i] == 0 ? 1 : 0;
  // The code a zero residual would get: a valid symbol for every bound.
  codes[at] = static_cast<std::uint16_t>(1u << (h.quant_bits - 1));
  const std::size_t width = h.dtype == 0 ? sizeof(float) : sizeof(double);
  const auto value = verbatim_plain.begin() +
                     static_cast<std::ptrdiff_t>(consumed * width);
  verbatim_plain.erase(value, value + static_cast<std::ptrdiff_t>(width));
  h.unpredictable_count -= 1;

  ByteWriter cw;
  cw.u16s(codes);
  ByteWriter w;
  sz::write_header(w, h);
  sz::write_section(w, deflate::gzip_compress(cw.take(), h.gzip_level));
  sz::write_section(w, deflate::gzip_compress(verbatim_plain, h.gzip_level));
  return w.take();
}

}  // namespace wavesz::wave::vectors
