// Hand-forged waveSZ containers that the encoder never writes but a decoder
// must reject. Shared by tests/wave_test.cpp and the fuzz seed generator
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
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace wavesz::wave::vectors {

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
