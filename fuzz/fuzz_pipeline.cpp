// Fuzz target: pipelined-vs-barrier StreamCompressor equivalence.
//
// Contract: for ANY config/field the staged chunk pipeline (pipeline_depth
// >= 1) must write exactly the archive of the barrier path (depth 0) — or
// fail with wavesz::Error exactly when the barrier path fails. The input
// bytes are a recipe, not a container: they pick the depth, the codec /
// container variant, the grid shape, the chunk height and the error bound,
// and the remainder becomes the field (non-finite values included, so
// NaN/Inf rejection has to agree between the two paths too). Any divergence
// aborts.
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

#include "core/stream.hpp"
#include "core/wavesz.hpp"
#include "fuzz_common.hpp"
#include "sz/config.hpp"
#include "util/dims.hpp"
#include "util/error.hpp"

namespace {

/// Outcome of one compress attempt: the archive bytes, or "it threw".
struct Outcome {
  bool ok = false;
  std::vector<std::uint8_t> bytes;
  friend bool operator==(const Outcome&, const Outcome&) = default;
};

template <typename Fn>
Outcome attempt(Fn&& fn) {
  Outcome o;
  try {
    o.bytes = fn();
    o.ok = true;
  } catch (const wavesz::Error&) {
  }
  return o;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace wavesz;
  if (size < 8 || size > fuzz::kMaxInput) return 0;

  const int depth = 1 + data[0] % 4;
  const unsigned variant = data[1] % 9u;
  const std::size_t rows = 4 + data[2] % 44u;
  const std::size_t cols = 4 + data[3] % 44u;
  const Dims dims = Dims::d2(rows, cols);
  const std::size_t chunk_planes = 1 + data[5] % 4u;

  sz::Config cfg;
  cfg.error_bound = (1 + data[4] % 9) * 1e-4;
  cfg.base = (data[4] & 0x10) ? sz::EbBase::Two : sz::EbBase::Ten;
  if (data[5] & 1) cfg.index_chunk_symbols = 256;

  // Field from the raw tail bytes, recycled to fill the grid. Deliberately
  // unsanitized: bit patterns include NaN/Inf/denormals.
  const std::span<const std::uint8_t> tail(data + 6, size - 6);
  std::vector<float> field(dims.count());
  for (std::size_t i = 0; i < field.size(); ++i) {
    std::uint32_t u = 0;
    for (int b = 0; b < 4; ++b) {
      u = (u << 8) | tail[(i * 4 + static_cast<std::size_t>(b)) % tail.size()];
    }
    field[i] = std::bit_cast<float>(u);
  }
  const std::vector<double> wide(field.begin(), field.end());

  auto wave_defaults = [&] {
    sz::Config w = wave::default_config();
    w.error_bound = cfg.error_bound;
    w.index_chunk_symbols = cfg.index_chunk_symbols;
    return w;
  };
  bool f64 = false;
  bool plane_feeds = false;
  switch (variant) {
    case 0:  // H*G* chunks with the v2 index (the SZ-1.4 defaults)
      break;
    case 1:  // raw codes, G*
      cfg.huffman = false;
      break;
    case 2:  // v1 containers (no chunk index)
      cfg.chunk_index = false;
      break;
    case 3:  // float64 feeds
      f64 = true;
      break;
    case 4:  // waveSZ defaults (base-2, G*)
      cfg = wave_defaults();
      break;
    case 5:  // waveSZ with the customized Huffman stage
      cfg = wave_defaults();
      cfg.huffman = true;
      break;
    case 6:  // waveSZ v1 containers
      cfg = wave_defaults();
      cfg.chunk_index = false;
      break;
    case 7:  // SZx ultra-fast block codec chunks
      cfg.codec = sz::Codec::Szx;
      cfg.huffman = false;
      cfg.chunk_index = false;
      break;
    default:  // one plane per feed(): every chunk fills across feeds
      plane_feeds = true;
      break;
  }

  auto run = [&](int d) {
    return attempt([&] {
      sz::Config c = cfg;
      c.pipeline_depth = d;
      wave::StreamCompressor sc(dims, c, chunk_planes);
      if (f64) {
        sc.feed(std::span<const double>(wide));
      } else if (plane_feeds) {
        for (std::size_t r = 0; r < rows; ++r) {
          sc.feed(std::span<const float>(field).subspan(r * cols, cols));
        }
      } else {
        sc.feed(std::span<const float>(field));
      }
      return sc.finish();
    });
  };

  if (!(run(0) == run(depth))) std::abort();
  return 0;
}
