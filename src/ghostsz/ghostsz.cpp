#include "ghostsz/ghostsz.hpp"

#include "sz/predictor.hpp"
#include "sz/sections.hpp"
#include "util/error.hpp"

namespace wavesz::ghost {
namespace {

/// Rolling 3-deep history of a row's writeback values (pred for quantizable
/// points, original for unpredictable ones — Algorithm 1 lines 9/12).
struct RowHistory {
  double p1 = 0.0, p2 = 0.0, p3 = 0.0;
  int filled = 0;

  void push(double v) {
    p3 = p2;
    p2 = p1;
    p1 = v;
    if (filled < 3) ++filled;
  }
};

double predict_with_order(const RowHistory& h, std::uint8_t order) {
  switch (order) {
    case 0: return sz::curvefit_order0(h.p1);
    case 1: return sz::curvefit_order1(h.p1, h.p2);
    default: return sz::curvefit_order2(h.p1, h.p2, h.p3);
  }
}

}  // namespace

std::uint16_t pack_symbol(std::uint8_t order, std::uint16_t code) {
  WAVESZ_ASSERT(order < 4, "order must fit in 2 bits");
  WAVESZ_ASSERT(code < (1u << kGhostQuantBits), "code must fit in 14 bits");
  return static_cast<std::uint16_t>((static_cast<unsigned>(order) << 14) |
                                    code);
}

std::uint8_t symbol_order(std::uint16_t symbol) {
  return static_cast<std::uint8_t>(symbol >> 14);
}

std::uint16_t symbol_code(std::uint16_t symbol) {
  return static_cast<std::uint16_t>(symbol & ((1u << kGhostQuantBits) - 1));
}

sz::Pqd ghost_pqd(std::span<const float> data, const Dims& dims,
                  const sz::LinearQuantizer& q) {
  WAVESZ_REQUIRE(data.size() == dims.count(), "data size disagrees with dims");
  WAVESZ_REQUIRE(q.capacity() == (1u << kGhostQuantBits),
                 "GhostSZ requires a 14-bit quantizer");
  const Dims flat = dims.flatten2d();
  const std::size_t rows = flat.rank == 1 ? 1 : flat[0];
  const std::size_t width = flat.rank == 1 ? flat[0] : flat[1];

  sz::Pqd out;
  out.codes.resize(data.size());
  out.reconstructed.resize(data.size());
  for (std::size_t r = 0; r < rows; ++r) {
    RowHistory hist;
    const std::size_t base = r * width;
    for (std::size_t c = 0; c < width; ++c) {
      const std::size_t i = base + c;
      const double orig = static_cast<double>(data[i]);
      if (hist.filled == 0) {
        // Row seed: always verbatim.
        out.codes[i] = pack_symbol(0, 0);
        out.reconstructed[i] = data[i];
        out.unpredictable.push_back(data[i]);
        hist.push(orig);
        continue;
      }
      const sz::BestFit fit =
          sz::curvefit_best(orig, hist.p1, hist.p2, hist.p3, hist.filled);
      const sz::QuantResult qr = q.quantize(fit.prediction, orig);
      if (qr.code != 0) {
        out.codes[i] = pack_symbol(fit.order, qr.code);
        out.reconstructed[i] = qr.reconstructed;
        hist.push(fit.prediction);  // line 9: pred, not d_re
      } else {
        out.codes[i] = pack_symbol(0, 0);
        out.reconstructed[i] = data[i];
        out.unpredictable.push_back(data[i]);
        hist.push(orig);  // line 12: original re-anchors the chain
      }
    }
  }
  return out;
}

std::vector<float> ghost_reconstruct(std::span<const std::uint16_t> symbols,
                                     std::span<const float> unpredictable,
                                     const Dims& dims,
                                     const sz::LinearQuantizer& q) {
  WAVESZ_REQUIRE(symbols.size() == dims.count(),
                 "symbol count disagrees with dims");
  const Dims flat = dims.flatten2d();
  const std::size_t rows = flat.rank == 1 ? 1 : flat[0];
  const std::size_t width = flat.rank == 1 ? flat[0] : flat[1];

  std::vector<float> rec(symbols.size());
  std::size_t next_unpred = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    RowHistory hist;
    const std::size_t base = r * width;
    for (std::size_t c = 0; c < width; ++c) {
      const std::size_t i = base + c;
      const std::uint16_t code = symbol_code(symbols[i]);
      if (code == 0) {
        WAVESZ_REQUIRE(next_unpred < unpredictable.size(),
                       "unpredictable stream exhausted");
        const float v = unpredictable[next_unpred++];
        rec[i] = v;
        hist.push(static_cast<double>(v));
      } else {
        const double pred = predict_with_order(hist, symbol_order(symbols[i]));
        rec[i] = q.reconstruct(pred, code);
        hist.push(pred);
      }
    }
  }
  WAVESZ_REQUIRE(next_unpred == unpredictable.size(),
                 "unpredictable stream has trailing values");
  return rec;
}

namespace {

/// GhostSZ's back-end settings: 14-bit bins, G* only (no customized
/// Huffman), and no chunk index.
sz::Config ghost_config(sz::Config cfg) {
  cfg.quant_bits = kGhostQuantBits;
  cfg.huffman = false;
  cfg.chunk_index = false;
  return cfg;
}

/// The GhostSZ compress phases: the row-wise PQD here, its row seeds and
/// unpredictable values verbatim as raw float32, and the shared back end
/// (sz/sections.hpp) for everything after.
class GhostStaged final : public sz::SectionStaged {
 public:
  GhostStaged(std::span<const float> data, const Dims& dims,
              const sz::Config& cfg)
      : SectionStaged(ghost_config(cfg), sz::Variant::GhostSz, 0, 0, dims,
                      data.size()),
        data_(data) {}

  void pqd() override {
    head_.eb_absolute = sz::field_bound(data_, head_.dims, cfg_);
    sz::Pqd result = ghost_pqd(
        data_, head_.dims,
        sz::LinearQuantizer(head_.eb_absolute, kGhostQuantBits));
    codes_ = std::move(result.codes);
    unpred_ = std::move(result.unpredictable);
    head_.unpredictable_count = unpred_.size();
  }

 private:
  std::vector<std::uint8_t> encode_unpredictable() override {
    ByteWriter uw;
    uw.floats(unpred_);
    return uw.take();
  }

  std::span<const float> data_;
  std::vector<float> unpred_;
};

}  // namespace

sz::Compressed compress(std::span<const float> data, const Dims& dims,
                        const sz::Config& cfg) {
  return GhostStaged(data, dims, cfg).run();
}

std::vector<float> decompress(std::span<const std::uint8_t> bytes,
                              Dims* dims_out) {
  ByteReader r(bytes);
  const sz::ContainerHeader h = sz::read_header(r);
  sz::expect_variant(h, sz::Variant::GhostSz, 0,
                     "container is not a GhostSZ stream");
  // The encoder writes index-less G* containers only (ghost_config).
  WAVESZ_REQUIRE(h.version == 1 && !h.huffman,
                 "GhostSZ containers are index-less G* streams");
  const sz::SectionsDecoded d =
      sz::decode_sections(sz::read_sections(r, h), {});
  ByteReader ur(d.unpred);
  const auto unpred = ur.floats(d.unpred_count);
  const sz::LinearQuantizer q(h.eb_absolute, h.quant_bits);
  if (dims_out != nullptr) *dims_out = h.dims;
  return ghost_reconstruct(d.codes, unpred, h.dims, q);
}

}  // namespace wavesz::ghost
