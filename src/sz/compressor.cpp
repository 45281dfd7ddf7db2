#include "sz/compressor.hpp"

#include <algorithm>
#include <utility>

#include "sz/pqd_detail.hpp"
#include "sz/sections.hpp"
#include "sz/szx.hpp"
#include "sz/wavefront_pqd.hpp"
#include "telemetry/span_names.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/fork_join.hpp"
#include "util/simd.hpp"

namespace wavesz::sz {
namespace {

/// Serial-identical min/max scan, split into one part per worker. Every
/// accumulator is seeded with data[0] and folded with the same
/// std::min/std::max calls as the serial loop, so the result (including the
/// NaN-poisoning behaviour of a NaN first element) does not depend on the
/// split.
template <typename T>
double range_of(std::span<const T> data, int threads) {
  WAVESZ_REQUIRE(!data.empty(), "value range of an empty field");
  const double seed = static_cast<double>(data[0]);
  // Below ~1 MiB the scan is memory-latency bound on one core anyway.
  const auto parts = static_cast<std::size_t>(
      util::team_size(threads, data.size(), std::size_t{1} << 18));
  std::vector<double> lo(parts, seed), hi(parts, seed);
  util::parallel_for(parts, static_cast<int>(parts), [&](std::size_t t) {
    const std::size_t b0 = data.size() * t / parts;
    const std::size_t b1 = data.size() * (t + 1) / parts;
    simd::minmax(data.data() + b0, b1 - b0, &lo[t], &hi[t]);
  });
  for (std::size_t t = 1; t < parts; ++t) {
    lo[0] = std::min(lo[0], lo[t]);
    hi[0] = std::max(hi[0], hi[t]);
  }
  return hi[0] - lo[0];
}

/// The SZ-1.4 compress phases, split for the staged pipeline: the Lorenzo
/// PQD here, truncation coding for the unpredictable section, and the
/// shared back end (sz/sections.hpp) for everything after.
template <typename T>
class Sz14Staged final : public SectionStaged {
 public:
  Sz14Staged(std::span<const T> data, const Dims& dims, const Config& cfg)
      : SectionStaged(cfg, Variant::Sz14,
                      static_cast<std::uint8_t>(cfg.predictor),
                      kDtype<T>, dims, data.size()),
        data_(data) {}

  void pqd() override {
    const Dims& dims = head_.dims;
    head_.eb_absolute = field_bound(data_, dims, cfg_);
    pqd_nt_ = resolve_thread_budget(cfg_.pqd_threads);
    const LinearQuantizer q(head_.eb_absolute, cfg_.quant_bits);
    WAVESZ_REQUIRE(cfg_.predictor == PredictorKind::Lorenzo1Layer ||
                       dims.rank <= 2,
                   "2-layer Lorenzo is implemented for 1D/2D data");
    WAVESZ_REQUIRE(!cfg_.chunk_index || cfg_.index_chunk_symbols > 0,
                   "index_chunk_symbols must be positive");

    // pqd_threads > 1 switches to the tiled anti-diagonal wavefront
    // schedule; the two kernels share per-point arithmetic
    // (pqd_detail.hpp), so the codes, history and unpredictable stream are
    // bit-identical either way.
    const bool wavefront = pqd_nt_ > 1 && dims.rank >= 2;
    {
      telemetry::Span span(wavefront ? telemetry::spans::kPqdWavefront
                                     : telemetry::spans::kPqdRaster);
      pqd_ = wavefront ? detail::lorenzo_pqd_wavefront_t<T>(
                             data_, dims, q, cfg_.predictor, pqd_nt_)
                       : detail::lorenzo_pqd_t<T>(data_, dims, q,
                                                  cfg_.predictor);
    }
    codes_ = std::move(pqd_.codes);
    head_.unpredictable_count = pqd_.unpredictable.size();
    telemetry::counter_add(telemetry::Counter::QuantUnpredictable,
                           pqd_.unpredictable.size());
    telemetry::counter_add(telemetry::Counter::QuantPredictable,
                           codes_.size() - pqd_.unpredictable.size());
  }

 private:
  std::vector<std::uint8_t> encode_unpredictable() override {
    telemetry::Span span(telemetry::spans::kEncodeUnpred);
    return truncation_encode<T>(pqd_.unpredictable, head_.eb_absolute);
  }

  std::span<const T> data_;
  PqdT<T> pqd_;
};

/// Staged facade over the SZx block codec. The codec has no separable
/// phases — quantization, block classification and bit-packing are fused in
/// one pass with no entropy or DEFLATE stage — so the whole compression runs
/// as the single section's encode and the other phases are no-ops. A chunk
/// pipeline still overlaps *across* chunks (chunk k+1 encodes while chunk
/// k frames); there is simply no intra-chunk overlap to expose.
template <typename T>
class SzxStaged final : public StagedCompressor {
 public:
  SzxStaged(std::span<const T> data, const Dims& dims, const Config& cfg)
      : data_(data), dims_(dims), cfg_(cfg) {}

  std::size_t sections() const override { return 1; }
  void pqd() override {}
  void encode_section(std::size_t) override {
    out_ = detail::szx_compress_t<T>(data_, dims_, cfg_);
  }
  void deflate_section(std::size_t) override {}
  Compressed assemble() override { return std::move(out_); }

 private:
  std::span<const T> data_;
  Dims dims_;
  Config cfg_;
  Compressed out_;
};

template <typename T>
std::unique_ptr<StagedCompressor> make_staged_t(std::span<const T> data,
                                                const Dims& dims,
                                                const Config& cfg) {
  if (cfg.codec == Codec::Szx) {
    return std::make_unique<SzxStaged<T>>(data, dims, cfg);
  }
  return std::make_unique<Sz14Staged<T>>(data, dims, cfg);
}

template <typename T>
Compressed compress_t(std::span<const T> data, const Dims& dims,
                      const Config& cfg) {
  if (cfg.codec == Codec::Szx) {
    return detail::szx_compress_t<T>(data, dims, cfg);
  }
  telemetry::Span span_all(telemetry::spans::kSzCompress,
                           telemetry::Histo::CompressNs, telemetry::kSampleHw);
  return Sz14Staged<T>(data, dims, cfg).run();
}

/// The sections of an SZ-1.4 container whose header `h` was read from `r`.
template <typename T>
Sections read_sz14(ByteReader& r, const ContainerHeader& h) {
  expect_variant(h, Variant::Sz14, kDtype<T>,
                 "container is not an SZ-1.4 stream");
  return read_sections(r, h);
}

/// Cut the box [0, box[0]) x [0, box[1]) x [0, box[2]) out of `codes`,
/// decoded over its complete outer slabs [0, box[0]) of `field`, and out of
/// the unpredictable values those codes consume, in place: the leading run
/// of each box row moves down behind the previous one, and so does each
/// value a box code consumes. The value cursor also steps over the code-0
/// points of each row tail and plane tail outside the box. Rows run along
/// the last axis; a rank-2 field is one plane of rows.
template <typename T>
void cut_box(std::vector<std::uint16_t>& codes, std::vector<T>& unpred,
             const Dims& field, const Dims& box) {
  const std::size_t p = field.rank == 3 ? 1 : 0;  // the row axis
  const std::size_t rows = field.extent[p], cols = field.extent[p + 1];
  std::size_t codes_kept = 0, values_kept = 0, next = 0;
  for (std::size_t row = 0; row < codes.size() / cols; ++row) {
    const std::span<const std::uint16_t> all(codes.data() + row * cols, cols);
    const auto kept =
        all.first(row % rows < box.extent[p] ? box.extent[p + 1] : 0);
    const std::size_t used = count_unpredictable(kept);
    // The box is a raster subsequence, so each write lands at or before
    // the element it copies.
    for (const std::uint16_t c : kept) codes[codes_kept++] = c;
    for (std::size_t v = 0; v < used; ++v) {
      unpred[values_kept++] = unpred[next + v];
    }
    next += used + count_unpredictable(all.subspan(kept.size()));
  }
  codes.resize(codes_kept);
  unpred.resize(values_kept);
}

/// Rebuild the box [0, box[0]) x [0, box[1]) x [0, box[2]) of the field
/// from sections decoded over its complete outer slabs [0, box[0]) (the
/// whole field when `box` is the header's dims): truncation-decode the
/// unpredictable values, keep the box's codes and values, then run the
/// Lorenzo reconstruct over the box alone. The stencil reaches only
/// backward, and off-grid taps read 0 in both runs, so each box value
/// equals the same point of a full decode.
template <typename T>
std::vector<T> reconstruct(const ContainerHeader& h, SectionsDecoded d,
                           const Dims& box, const DecodeOptions& opts) {
  std::vector<T> unpred;
  {
    telemetry::Span span(telemetry::spans::kDecodeUnpred);
    unpred = truncation_decode<T>(d.unpred, d.unpred_count, h.eb_absolute);
  }
  if (box.count() != d.codes.size()) cut_box<T>(d.codes, unpred, h.dims, box);
  WAVESZ_REQUIRE(h.aux <= 1, "unknown SZ-1.4 predictor kind");
  const auto kind = static_cast<PredictorKind>(h.aux);
  const LinearQuantizer q(h.eb_absolute, h.quant_bits);
  // Reconstruction is value-identical for every budget, so the decode pool
  // may as well drive it when it is the larger of the two.
  const int nt = std::max(resolve_thread_budget(opts.pqd_threads), d.threads);
  if (nt > 1 && box.rank >= 2) {
    telemetry::Span span(telemetry::spans::kReconstructWavefront);
    return detail::lorenzo_reconstruct_wavefront_t<T>(d.codes, unpred, box, q,
                                                      kind, nt);
  }
  telemetry::Span span(telemetry::spans::kReconstructRaster);
  return detail::lorenzo_reconstruct_t<T>(d.codes, unpred, box, q, kind);
}

template <typename T>
std::vector<T> decompress_t(std::span<const std::uint8_t> bytes,
                            const DecodeOptions& opts, Dims* dims_out) {
  telemetry::Span span_all(telemetry::spans::kSzDecompress,
                           telemetry::Histo::DecompressNs,
                           telemetry::kSampleHw);
  ByteReader r(bytes);
  const ContainerHeader h = read_header(r);
  if (h.variant == Variant::SzxFast) {
    return detail::szx_decompress_t<T>(bytes, dims_out);
  }
  const Sections s = read_sz14<T>(r, h);
  auto field = reconstruct<T>(h, decode_sections(s, opts), h.dims, opts);
  if (dims_out != nullptr) *dims_out = h.dims;
  return field;
}

template <typename T>
RegionResultT<T> decompress_region_t(std::span<const std::uint8_t> bytes,
                                     const Region& region,
                                     const DecodeOptions& opts) {
  telemetry::Span span_all(telemetry::spans::kDecodeRegion);
  ByteReader r(bytes);
  const ContainerHeader h = read_header(r);
  const bool szx = h.variant == Variant::SzxFast;
  Sections s;
  if (!szx) s = read_sz14<T>(r, h);
  Region rg = region;
  RegionResultT<T> res;
  res.field_dims = h.dims;
  res.region_dims = normalize_region(rg, h.dims);

  // The hyperslab depends on the box [0, hi0) x [0, hi1) x [0, hi2) alone.
  // Raster code order makes the decoder decode the box's complete outer
  // slabs [0, hi0); reconstruct() then rebuilds only the box.
  Dims box = h.dims;
  box.extent = rg.hi;
  if (szx || !s.idx.present() || box == h.dims) {
    // SZx and index-less streams carry no chunk index (SZx decodes fast
    // enough that a full decode is still cheap), or the box is the whole
    // field anyway.
    const auto field = szx ? detail::szx_decompress_t<T>(bytes, nullptr)
                           : decompress_t<T>(bytes, opts, nullptr);
    res.data = gather_region<T>(field, h.dims, rg, res.region_dims);
    res.compressed_bytes_read = bytes.size();
  } else {
    SectionsDecoded d = decode_section_prefix(
        s, rg.hi[0] * h.dims.extent[1] * h.dims.extent[2], opts,
        TruncationFormat<T>::kMaxBits);
    res.compressed_bytes_read = d.bytes_read;
    res.data = gather_region<T>(reconstruct<T>(h, std::move(d), box, opts),
                                box, rg, res.region_dims);
  }
  telemetry::counter_add(telemetry::Counter::RegionBytesRead,
                         res.compressed_bytes_read);
  return res;
}

}  // namespace

template <typename T>
double field_bound(std::span<const T> data, const Dims& dims,
                   const Config& cfg) {
  WAVESZ_REQUIRE(data.size() == dims.count(), "data size disagrees with dims");
  double range = 0.0;
  if (cfg.mode == EbMode::ValueRangeRelative) {
    telemetry::Span span(telemetry::spans::kValueRange);
    range = range_of<T>(data, resolve_thread_budget(cfg.pqd_threads));
  }
  return resolve_bound(cfg, range);
}

template double field_bound<float>(std::span<const float>, const Dims&,
                                   const Config&);
template double field_bound<double>(std::span<const double>, const Dims&,
                                    const Config&);

double value_range(std::span<const float> data, int threads) {
  return range_of<float>(data, threads);
}

double value_range(std::span<const double> data, int threads) {
  return range_of<double>(data, threads);
}

Pqd lorenzo_pqd(std::span<const float> data, const Dims& dims,
                const LinearQuantizer& q, PredictorKind kind) {
  return detail::lorenzo_pqd_t<float>(data, dims, q, kind);
}

Pqd64 lorenzo_pqd64(std::span<const double> data, const Dims& dims,
                    const LinearQuantizer& q, PredictorKind kind) {
  return detail::lorenzo_pqd_t<double>(data, dims, q, kind);
}

std::vector<float> lorenzo_reconstruct(std::span<const std::uint16_t> codes,
                                       std::span<const float> unpredictable,
                                       const Dims& dims,
                                       const LinearQuantizer& q,
                                       PredictorKind kind) {
  return detail::lorenzo_reconstruct_t<float>(codes, unpredictable, dims, q,
                                              kind);
}

std::vector<double> lorenzo_reconstruct64(
    std::span<const std::uint16_t> codes,
    std::span<const double> unpredictable, const Dims& dims,
    const LinearQuantizer& q, PredictorKind kind) {
  return detail::lorenzo_reconstruct_t<double>(codes, unpredictable, dims, q,
                                               kind);
}

std::unique_ptr<StagedCompressor> make_staged(std::span<const float> data,
                                              const Dims& dims,
                                              const Config& cfg) {
  return make_staged_t<float>(data, dims, cfg);
}

std::unique_ptr<StagedCompressor> make_staged(std::span<const double> data,
                                              const Dims& dims,
                                              const Config& cfg) {
  return make_staged_t<double>(data, dims, cfg);
}

Compressed compress(std::span<const float> data, const Dims& dims,
                    const Config& cfg) {
  return compress_t<float>(data, dims, cfg);
}

Compressed compress(std::span<const double> data, const Dims& dims,
                    const Config& cfg) {
  return compress_t<double>(data, dims, cfg);
}

std::vector<float> decompress(std::span<const std::uint8_t> bytes,
                              const DecodeOptions& opts, Dims* dims_out) {
  return decompress_t<float>(bytes, opts, dims_out);
}

std::vector<double> decompress64(std::span<const std::uint8_t> bytes,
                                 const DecodeOptions& opts, Dims* dims_out) {
  return decompress_t<double>(bytes, opts, dims_out);
}

RegionResult decompress_region(std::span<const std::uint8_t> bytes,
                               const Region& region,
                               const DecodeOptions& opts) {
  return decompress_region_t<float>(bytes, region, opts);
}

RegionResult64 decompress_region64(std::span<const std::uint8_t> bytes,
                                   const Region& region,
                                   const DecodeOptions& opts) {
  return decompress_region_t<double>(bytes, region, opts);
}

}  // namespace wavesz::sz
