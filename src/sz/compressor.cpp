#include "sz/compressor.hpp"

#include <algorithm>

#include "deflate/deflate.hpp"
#include "deflate/parallel.hpp"
#include "metrics/stats.hpp"
#include "sz/huffman_codec.hpp"
#include "sz/pqd_detail.hpp"
#include "sz/szx.hpp"
#include "sz/unpredictable.hpp"
#include "sz/wavefront_pqd.hpp"
#include "telemetry/span_names.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace wavesz::sz {
namespace {

using detail::FpOps;

/// Serial-identical min/max scan, split across up to `threads` OpenMP
/// workers. Every accumulator is seeded with data[0] and folded with the
/// same std::min/std::max calls as the serial loop, so the result (including
/// the NaN-poisoning behaviour of a NaN first element) does not depend on
/// the chunking.
template <typename T>
double range_of(std::span<const T> data, int threads) {
  WAVESZ_REQUIRE(!data.empty(), "cannot compress an empty field");
  const double seed = static_cast<double>(data[0]);
  double lo = seed;
  double hi = seed;
  // Below ~1 MiB the scan is memory-latency bound on one core anyway.
  constexpr std::size_t kMinPerThread = 1u << 18;
  const int nt = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(resolve_thread_budget(threads)),
      std::max<std::size_t>(1, data.size() / kMinPerThread)));
  if (nt > 1) {
#ifdef _OPENMP
#pragma omp parallel num_threads(nt)
#endif
    {
#ifdef _OPENMP
      const auto t = static_cast<std::size_t>(omp_get_thread_num());
      const auto parts = static_cast<std::size_t>(omp_get_num_threads());
#else
      const std::size_t t = 0, parts = 1;
#endif
      const std::size_t b0 = data.size() * t / parts;
      const std::size_t b1 = data.size() * (t + 1) / parts;
      double llo = seed, lhi = seed;
      simd::minmax(data.data() + b0, b1 - b0, &llo, &lhi);
#ifdef _OPENMP
#pragma omp critical
#endif
      {
        lo = std::min(lo, llo);
        hi = std::max(hi, lhi);
      }
    }
  } else {
    simd::minmax(data.data(), data.size(), &lo, &hi);
  }
  return hi - lo;
}

/// The SZ-1.4 compress phases, split for the staged pipeline. The bodies
/// are the former compress_t monolith, relocated verbatim per phase (same
/// spans, same counters, same operation order within a phase), so run() is
/// the historical barrier path byte-for-byte.
template <typename T>
class Sz14Staged final : public StagedCompressor {
 public:
  Sz14Staged(std::span<const T> data, const Dims& dims, const Config& cfg)
      : data_(data), dims_(dims), cfg_(cfg) {}

  std::size_t sections() const override { return 2; }

  void pqd() override {
    pqd_nt_ = resolve_thread_budget(cfg_.pqd_threads);
    double range = 0.0;
    {
      telemetry::Span span(telemetry::spans::kValueRange);
      range = range_of<T>(data_, pqd_nt_);
    }
    bound_ = resolve_bound(cfg_, range);
    const LinearQuantizer q(bound_, cfg_.quant_bits);
    WAVESZ_REQUIRE(cfg_.predictor == PredictorKind::Lorenzo1Layer ||
                       dims_.rank <= 2,
                   "2-layer Lorenzo is implemented for 1D/2D data");
    WAVESZ_REQUIRE(!cfg_.chunk_index || cfg_.index_chunk_symbols > 0,
                   "index_chunk_symbols must be positive");

    // pqd_threads > 1 switches to the tiled anti-diagonal wavefront
    // schedule; the two kernels share per-point arithmetic
    // (pqd_detail.hpp), so the codes, history and unpredictable stream are
    // bit-identical either way.
    const bool wavefront = pqd_nt_ > 1 && dims_.rank >= 2;
    {
      telemetry::Span span(wavefront ? telemetry::spans::kPqdWavefront
                                     : telemetry::spans::kPqdRaster);
      pqd_ = wavefront
                 ? detail::lorenzo_pqd_wavefront_t<T>(data_, dims_, q,
                                                      cfg_.predictor, pqd_nt_)
                 : detail::lorenzo_pqd_t<T>(data_, dims_, q, cfg_.predictor);
    }
    telemetry::counter_add(telemetry::Counter::QuantUnpredictable,
                           pqd_.unpredictable.size());
    telemetry::counter_add(telemetry::Counter::QuantPredictable,
                           pqd_.codes.size() - pqd_.unpredictable.size());
  }

  void encode_section(std::size_t s) override {
    if (s == 0) {
      // Code section: H* (customized Huffman) then G* (gzip), or raw codes
      // straight into gzip when Huffman is disabled. With cfg.chunk_index
      // the encoder also records the v2 offset table at its flush points.
      telemetry::Span span(telemetry::spans::kEncodeCodes);
      if (cfg_.huffman) {
        code_plain_ =
            cfg_.chunk_index
                ? huffman_encode_indexed(pqd_.codes, pqd_nt_,
                                         cfg_.index_chunk_symbols, idx_)
                : huffman_encode(pqd_.codes, pqd_nt_);
      } else {
        if (cfg_.chunk_index) {
          idx_ = build_raw_code_index(pqd_.codes, cfg_.index_chunk_symbols);
        }
        ByteWriter cw;
        cw.u16s(pqd_.codes);
        code_plain_ = cw.take();
      }
    } else {
      telemetry::Span span(telemetry::spans::kEncodeUnpred);
      unpred_plain_ = FpOps<T>::encode(pqd_.unpredictable, bound_);
    }
  }

  void deflate_section(std::size_t s) override {
    // Per-section gzip through the chunked engine: each section's chunking,
    // dictionary priming and stitching depend only on that section's plain
    // bytes.
    telemetry::Span span(telemetry::spans::kDeflateSerialize);
    const auto& plain = s == 0 ? code_plain_ : unpred_plain_;
    blobs_[s] = deflate::gzip_compress_parallel(
        plain, cfg_.gzip_level,
        cfg_.chunk_index ? cfg_.indexed_deflate_options()
                         : cfg_.deflate_options());
    if (s == 0) {
      telemetry::counter_add(telemetry::Counter::CodeBytesIn, plain.size());
      telemetry::counter_add(telemetry::Counter::CodeBytesOut,
                             blobs_[0].size());
    } else {
      telemetry::counter_add(telemetry::Counter::UnpredBytesIn, plain.size());
      telemetry::counter_add(telemetry::Counter::UnpredBytesOut,
                             blobs_[1].size());
    }
  }

  Compressed assemble() override {
    Compressed out;
    out.header.variant = Variant::Sz14;
    out.header.dims = dims_;
    out.header.mode = cfg_.mode;
    out.header.base = cfg_.base;
    out.header.eb_requested = cfg_.error_bound;
    out.header.eb_absolute = bound_;
    out.header.quant_bits = cfg_.quant_bits;
    out.header.huffman = cfg_.huffman;
    out.header.gzip_level = cfg_.gzip_level;
    out.header.aux = static_cast<std::uint8_t>(cfg_.predictor);
    out.header.dtype = FpOps<T>::kDtype;
    out.header.point_count = data_.size();
    out.header.unpredictable_count = pqd_.unpredictable.size();
    out.header.version = cfg_.chunk_index ? 2 : 1;
    out.code_blob_bytes = blobs_[0].size();
    out.unpred_blob_bytes = blobs_[1].size();

    ByteWriter w;
    write_header(w, out.header);
    if (cfg_.chunk_index) write_code_index(w, idx_);
    write_section(w, blobs_[0]);
    write_section(w, blobs_[1]);
    out.bytes = w.take();
    // Ratio is dimensionless; the histogram stores milli-ratio so a 4.2x
    // call lands in bucket ~4200 with the usual 3% bucketing error.
    if (!out.bytes.empty()) {
      telemetry::observe(telemetry::Histo::CompressRatioMilli,
                         data_.size_bytes() * 1000 / out.bytes.size());
    }
    return out;
  }

 private:
  std::span<const T> data_;
  Dims dims_;
  Config cfg_;
  int pqd_nt_ = 1;
  double bound_ = 0.0;
  typename FpOps<T>::PqdType pqd_;
  CodeChunkIndex idx_;
  std::vector<std::uint8_t> code_plain_;
  std::vector<std::uint8_t> unpred_plain_;
  std::vector<std::uint8_t> blobs_[2];
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

template <typename T>
std::vector<T> decompress_t(std::span<const std::uint8_t> bytes,
                            Dims* dims_out, const DecodeOptions& opts) {
  telemetry::Span span_all(telemetry::spans::kSzDecompress,
                           telemetry::Histo::DecompressNs,
                           telemetry::kSampleHw);
  ByteReader r(bytes);
  const ContainerHeader h = read_header(r);
  if (h.variant == Variant::SzxFast) {
    return detail::szx_decompress_t<T>(bytes, dims_out);
  }
  WAVESZ_REQUIRE(h.variant == Variant::Sz14,
                 "container is not an SZ-1.4 stream");
  WAVESZ_REQUIRE(h.dtype == FpOps<T>::kDtype,
                 "container value type mismatch (float32 vs float64)");
  const CodeChunkIndex idx = read_code_index(r, h);
  const auto code_blob = read_section(r);
  const auto unpred_blob = read_section(r);

  // v1 streams and stripped-index v2 streams silently fall back to the
  // serial section-by-section decode; decode_threads only has purchase when
  // the index is present (concurrent inflates + chunk-parallel Huffman).
  const int nt = idx.present() ? resolve_thread_budget(opts.decode_threads)
                               : 1;

  std::vector<std::uint8_t> code_plain;
  std::vector<std::uint8_t> unpred_plain;
  if (nt > 1) {
    telemetry::Span span(telemetry::spans::kDecodeParallel);
    const std::span<const std::uint8_t> sections[] = {code_blob, unpred_blob};
    auto plains = deflate::gzip_decompress_batch(sections, nt);
    code_plain = std::move(plains[0]);
    unpred_plain = std::move(plains[1]);
  } else {
    {
      telemetry::Span span(telemetry::spans::kDecodeCodes);
      code_plain = deflate::gzip_decompress(code_blob);
    }
    telemetry::Span span(telemetry::spans::kDecodeUnpred);
    unpred_plain = deflate::gzip_decompress(unpred_blob);
  }

  std::vector<std::uint16_t> codes;
  {
    telemetry::Span span(telemetry::spans::kDecodeCodes);
    if (h.huffman) {
      codes = idx.present() ? huffman_decode_indexed(code_plain, idx, nt)
                            : huffman_decode(code_plain);
    } else {
      ByteReader cr(code_plain);
      codes = cr.u16s(h.point_count);
      if (idx.present()) verify_code_index_crcs(codes, idx, codes.size());
    }
  }
  WAVESZ_REQUIRE(codes.size() == h.point_count, "code count mismatch");

  std::vector<T> unpred;
  {
    telemetry::Span span(telemetry::spans::kDecodeUnpred);
    unpred = FpOps<T>::decode(unpred_plain, h.unpredictable_count,
                              h.eb_absolute);
  }

  WAVESZ_REQUIRE(h.aux <= 1, "unknown SZ-1.4 predictor kind");
  const auto kind = static_cast<PredictorKind>(h.aux);
  const LinearQuantizer q(h.eb_absolute, h.quant_bits);
  if (dims_out != nullptr) *dims_out = h.dims;
  // Reconstruction is value-identical for every budget, so the decode pool
  // may as well drive it when it is the larger of the two.
  const int pqd_nt = std::max(resolve_thread_budget(opts.pqd_threads), nt);
  if (pqd_nt > 1 && h.dims.rank >= 2) {
    telemetry::Span span(telemetry::spans::kReconstructWavefront);
    return detail::lorenzo_reconstruct_wavefront_t<T>(codes, unpred, h.dims,
                                                      q, kind, pqd_nt);
  }
  telemetry::Span span(telemetry::spans::kReconstructRaster);
  return detail::lorenzo_reconstruct_t<T>(codes, unpred, h.dims, q, kind);
}

/// Copy the hyperslab out of a row-major (partial or full) field whose
/// axis-1/axis-2 extents match the container's.
template <typename T>
std::vector<T> gather_region(const std::vector<T>& field, const Dims& fdims,
                             const Region& rg, const Dims& rdims) {
  std::vector<T> out;
  out.reserve(rdims.count());
  const std::size_t s0 = fdims.extent[1] * fdims.extent[2];
  const std::size_t s1 = fdims.extent[2];
  for (std::size_t x = rg.lo[0]; x < rg.hi[0]; ++x) {
    for (std::size_t y = rg.lo[1]; y < rg.hi[1]; ++y) {
      for (std::size_t z = rg.lo[2]; z < rg.hi[2]; ++z) {
        out.push_back(field[x * s0 + y * s1 + z]);
      }
    }
  }
  return out;
}

template <typename T>
RegionResultT<T> decompress_region_t(std::span<const std::uint8_t> bytes,
                                     const Region& region,
                                     const DecodeOptions& opts) {
  telemetry::Span span_all(telemetry::spans::kDecodeRegion);
  ByteReader r(bytes);
  const ContainerHeader h = read_header(r);
  if (h.variant == Variant::SzxFast) {
    // SZx containers carry no chunk index; a region request is served from
    // a full decode (the codec is fast enough that this is still cheap).
    Dims fd;
    const auto field = detail::szx_decompress_t<T>(bytes, &fd);
    Region rg = region;
    const Dims rdims = normalize_region(rg, fd);
    RegionResultT<T> res;
    res.field_dims = fd;
    res.region_dims = rdims;
    res.data = gather_region(field, fd, rg, rdims);
    res.compressed_bytes_read = bytes.size();
    telemetry::counter_add(telemetry::Counter::RegionBytesRead,
                           res.compressed_bytes_read);
    return res;
  }
  WAVESZ_REQUIRE(h.variant == Variant::Sz14,
                 "container is not an SZ-1.4 stream");
  WAVESZ_REQUIRE(h.dtype == FpOps<T>::kDtype,
                 "container value type mismatch (float32 vs float64)");
  const CodeChunkIndex idx = read_code_index(r, h);
  const std::size_t meta_bytes = r.position();

  Region rg = region;
  const Dims rdims = normalize_region(rg, h.dims);
  RegionResultT<T> res;
  res.field_dims = h.dims;
  res.region_dims = rdims;

  // The Lorenzo stencil reaches only backward in raster order, so the
  // dependency closure of the hyperslab is the prefix of complete outer
  // slabs [0, hi[0]) — reconstructing a (hi0, d1, d2) field from the code
  // prefix yields values identical to the same rows of a full decode.
  const std::size_t slab = h.dims.extent[1] * h.dims.extent[2];
  const std::uint64_t need_symbols = rg.hi[0] * slab;

  if (!idx.present() || need_symbols == h.point_count) {
    // Index-less stream, or the slab prefix is the whole field anyway.
    Dims fd;
    const auto field = decompress_t<T>(bytes, &fd, opts);
    res.data = gather_region(field, fd, rg, rdims);
    res.compressed_bytes_read = bytes.size();
    telemetry::counter_add(telemetry::Counter::RegionBytesRead,
                           res.compressed_bytes_read);
    return res;
  }

  const int nt = resolve_thread_budget(opts.decode_threads);
  const std::size_t chunks = chunks_covering(idx, need_symbols);
  const ChunkEntry& last = idx.entries[chunks - 1];

  // Inflate the code section only until the needed chunks' payload exists.
  const std::uint64_t code_plain_need =
      h.huffman ? idx.payload_byte_offset + (last.end_bit + 7) / 8
                : 2 * last.end_element;
  const std::uint64_t code_size = r.u64();
  const auto code_blob = r.bytes(code_size);
  std::vector<std::uint16_t> codes;
  std::size_t code_consumed = 0;
  {
    telemetry::Span span(telemetry::spans::kDecodeCodes);
    auto run = deflate::gzip_decompress_prefix(code_blob, code_plain_need);
    WAVESZ_REQUIRE(run.bytes.size() >= code_plain_need,
                   "code stream shorter than its chunk index claims");
    code_consumed = run.compressed_consumed;
    if (h.huffman) {
      codes = huffman_decode_prefix(run.bytes, idx, last.end_element, nt);
    } else {
      ByteReader cr(run.bytes);
      codes = cr.u16s(last.end_element);
      verify_code_index_crcs(codes, idx, codes.size());
    }
  }

  // Unpredictable values consumed by the slab prefix, in stream order.
  const std::uint64_t n_unpred = count_unpredictable(
      std::span<const std::uint16_t>(codes).first(need_symbols));
  const std::uint64_t unpred_size = r.u64();
  const auto unpred_blob = r.bytes(unpred_size);
  std::vector<T> unpred;
  std::size_t unpred_consumed = 0;
  if (n_unpred > 0) {
    telemetry::Span span(telemetry::spans::kDecodeUnpred);
    // Truncation coding spends at most 1+5+1+8+23 = 38 bits per float32
    // value (1+6+1+11+52 = 71 for float64); a plain prefix of that many
    // bits is guaranteed to contain the first n values.
    const std::uint64_t max_bits = FpOps<T>::kDtype == 1 ? 71 : 38;
    auto run = deflate::gzip_decompress_prefix(
        unpred_blob, (max_bits * n_unpred + 7) / 8);
    unpred = FpOps<T>::decode(run.bytes, n_unpred, h.eb_absolute);
    unpred_consumed = run.compressed_consumed;
  }

  WAVESZ_REQUIRE(h.aux <= 1, "unknown SZ-1.4 predictor kind");
  const auto kind = static_cast<PredictorKind>(h.aux);
  const LinearQuantizer q(h.eb_absolute, h.quant_bits);
  Dims pdims = h.dims;
  pdims.extent[0] = rg.hi[0];
  codes.resize(need_symbols);
  std::vector<T> field;
  const int recon_nt = std::max(resolve_thread_budget(opts.pqd_threads), nt);
  if (recon_nt > 1 && pdims.rank >= 2) {
    telemetry::Span span(telemetry::spans::kReconstructWavefront);
    field = detail::lorenzo_reconstruct_wavefront_t<T>(codes, unpred, pdims,
                                                       q, kind, recon_nt);
  } else {
    telemetry::Span span(telemetry::spans::kReconstructRaster);
    field = detail::lorenzo_reconstruct_t<T>(codes, unpred, pdims, q, kind);
  }
  res.data = gather_region(field, pdims, rg, rdims);
  res.compressed_bytes_read =
      meta_bytes + 8 + code_consumed + 8 + unpred_consumed;
  telemetry::counter_add(telemetry::Counter::RegionBytesRead,
                         res.compressed_bytes_read);
  return res;
}

}  // namespace

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
                              Dims* dims_out, int pqd_threads) {
  return decompress_t<float>(bytes, dims_out,
                             DecodeOptions{1, pqd_threads});
}

std::vector<double> decompress64(std::span<const std::uint8_t> bytes,
                                 Dims* dims_out, int pqd_threads) {
  return decompress_t<double>(bytes, dims_out,
                              DecodeOptions{1, pqd_threads});
}

std::vector<float> decompress(std::span<const std::uint8_t> bytes,
                              const DecodeOptions& opts, Dims* dims_out) {
  return decompress_t<float>(bytes, dims_out, opts);
}

std::vector<double> decompress64(std::span<const std::uint8_t> bytes,
                                 const DecodeOptions& opts, Dims* dims_out) {
  return decompress_t<double>(bytes, dims_out, opts);
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
