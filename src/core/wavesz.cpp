#include "core/wavesz.hpp"

#include <algorithm>

#include "deflate/deflate.hpp"
#include "deflate/parallel.hpp"
#include "sz/huffman_codec.hpp"
#include "sz/pqd_detail.hpp"
#include "sz/predictor.hpp"
#include "sz/szx.hpp"
#include "telemetry/span_names.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace wavesz::wave {
namespace {

/// Width-generic glue between the kernels and the float32/float64 entry
/// points of the quantizer and serializers.
template <typename T>
struct FpOps;

template <>
struct FpOps<float> {
  using Kernel = KernelResult;
  static constexpr std::uint8_t kDtype = 0;
  static auto quantize(const sz::LinearQuantizer& q, double pred,
                       float orig) {
    return q.quantize(pred, orig);
  }
  static float reconstruct(const sz::LinearQuantizer& q, double pred,
                           std::uint16_t code) {
    return q.reconstruct(pred, code);
  }
  static void write_values(ByteWriter& w, std::span<const float> v) {
    w.floats(v);
  }
  static std::vector<float> read_values(ByteReader& r, std::size_t n) {
    return r.floats(n);
  }
};

template <>
struct FpOps<double> {
  using Kernel = KernelResult64;
  static constexpr std::uint8_t kDtype = 1;
  static auto quantize(const sz::LinearQuantizer& q, double pred,
                       double orig) {
    return q.quantize64(pred, orig);
  }
  static double reconstruct(const sz::LinearQuantizer& q, double pred,
                            std::uint16_t code) {
    return q.reconstruct64(pred, code);
  }
  static void write_values(ByteWriter& w, std::span<const double> v) {
    w.doubles(v);
  }
  static std::vector<double> read_values(ByteReader& r, std::size_t n) {
    return r.doubles(n);
  }
};

/// Geometry of wavefront column h, shared by the encoder and decoder walks.
///
/// The layout stores each anti-diagonal h = x + y as one contiguous column
/// (§3.1), so the interior points (x >= 1 and y >= 1) of a column read
/// three contiguous history runs: the W tap at `w + k` and the N tap at
/// `w + k - 1` in column h - 1, the NW tap at `nw + k` in column h - 2.
/// A column's border points are its first point when it lies on row 0 and
/// its last when it lies on column 0; columns 0 and 1 hold only border
/// points, so their interior run is empty.
struct ColumnRuns {
  std::size_t begin;  ///< storage offset of the column's first point
  std::size_t end;    ///< one past its last point
  bool top;           ///< the first point is (0, h)
  bool left;          ///< the last point is (h, 0), h > 0 (the pivot is top)
  std::size_t off;    ///< interior run [off, off + n)
  std::size_t n;
  std::size_t w;      ///< W tap of the run's first point
  std::size_t nw;     ///< NW tap of the run's first point
};

ColumnRuns column_runs(const WavefrontLayout& layout, std::size_t h) {
  ColumnRuns c{};
  c.begin = layout.column_start(h);
  c.end = layout.column_start(h + 1);
  const std::size_t x_lo = layout.column_first_row(h);
  c.top = x_lo == 0;
  c.left = h > 0 && h < layout.rows();
  if (h < 2) return c;
  c.off = c.begin + (c.top ? 1 : 0);
  c.n = c.end - (c.left ? 1 : 0) - c.off;
  const std::size_t x = x_lo + (c.top ? 1 : 0);  // first interior row
  c.w = layout.column_start(h - 1) + (x - layout.column_first_row(h - 1));
  c.nw = layout.column_start(h - 2) + (x - 1 - layout.column_first_row(h - 2));
  return c;
}

/// The interior run [0, n) of one column. With lanes on (a 2D plane at
/// Level::Avx2), lanes(k) does whole simd::kWaveLanes blocks from point k
/// and returns how many points it did; point(k) finishes in default-target
/// code what they leave: the run's tail, and in the decoder each block that
/// stopped them. With lanes off, point(k) does the whole run.
template <typename LanesFn, typename PointFn>
void interior_run(std::size_t n, bool lanes_on, LanesFn&& lanes,
                  PointFn&& point) {
  std::size_t k = 0;
  while (k < n) {
    std::size_t stop = n;
    if (lanes_on) {
      k += lanes(k);
      stop = std::min(n, k + simd::kWaveLanes);
    }
    for (; k < stop; ++k) point(k);
  }
}

/// Lanes of the walks that have no run kernel: True3D planes >= 1.
constexpr auto kNoLanes = [](const ColumnRuns&, std::size_t) {
  return std::size_t{0};
};

/// The one column walk behind every PQD: 2D grid, True3D plane 0 and
/// True3D planes >= 1 (Listing 1: column-major over the wavefront layout,
/// in-place decompression writeback). Writes one code per point of `wf` to
/// `codes`, by storage offset. Border points go verbatim with code 0 (§3.2)
/// and keep their exact original as history; interior points quantize
/// against predict(off, w, nw), lanes(c, k) first (see interior_run). After
/// the walk every code-0 slot still holds its original, so the verbatim
/// values are gathered from them in storage order, which is stream order.
template <typename T, typename LanesFn, typename PredictFn>
void encode_columns(std::span<T> wf, const WavefrontLayout& layout,
                    const sz::LinearQuantizer& q, std::uint16_t* codes,
                    std::vector<T>& verbatim, bool lanes_on, LanesFn&& lanes,
                    PredictFn&& predict) {
  WAVESZ_REQUIRE(wf.size() == layout.count(),
                 "wavefront size disagrees with layout");
  T* const v = wf.data();
  for (std::size_t h = 0; h < layout.column_count(); ++h) {
    const ColumnRuns c = column_runs(layout, h);
    if (c.top) codes[c.begin] = 0;
    interior_run(
        c.n, lanes_on, [&](std::size_t k) { return lanes(c, k); },
        [&](std::size_t k) {
          const std::size_t i = c.off + k;
          const auto r =
              FpOps<T>::quantize(q, predict(i, c.w + k, c.nw + k), v[i]);
          codes[i] = r.code;
          if (r.code != 0) v[i] = r.reconstructed;  // in-place writeback
        });
    if (c.left) codes[c.end - 1] = 0;
  }
  for (std::size_t i = 0; i < wf.size(); ++i) {
    if (codes[i] == 0) verbatim.push_back(v[i]);
  }
}

/// The fully pipelined 2D kernel, 2D Lorenzo over the column runs; the SIMD
/// level is read once for the whole walk.
template <typename T>
void wave_pqd_2d_t(std::span<T> wf, const WavefrontLayout& layout,
                   const sz::LinearQuantizer& q, std::uint16_t* codes,
                   std::vector<T>& verbatim) {
  T* const v = wf.data();
  const simd::Level level = simd::active();
  const simd::QuantSpec qs = sz::detail::quant_spec(q);
  encode_columns(
      wf, layout, q, codes, verbatim, level == simd::Level::Avx2,
      [=](const ColumnRuns& c, std::size_t k) {
        return simd::wave_pqd_run(level, v + c.off + k, codes + c.off + k,
                                  v + c.w + k, v + c.nw + k, c.n - k, qs);
      },
      [v](std::size_t, std::size_t w, std::size_t nw) {
        return sz::lorenzo2d(v[nw], v[w - 1], v[w]);
      });
}

/// 3D-Lorenzo PQD for one slice, the previous slice already reconstructed
/// (both in wavefront layout). Used by LayoutMode::True3D.
template <typename T>
void wave_pqd_slice3d(std::span<T> cur, std::span<const T> prev,
                      const WavefrontLayout& layout,
                      const sz::LinearQuantizer& q, std::uint16_t* codes,
                      std::vector<T>& verbatim) {
  const T* const c = cur.data();
  const T* const p = prev.data();
  encode_columns(cur, layout, q, codes, verbatim, false, kNoLanes,
                 [c, p](std::size_t off, std::size_t w, std::size_t nw) {
                   const std::size_t n = w - 1;
                   return sz::lorenzo3d(p[nw], c[nw], p[n], p[w], c[n], c[w],
                                        p[off]);
                 });
}

/// The one column walk behind every reconstruct: 2D full, 2D column prefix
/// and True3D slice, over the columns [0, h_end) of `out`. A code-0 point
/// takes the next verbatim value as the walk reaches it: storage order is
/// stream order. The encoder sends border points verbatim, so a nonzero
/// code there marks a corrupt container. point(off, w, nw, code) rebuilds
/// an interior point with a nonzero code, lanes(c, k) first (see
/// interior_run).
template <typename T, typename LanesFn, typename PointFn>
void walk_columns(std::span<const std::uint16_t> codes,
                  std::span<const T> verbatim, std::size_t* next_verbatim,
                  T* out, const WavefrontLayout& layout, std::size_t h_end,
                  bool lanes_on, LanesFn&& lanes, PointFn&& point) {
  std::size_t next = *next_verbatim;
  const auto take = [&](std::size_t i) {
    WAVESZ_REQUIRE(next < verbatim.size(), "verbatim stream exhausted");
    out[i] = verbatim[next++];
  };
  const auto border = [&](std::size_t i) {
    WAVESZ_REQUIRE(codes[i] == 0, "border point carries a quantization code");
    take(i);
  };
  for (std::size_t h = 0; h < h_end; ++h) {
    const ColumnRuns c = column_runs(layout, h);
    if (c.top) border(c.begin);
    interior_run(
        c.n, lanes_on, [&](std::size_t k) { return lanes(c, k); },
        [&](std::size_t k) {
          const std::size_t i = c.off + k;
          const std::uint16_t code = codes[i];
          if (code != 0) {
            point(i, c.w + k, c.nw + k, code);
          } else {
            take(i);
          }
        });
    if (c.left) border(c.end - 1);
  }
  *next_verbatim = next;
}

/// Inverse of wave_pqd_2d_t over the columns [0, h_end): the first
/// layout.column_start(h_end) values of the wavefront-layout
/// reconstruction, from as many codes. The Lorenzo taps reach only into
/// columns h - 1 and h - 2, so every column prefix is dependency-closed: a
/// full decode passes column_count(), a region decode the prefix that
/// covers its region. The SIMD level is read once for the whole walk.
template <typename T>
std::vector<T> wave_reconstruct_2d_t(std::span<const std::uint16_t> codes,
                                     std::span<const T> verbatim,
                                     std::size_t* next_verbatim,
                                     const WavefrontLayout& layout,
                                     const sz::LinearQuantizer& q,
                                     std::size_t h_end) {
  WAVESZ_REQUIRE(h_end <= layout.column_count(),
                 "column prefix exceeds layout");
  WAVESZ_REQUIRE(codes.size() == layout.column_start(h_end),
                 "code count disagrees with layout");
  std::vector<T> rec(codes.size());
  T* const r = rec.data();
  const simd::Level level = simd::active();
  const simd::QuantSpec qs = sz::detail::quant_spec(q);
  walk_columns(
      codes, verbatim, next_verbatim, r, layout, h_end,
      level == simd::Level::Avx2,
      [=, cs = codes.data()](const ColumnRuns& c, std::size_t k) {
        return simd::wave_reconstruct_run(level, cs + c.off + k, r + c.off + k,
                                          r + c.w + k, r + c.nw + k, c.n - k,
                                          qs);
      },
      [r, &q](std::size_t off, std::size_t w, std::size_t nw,
              std::uint16_t code) {
        const double pred = sz::lorenzo2d(r[nw], r[w - 1], r[w]);
        r[off] = FpOps<T>::reconstruct(q, pred, code);
      });
  return rec;
}

/// Inverse of wave_pqd_slice3d: the same column walk, with the 3D taps
/// read from the same runs in `cur` and `prev`.
template <typename T>
void wave_reconstruct_slice3d(std::span<const std::uint16_t> codes,
                              std::span<const T> verbatim,
                              std::size_t* next_verbatim,
                              std::span<const T> prev, std::span<T> cur,
                              const WavefrontLayout& layout,
                              const sz::LinearQuantizer& q) {
  T* const c = cur.data();
  const T* const p = prev.data();
  walk_columns(codes, verbatim, next_verbatim, c, layout,
               layout.column_count(), false, kNoLanes,
               [c, p, &q](std::size_t off, std::size_t w, std::size_t nw,
                          std::uint16_t code) {
                 const std::size_t n = w - 1;
                 const double pred = sz::lorenzo3d(p[nw], c[nw], p[n], p[w],
                                                   c[n], c[w], p[off]);
                 c[off] = FpOps<T>::reconstruct(q, pred, code);
               });
}

/// Serialize the code stream, building the v2 chunk index alongside when
/// cfg.chunk_index is set (idx stays empty otherwise).
std::vector<std::uint8_t> plain_codes(std::span<const std::uint16_t> codes,
                                      const sz::Config& cfg, int threads,
                                      sz::CodeChunkIndex& idx) {
  if (cfg.huffman) {
    return cfg.chunk_index
               ? sz::huffman_encode_indexed(codes, threads,
                                            cfg.index_chunk_symbols, idx)
               : sz::huffman_encode(codes, threads);
  }
  if (cfg.chunk_index) {
    idx = sz::build_raw_code_index(codes, cfg.index_chunk_symbols);
  }
  ByteWriter cw;
  cw.u16s(codes);
  return cw.take();
}

/// The waveSZ compress phases, split for StreamCompressor's chunk pipeline
/// exactly like sz::Sz14Staged: run() executes them in order, and the
/// pipelined schedule runs the same bodies, so it cannot change the output.
template <typename T>
class WaveStaged final : public sz::StagedCompressor {
 public:
  WaveStaged(std::span<const T> data, const Dims& dims, const sz::Config& cfg,
             LayoutMode mode)
      : data_(data), dims_(dims), cfg_(cfg), mode_(mode) {}

  std::size_t sections() const override { return 2; }

  void pqd() override {
    WAVESZ_REQUIRE(data_.size() == dims_.count(),
                   "data size disagrees with dims");
    WAVESZ_REQUIRE(
        dims_.rank >= 2,
        "waveSZ targets 2D+ datasets (1D degenerates to all-border)");
    WAVESZ_REQUIRE(!cfg_.chunk_index || cfg_.index_chunk_symbols > 0,
                   "index_chunk_symbols must be positive");
    pqd_nt_ = sz::resolve_thread_budget(cfg_.pqd_threads);
    double range = 0.0;
    {
      telemetry::Span span(telemetry::spans::kValueRange);
      range = sz::value_range(data_, pqd_nt_);
    }
    bound_ = resolve_bound(cfg_, range);
    const sz::LinearQuantizer q(bound_, cfg_.quant_bits);
    if (mode_ == LayoutMode::True3D) {
      WAVESZ_REQUIRE(dims_.rank == 3, "True3D layout requires a 3D dataset");
    }

    kr_.codes.resize(data_.size());
    if (mode_ == LayoutMode::Flatten2D || dims_.rank <= 2) {
      telemetry::Span span_pqd(telemetry::spans::kWavePqd);
      const Dims flat = dims_.flatten2d();
      const WavefrontLayout layout(flat[0], flat[1]);
      auto wf = to_wavefront(data_, layout);
      wave_pqd_2d_t<T>(wf, layout, q, kr_.codes.data(), kr_.verbatim);
    } else {
      telemetry::Span span_pqd(telemetry::spans::kWavePqd3d);
      const std::size_t planes = dims_[0];
      const WavefrontLayout layout(dims_[1], dims_[2]);
      const std::size_t slice_points = layout.count();
      std::vector<T> prev;
      for (std::size_t z = 0; z < planes; ++z) {
        auto cur = to_wavefront(data_.subspan(z * slice_points, slice_points),
                                layout);
        std::uint16_t* const codes = kr_.codes.data() + z * slice_points;
        if (z == 0) {
          wave_pqd_2d_t<T>(cur, layout, q, codes, kr_.verbatim);
        } else {
          wave_pqd_slice3d<T>(cur, prev, layout, q, codes, kr_.verbatim);
        }
        prev = std::move(cur);
      }
    }

    telemetry::counter_add(telemetry::Counter::QuantUnpredictable,
                           kr_.verbatim.size());
    telemetry::counter_add(telemetry::Counter::QuantPredictable,
                           kr_.codes.size() - kr_.verbatim.size());
  }

  void encode_section(std::size_t s) override {
    if (s == 0) {
      telemetry::Span span(telemetry::spans::kEncodeCodes);
      code_plain_ = plain_codes(kr_.codes, cfg_, pqd_nt_, idx_);
    } else {
      ByteWriter vw;
      FpOps<T>::write_values(vw, kr_.verbatim);
      verbatim_plain_ = vw.take();
    }
  }

  void deflate_section(std::size_t s) override {
    telemetry::Span span(telemetry::spans::kDeflateSerialize);
    const auto& plain = s == 0 ? code_plain_ : verbatim_plain_;
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

  sz::Compressed assemble() override {
    sz::Compressed out;
    out.header.variant = sz::Variant::WaveSz;
    out.header.dims = dims_;
    out.header.mode = cfg_.mode;
    out.header.base = cfg_.base;
    out.header.eb_requested = cfg_.error_bound;
    out.header.eb_absolute = bound_;
    out.header.quant_bits = cfg_.quant_bits;
    out.header.huffman = cfg_.huffman;
    out.header.gzip_level = cfg_.gzip_level;
    out.header.aux = static_cast<std::uint8_t>(mode_);
    out.header.dtype = FpOps<T>::kDtype;
    out.header.point_count = data_.size();
    out.header.unpredictable_count = kr_.verbatim.size();
    out.header.version = cfg_.chunk_index ? 2 : 1;
    out.code_blob_bytes = blobs_[0].size();
    out.unpred_blob_bytes = blobs_[1].size();

    ByteWriter w;
    sz::write_header(w, out.header);
    if (cfg_.chunk_index) sz::write_code_index(w, idx_);
    sz::write_section(w, blobs_[0]);
    sz::write_section(w, blobs_[1]);
    out.bytes = w.take();
    if (!out.bytes.empty()) {
      telemetry::observe(telemetry::Histo::CompressRatioMilli,
                         data_.size_bytes() * 1000 / out.bytes.size());
    }
    return out;
  }

 private:
  std::span<const T> data_;
  Dims dims_;
  sz::Config cfg_;
  LayoutMode mode_;
  int pqd_nt_ = 1;
  double bound_ = 0.0;
  typename FpOps<T>::Kernel kr_;
  sz::CodeChunkIndex idx_;
  std::vector<std::uint8_t> code_plain_;
  std::vector<std::uint8_t> verbatim_plain_;
  std::vector<std::uint8_t> blobs_[2];
};

template <typename T>
sz::Compressed compress_t(std::span<const T> data, const Dims& dims,
                          const sz::Config& cfg, LayoutMode mode) {
  telemetry::Span span_all(telemetry::spans::kWaveCompress,
                           telemetry::Histo::CompressNs, telemetry::kSampleHw);
  return WaveStaged<T>(data, dims, cfg, mode).run();
}

template <typename T>
std::vector<T> decompress_t(std::span<const std::uint8_t> bytes,
                            Dims* dims_out, const sz::DecodeOptions& opts) {
  telemetry::Span span_all(telemetry::spans::kWaveDecompress,
                           telemetry::Histo::DecompressNs,
                           telemetry::kSampleHw);
  ByteReader r(bytes);
  const sz::ContainerHeader h = sz::read_header(r);
  // A stream archive may carry SZx chunks (StreamCompressor with
  // Codec::Szx); delegate so chunk decode works through this entry point.
  if (h.variant == sz::Variant::SzxFast) {
    return sz::detail::szx_decompress_t<T>(bytes, dims_out);
  }
  WAVESZ_REQUIRE(h.variant == sz::Variant::WaveSz,
                 "container is not a waveSZ stream");
  WAVESZ_REQUIRE(h.dtype == FpOps<T>::kDtype,
                 "container value type mismatch (float32 vs float64)");
  WAVESZ_REQUIRE(h.aux <= 1, "unknown waveSZ layout mode");
  const auto mode = static_cast<LayoutMode>(h.aux);
  const sz::CodeChunkIndex idx = sz::read_code_index(r, h);
  const auto code_blob = sz::read_section(r);
  const auto verbatim_blob = sz::read_section(r);

  // decode_threads only has purchase with a chunk index: v1 streams and
  // stripped-index v2 streams take the serial section-by-section path.
  const int nt =
      idx.present() ? sz::resolve_thread_budget(opts.decode_threads) : 1;

  std::vector<std::uint8_t> code_plain;
  std::vector<std::uint8_t> verbatim_plain;
  if (nt > 1) {
    telemetry::Span span(telemetry::spans::kDecodeParallel);
    const std::span<const std::uint8_t> sections[] = {code_blob,
                                                      verbatim_blob};
    auto plains = deflate::gzip_decompress_batch(sections, nt);
    code_plain = std::move(plains[0]);
    verbatim_plain = std::move(plains[1]);
  } else {
    code_plain = deflate::gzip_decompress(code_blob);
    verbatim_plain = deflate::gzip_decompress(verbatim_blob);
  }

  std::vector<std::uint16_t> codes;
  {
    telemetry::Span span(telemetry::spans::kDecodeCodes);
    if (h.huffman) {
      codes = idx.present() ? sz::huffman_decode_indexed(code_plain, idx, nt)
                            : sz::huffman_decode(code_plain);
    } else {
      ByteReader cr(code_plain);
      codes = cr.u16s(h.point_count);
      if (idx.present()) {
        sz::verify_code_index_crcs(codes, idx, codes.size());
      }
    }
  }
  WAVESZ_REQUIRE(codes.size() == h.point_count, "code count mismatch");

  telemetry::Span span_body(telemetry::spans::kWaveReconstruct);
  ByteReader ur(verbatim_plain);
  const auto verbatim = FpOps<T>::read_values(ur, h.unpredictable_count);

  const sz::LinearQuantizer q(h.eb_absolute, h.quant_bits);
  if (dims_out != nullptr) *dims_out = h.dims;

  std::size_t next_verbatim = 0;
  if (mode == LayoutMode::Flatten2D || h.dims.rank <= 2) {
    const Dims flat = h.dims.flatten2d();
    const WavefrontLayout layout(flat[0], flat.rank >= 2 ? flat[1] : 1);
    auto rec_wf = wave_reconstruct_2d_t<T>(codes, verbatim, &next_verbatim,
                                           layout, q, layout.column_count());
    WAVESZ_REQUIRE(next_verbatim == verbatim.size(),
                   "verbatim stream has trailing values");
    return from_wavefront(std::span<const T>(rec_wf), layout);
  }

  const std::size_t planes = h.dims[0];
  const WavefrontLayout layout(h.dims[1], h.dims[2]);
  const std::size_t slice_points = layout.count();
  std::vector<T> out;
  out.reserve(h.dims.count());
  std::vector<T> prev;
  for (std::size_t z = 0; z < planes; ++z) {
    const auto slice_codes =
        std::span<const std::uint16_t>(codes).subspan(z * slice_points,
                                                      slice_points);
    std::vector<T> cur;
    if (z == 0) {
      cur = wave_reconstruct_2d_t<T>(slice_codes, verbatim, &next_verbatim,
                                     layout, q, layout.column_count());
    } else {
      cur.resize(slice_points);
      wave_reconstruct_slice3d<T>(slice_codes, verbatim, &next_verbatim,
                                  prev, cur, layout, q);
    }
    const auto raster = from_wavefront(std::span<const T>(cur), layout);
    out.insert(out.end(), raster.begin(), raster.end());
    prev = std::move(cur);
  }
  WAVESZ_REQUIRE(next_verbatim == verbatim.size(),
                 "verbatim stream has trailing values");
  return out;
}

template <typename T>
sz::RegionResultT<T> decompress_region_t(std::span<const std::uint8_t> bytes,
                                         const sz::Region& region,
                                         const sz::DecodeOptions& opts) {
  telemetry::Span span_all(telemetry::spans::kDecodeRegion);
  ByteReader r(bytes);
  const sz::ContainerHeader h = sz::read_header(r);
  WAVESZ_REQUIRE(h.variant == sz::Variant::WaveSz,
                 "container is not a waveSZ stream");
  WAVESZ_REQUIRE(h.dtype == FpOps<T>::kDtype,
                 "container value type mismatch (float32 vs float64)");
  WAVESZ_REQUIRE(h.aux <= 1, "unknown waveSZ layout mode");
  WAVESZ_REQUIRE(h.dims.rank >= 2, "waveSZ containers are 2D+");
  const auto mode = static_cast<LayoutMode>(h.aux);
  const sz::CodeChunkIndex idx = sz::read_code_index(r, h);
  const std::size_t meta_bytes = r.position();

  sz::Region rg = region;
  const Dims rdims = sz::normalize_region(rg, h.dims);
  sz::RegionResultT<T> res;
  res.field_dims = h.dims;
  res.region_dims = rdims;

  const bool flat2d = mode == LayoutMode::Flatten2D || h.dims.rank <= 2;
  const Dims flat = h.dims.flatten2d();
  // Flatten2D: the last flat column the region touches decides the column
  // prefix; rank-3 raster (y, z) maps to flat column y * d2 + z.
  const std::size_t hi_col =
      h.dims.rank == 3 ? (rg.hi[1] - 1) * h.dims[2] + (rg.hi[2] - 1) + 1
                       : rg.hi[1];
  const WavefrontLayout layout(flat2d ? flat[0] : h.dims[1],
                               flat2d ? flat[1] : h.dims[2]);
  const std::size_t h_end = flat2d ? rg.hi[0] + hi_col - 1 : 0;
  const std::uint64_t prefix_symbols =
      flat2d ? layout.column_start(h_end)
             : static_cast<std::uint64_t>(rg.hi[0]) * layout.count();

  if (!idx.present() || prefix_symbols == h.point_count) {
    // Index-less stream, or the prefix is the whole stream anyway.
    Dims fd;
    const auto field = decompress_t<T>(bytes, &fd, opts);
    const std::size_t s0 = h.dims.extent[1] * h.dims.extent[2];
    const std::size_t s1 = h.dims.extent[2];
    res.data.reserve(rdims.count());
    for (std::size_t x = rg.lo[0]; x < rg.hi[0]; ++x) {
      for (std::size_t y = rg.lo[1]; y < rg.hi[1]; ++y) {
        for (std::size_t z = rg.lo[2]; z < rg.hi[2]; ++z) {
          res.data.push_back(field[x * s0 + y * s1 + z]);
        }
      }
    }
    res.compressed_bytes_read = bytes.size();
    telemetry::counter_add(telemetry::Counter::RegionBytesRead,
                           res.compressed_bytes_read);
    return res;
  }

  const int nt = sz::resolve_thread_budget(opts.decode_threads);
  const std::size_t chunks = sz::chunks_covering(idx, prefix_symbols);
  const sz::ChunkEntry& last = idx.entries[chunks - 1];

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
      codes = sz::huffman_decode_prefix(run.bytes, idx, last.end_element, nt);
    } else {
      ByteReader cr(run.bytes);
      codes = cr.u16s(last.end_element);
      sz::verify_code_index_crcs(codes, idx, codes.size());
    }
  }

  // Verbatim values consumed by the prefix, in stream order; they are
  // stored raw, so the plain prefix is exactly n * sizeof(T) bytes.
  const std::uint64_t n_verbatim = sz::count_unpredictable(
      std::span<const std::uint16_t>(codes).first(prefix_symbols));
  const std::uint64_t verbatim_size = r.u64();
  const auto verbatim_blob = r.bytes(verbatim_size);
  std::vector<T> verbatim;
  std::size_t verbatim_consumed = 0;
  if (n_verbatim > 0) {
    auto run =
        deflate::gzip_decompress_prefix(verbatim_blob,
                                        n_verbatim * sizeof(T));
    ByteReader ur(run.bytes);
    verbatim = FpOps<T>::read_values(ur, n_verbatim);
    verbatim_consumed = run.compressed_consumed;
  }

  telemetry::Span span_body(telemetry::spans::kWaveReconstruct);
  const sz::LinearQuantizer q(h.eb_absolute, h.quant_bits);
  codes.resize(prefix_symbols);
  std::size_t next_verbatim = 0;
  res.data.reserve(rdims.count());
  if (flat2d) {
    const auto rec = wave_reconstruct_2d_t<T>(codes, verbatim,
                                              &next_verbatim, layout, q, h_end);
    for (std::size_t x = rg.lo[0]; x < rg.hi[0]; ++x) {
      for (std::size_t y = rg.lo[1]; y < rg.hi[1]; ++y) {
        for (std::size_t z = rg.lo[2]; z < rg.hi[2]; ++z) {
          const std::size_t col =
              h.dims.rank == 3 ? y * h.dims[2] + z : y;
          res.data.push_back(rec[layout.offset(x, col)]);
        }
      }
    }
  } else {
    // True3D: reconstruct the complete planes [0, hi[0]) slice by slice,
    // exactly as the full decoder would, then gather.
    const std::size_t slice_points = layout.count();
    std::vector<T> prev;
    std::vector<std::vector<T>> rasters;
    rasters.reserve(rg.hi[0]);
    for (std::size_t z = 0; z < rg.hi[0]; ++z) {
      const auto slice_codes = std::span<const std::uint16_t>(codes).subspan(
          z * slice_points, slice_points);
      std::vector<T> cur;
      if (z == 0) {
        cur = wave_reconstruct_2d_t<T>(slice_codes, verbatim, &next_verbatim,
                                       layout, q, layout.column_count());
      } else {
        cur.resize(slice_points);
        wave_reconstruct_slice3d<T>(slice_codes, verbatim, &next_verbatim,
                                    prev, cur, layout, q);
      }
      rasters.push_back(from_wavefront(std::span<const T>(cur), layout));
      prev = std::move(cur);
    }
    const std::size_t s1 = h.dims.extent[2];
    for (std::size_t x = rg.lo[0]; x < rg.hi[0]; ++x) {
      for (std::size_t y = rg.lo[1]; y < rg.hi[1]; ++y) {
        for (std::size_t z = rg.lo[2]; z < rg.hi[2]; ++z) {
          res.data.push_back(rasters[x][y * s1 + z]);
        }
      }
    }
  }
  res.compressed_bytes_read =
      meta_bytes + 8 + code_consumed + 8 + verbatim_consumed;
  telemetry::counter_add(telemetry::Counter::RegionBytesRead,
                         res.compressed_bytes_read);
  return res;
}

}  // namespace

sz::Config default_config() {
  sz::Config cfg;
  cfg.base = sz::EbBase::Two;  // exponent-only quantization (§3.3)
  cfg.huffman = false;         // the FPGA design ships G* only (Table 7)
  return cfg;
}

KernelResult wave_pqd_2d(std::span<float> wavefront,
                         const WavefrontLayout& layout,
                         const sz::LinearQuantizer& q) {
  KernelResult out;
  out.codes.resize(wavefront.size());
  wave_pqd_2d_t<float>(wavefront, layout, q, out.codes.data(), out.verbatim);
  return out;
}

KernelResult64 wave_pqd_2d_64(std::span<double> wavefront,
                              const WavefrontLayout& layout,
                              const sz::LinearQuantizer& q) {
  KernelResult64 out;
  out.codes.resize(wavefront.size());
  wave_pqd_2d_t<double>(wavefront, layout, q, out.codes.data(),
                        out.verbatim);
  return out;
}

std::vector<float> wave_reconstruct_2d(std::span<const std::uint16_t> codes,
                                       std::span<const float> verbatim,
                                       std::size_t* next_verbatim,
                                       const WavefrontLayout& layout,
                                       const sz::LinearQuantizer& q,
                                       int /*threads*/) {
  return wave_reconstruct_2d_t<float>(codes, verbatim, next_verbatim, layout,
                                      q, layout.column_count());
}

sz::Compressed compress(std::span<const float> data, const Dims& dims,
                        const sz::Config& cfg, LayoutMode mode) {
  return compress_t<float>(data, dims, cfg, mode);
}

sz::Compressed compress(std::span<const double> data, const Dims& dims,
                        const sz::Config& cfg, LayoutMode mode) {
  return compress_t<double>(data, dims, cfg, mode);
}

std::unique_ptr<sz::StagedCompressor> make_staged(std::span<const float> data,
                                                  const Dims& dims,
                                                  const sz::Config& cfg,
                                                  LayoutMode mode) {
  if (cfg.codec == sz::Codec::Szx) return sz::make_staged(data, dims, cfg);
  return std::make_unique<WaveStaged<float>>(data, dims, cfg, mode);
}

std::unique_ptr<sz::StagedCompressor> make_staged(std::span<const double> data,
                                                  const Dims& dims,
                                                  const sz::Config& cfg,
                                                  LayoutMode mode) {
  if (cfg.codec == sz::Codec::Szx) return sz::make_staged(data, dims, cfg);
  return std::make_unique<WaveStaged<double>>(data, dims, cfg, mode);
}

std::vector<float> decompress(std::span<const std::uint8_t> bytes,
                              Dims* dims_out, int pqd_threads) {
  return decompress_t<float>(bytes, dims_out,
                             sz::DecodeOptions{1, pqd_threads});
}

std::vector<double> decompress64(std::span<const std::uint8_t> bytes,
                                 Dims* dims_out, int pqd_threads) {
  return decompress_t<double>(bytes, dims_out,
                              sz::DecodeOptions{1, pqd_threads});
}

std::vector<float> decompress(std::span<const std::uint8_t> bytes,
                              const sz::DecodeOptions& opts, Dims* dims_out) {
  return decompress_t<float>(bytes, dims_out, opts);
}

std::vector<double> decompress64(std::span<const std::uint8_t> bytes,
                                 const sz::DecodeOptions& opts,
                                 Dims* dims_out) {
  return decompress_t<double>(bytes, dims_out, opts);
}

sz::RegionResult decompress_region(std::span<const std::uint8_t> bytes,
                                   const sz::Region& region,
                                   const sz::DecodeOptions& opts) {
  return decompress_region_t<float>(bytes, region, opts);
}

sz::RegionResult64 decompress_region64(std::span<const std::uint8_t> bytes,
                                       const sz::Region& region,
                                       const sz::DecodeOptions& opts) {
  return decompress_region_t<double>(bytes, region, opts);
}

}  // namespace wavesz::wave
