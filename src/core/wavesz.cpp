#include "core/wavesz.hpp"

#include <algorithm>
#include <type_traits>

#include "sz/pqd_detail.hpp"
#include "sz/predictor.hpp"
#include "sz/sections.hpp"
#include "sz/szx.hpp"
#include "telemetry/span_names.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace wavesz::wave {
namespace {

/// waveSZ's unpredictable-value codec: border and non-quantizable points
/// go verbatim as raw little-endian T (§3.2), sizeof(T) bytes each.
template <typename T>
struct Verbatim {
  static void write(ByteWriter& w, std::span<const T> v) {
    if constexpr (std::is_same_v<T, float>) {
      w.floats(v);
    } else {
      w.doubles(v);
    }
  }
  static std::vector<T> read(ByteReader& r, std::size_t n) {
    if constexpr (std::is_same_v<T, float>) {
      return r.floats(n);
    } else {
      return r.doubles(n);
    }
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
          const auto r = q.quantize<T>(predict(i, c.w + k, c.nw + k), v[i]);
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
        r[off] = q.reconstruct<T>(pred, code);
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
                 c[off] = q.reconstruct<T>(pred, code);
               });
}

/// The waveSZ compress phases, split for StreamCompressor's chunk pipeline
/// like sz::Sz14Staged: the wavefront PQD here, the verbatim values as the
/// unpredictable section, and the shared back end (sz/sections.hpp) for
/// everything after.
template <typename T>
class WaveStaged final : public sz::SectionStaged {
 public:
  WaveStaged(std::span<const T> data, const Dims& dims, const sz::Config& cfg,
             LayoutMode mode)
      : SectionStaged(cfg, sz::Variant::WaveSz,
                      static_cast<std::uint8_t>(mode), sz::kDtype<T>, dims,
                      data.size()),
        data_(data),
        mode_(mode) {}

  void pqd() override {
    const Dims& dims = head_.dims;
    WAVESZ_REQUIRE(
        dims.rank >= 2,
        "waveSZ targets 2D+ datasets (1D degenerates to all-border)");
    WAVESZ_REQUIRE(mode_ != LayoutMode::True3D || dims.rank == 3,
                   "True3D layout requires a 3D dataset");
    WAVESZ_REQUIRE(!cfg_.chunk_index || cfg_.index_chunk_symbols > 0,
                   "index_chunk_symbols must be positive");
    pqd_nt_ = sz::resolve_thread_budget(cfg_.pqd_threads);
    head_.eb_absolute = sz::field_bound(data_, dims, cfg_);
    const sz::LinearQuantizer q(head_.eb_absolute, cfg_.quant_bits);

    codes_.resize(data_.size());
    if (mode_ == LayoutMode::Flatten2D || dims.rank <= 2) {
      telemetry::Span span_pqd(telemetry::spans::kWavePqd);
      const Dims flat = dims.flatten2d();
      const WavefrontLayout layout(flat[0], flat[1]);
      auto wf = to_wavefront(data_, layout);
      wave_pqd_2d_t<T>(wf, layout, q, codes_.data(), verbatim_);
    } else {
      telemetry::Span span_pqd(telemetry::spans::kWavePqd3d);
      const std::size_t planes = dims[0];
      const WavefrontLayout layout(dims[1], dims[2]);
      const std::size_t slice_points = layout.count();
      std::vector<T> prev;
      for (std::size_t z = 0; z < planes; ++z) {
        auto cur = to_wavefront(data_.subspan(z * slice_points, slice_points),
                                layout);
        std::uint16_t* const codes = codes_.data() + z * slice_points;
        if (z == 0) {
          wave_pqd_2d_t<T>(cur, layout, q, codes, verbatim_);
        } else {
          wave_pqd_slice3d<T>(cur, prev, layout, q, codes, verbatim_);
        }
        prev = std::move(cur);
      }
    }

    head_.unpredictable_count = verbatim_.size();
    telemetry::counter_add(telemetry::Counter::QuantUnpredictable,
                           verbatim_.size());
    telemetry::counter_add(telemetry::Counter::QuantPredictable,
                           codes_.size() - verbatim_.size());
  }

 private:
  std::vector<std::uint8_t> encode_unpredictable() override {
    ByteWriter vw;
    Verbatim<T>::write(vw, verbatim_);
    return vw.take();
  }

  std::span<const T> data_;
  LayoutMode mode_;
  std::vector<T> verbatim_;
};

template <typename T>
sz::Compressed compress_t(std::span<const T> data, const Dims& dims,
                          const sz::Config& cfg, LayoutMode mode) {
  if (cfg.codec == sz::Codec::Szx) return sz::compress(data, dims, cfg);
  telemetry::Span span_all(telemetry::spans::kWaveCompress,
                           telemetry::Histo::CompressNs, telemetry::kSampleHw);
  return WaveStaged<T>(data, dims, cfg, mode).run();
}

/// Throws unless `h` heads a waveSZ container of T values; returns its
/// layout mode.
template <typename T>
LayoutMode expect_wave(const sz::ContainerHeader& h) {
  sz::expect_variant(h, sz::Variant::WaveSz, sz::kDtype<T>,
                     "container is not a waveSZ stream");
  WAVESZ_REQUIRE(h.aux <= 1, "unknown waveSZ layout mode");
  return static_cast<LayoutMode>(h.aux);
}

/// The first `planes` planes of a True3D field, in raster order: plane 0
/// by the 2D walk, each later plane by the 3D slice walk over the plane
/// before it, exactly as the encoder ran them.
template <typename T>
std::vector<T> reconstruct_true3d(std::span<const std::uint16_t> codes,
                                  std::span<const T> verbatim,
                                  std::size_t* next_verbatim,
                                  const WavefrontLayout& layout,
                                  const sz::LinearQuantizer& q,
                                  std::size_t planes) {
  const std::size_t slice_points = layout.count();
  std::vector<T> out;
  out.reserve(planes * slice_points);
  std::vector<T> prev;
  for (std::size_t z = 0; z < planes; ++z) {
    const auto slice_codes = codes.subspan(z * slice_points, slice_points);
    std::vector<T> cur;
    if (z == 0) {
      cur = wave_reconstruct_2d_t<T>(slice_codes, verbatim, next_verbatim,
                                     layout, q, layout.column_count());
    } else {
      cur.resize(slice_points);
      wave_reconstruct_slice3d<T>(slice_codes, verbatim, next_verbatim, prev,
                                  cur, layout, q);
    }
    const auto raster = from_wavefront(std::span<const T>(cur), layout);
    out.insert(out.end(), raster.begin(), raster.end());
    prev = std::move(cur);
  }
  return out;
}

template <typename T>
std::vector<T> decompress_t(std::span<const std::uint8_t> bytes,
                            const sz::DecodeOptions& opts, Dims* dims_out) {
  telemetry::Span span_all(telemetry::spans::kWaveDecompress,
                           telemetry::Histo::DecompressNs,
                           telemetry::kSampleHw);
  ByteReader r(bytes);
  const sz::ContainerHeader h = sz::read_header(r);
  // compress() writes SZx containers under Codec::Szx, and so do the
  // chunks of a stream archive; delegate on the variant.
  if (h.variant == sz::Variant::SzxFast) {
    return sz::detail::szx_decompress_t<T>(bytes, dims_out);
  }
  const LayoutMode mode = expect_wave<T>(h);
  const sz::SectionsDecoded d =
      sz::decode_sections(sz::read_sections(r, h), opts);

  telemetry::Span span_body(telemetry::spans::kWaveReconstruct);
  ByteReader ur(d.unpred);
  const auto verbatim = Verbatim<T>::read(ur, d.unpred_count);
  const sz::LinearQuantizer q(h.eb_absolute, h.quant_bits);
  std::size_t next_verbatim = 0;
  std::vector<T> out;
  if (mode == LayoutMode::Flatten2D || h.dims.rank <= 2) {
    const Dims flat = h.dims.flatten2d();
    const WavefrontLayout layout(flat[0], flat.rank >= 2 ? flat[1] : 1);
    auto rec_wf = wave_reconstruct_2d_t<T>(d.codes, verbatim, &next_verbatim,
                                           layout, q, layout.column_count());
    out = from_wavefront(std::span<const T>(rec_wf), layout);
  } else {
    const WavefrontLayout layout(h.dims[1], h.dims[2]);
    out = reconstruct_true3d<T>(d.codes, verbatim, &next_verbatim, layout, q,
                                h.dims[0]);
  }
  WAVESZ_REQUIRE(next_verbatim == verbatim.size(),
                 "verbatim stream has trailing values");
  if (dims_out != nullptr) *dims_out = h.dims;
  return out;
}

template <typename T>
sz::RegionResultT<T> decompress_region_t(std::span<const std::uint8_t> bytes,
                                         const sz::Region& region,
                                         const sz::DecodeOptions& opts) {
  // compress() writes SZx containers under Codec::Szx; sz:: reads them.
  if (sz::inspect(bytes).variant == sz::Variant::SzxFast) {
    if constexpr (std::is_same_v<T, float>) {
      return sz::decompress_region(bytes, region, opts);
    } else {
      return sz::decompress_region64(bytes, region, opts);
    }
  }
  telemetry::Span span_all(telemetry::spans::kDecodeRegion);
  ByteReader r(bytes);
  const sz::ContainerHeader h = sz::read_header(r);
  const LayoutMode mode = expect_wave<T>(h);
  WAVESZ_REQUIRE(h.dims.rank >= 2, "waveSZ containers are 2D+");
  const sz::Sections s = sz::read_sections(r, h);

  sz::Region rg = region;
  sz::RegionResultT<T> res;
  res.field_dims = h.dims;
  res.region_dims = sz::normalize_region(rg, h.dims);

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

  if (!s.idx.present() || prefix_symbols == h.point_count) {
    // Index-less stream, or the prefix is the whole stream anyway.
    res.data = sz::gather_region<T>(decompress_t<T>(bytes, opts, nullptr),
                                    h.dims, rg, res.region_dims);
    res.compressed_bytes_read = bytes.size();
  } else {
    const sz::SectionsDecoded d = sz::decode_section_prefix(
        s, prefix_symbols, opts, 8 * sizeof(T));
    ByteReader ur(d.unpred);
    const auto verbatim = Verbatim<T>::read(ur, d.unpred_count);

    telemetry::Span span_body(telemetry::spans::kWaveReconstruct);
    const sz::LinearQuantizer q(h.eb_absolute, h.quant_bits);
    std::size_t next_verbatim = 0;
    if (flat2d) {
      const auto rec = wave_reconstruct_2d_t<T>(d.codes, verbatim,
                                                &next_verbatim, layout, q,
                                                h_end);
      res.data.reserve(res.region_dims.count());
      for (std::size_t x = rg.lo[0]; x < rg.hi[0]; ++x) {
        for (std::size_t y = rg.lo[1]; y < rg.hi[1]; ++y) {
          for (std::size_t z = rg.lo[2]; z < rg.hi[2]; ++z) {
            const std::size_t col = h.dims.rank == 3 ? y * h.dims[2] + z : y;
            res.data.push_back(rec[layout.offset(x, col)]);
          }
        }
      }
    } else {
      // True3D: the complete planes [0, hi[0]) slice by slice, exactly as
      // the full decoder rebuilds them.
      Dims pdims = h.dims;
      pdims.extent[0] = rg.hi[0];
      res.data = sz::gather_region<T>(
          reconstruct_true3d<T>(d.codes, verbatim, &next_verbatim, layout, q,
                                rg.hi[0]),
          pdims, rg, res.region_dims);
    }
    res.compressed_bytes_read = d.bytes_read;
  }
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
                              const sz::DecodeOptions& opts, Dims* dims_out) {
  return decompress_t<float>(bytes, opts, dims_out);
}

std::vector<double> decompress64(std::span<const std::uint8_t> bytes,
                                 const sz::DecodeOptions& opts,
                                 Dims* dims_out) {
  return decompress_t<double>(bytes, opts, dims_out);
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
