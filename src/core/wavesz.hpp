// waveSZ — the paper's primary contribution (§3).
//
// Pipeline: wavefront preprocessing -> single-layer Lorenzo prediction ->
// linear-scaling quantization (base-2 tightened bound by default) -> gzip,
// with the customized Huffman stage (H*) available in front of gzip to
// reproduce paper Table 7's H*G* rows. Unlike SZ-1.4, border points (first
// row / first column of the 2D view) and non-quantizable points are passed
// to the lossless back end verbatim instead of truncation-coded (§3.2).
//
// Layout modes:
//   Flatten2D — 3D datasets are processed as d0 x (d1*d2), exactly as the
//               paper's artifact runs Hurricane (100x250000) and NYX
//               (512x262144);
//   True3D    — extension: per-slice 2D wavefront with the 3D Lorenzo
//               stencil reaching into the previous reconstructed slice.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/wavefront.hpp"
#include "sz/compressor.hpp"
#include "sz/config.hpp"
#include "sz/quantizer.hpp"
#include "util/dims.hpp"

namespace wavesz::wave {

enum class LayoutMode : std::uint8_t { Flatten2D = 0, True3D = 1 };

/// Default waveSZ configuration: base-2 tightened bound, gzip only (the
/// FPGA design), 16-bit bins — paper §4.1.
sz::Config default_config();

/// Output of the fully pipelined PQD kernel over one wavefront-layout grid.
template <typename T>
struct KernelResultT {
  std::vector<std::uint16_t> codes;  ///< wavefront visit order, 0 = verbatim
  std::vector<T> verbatim;           ///< border + non-quantizable originals
};
using KernelResult = KernelResultT<float>;
using KernelResult64 = KernelResultT<double>;

/// Run prediction-quantization-decompression over `wavefront` (mutated in
/// place to hold decompressor-visible values, as the HLS kernel writes back
/// d_re — Listing 1). 2D Lorenzo only; borders x==0 / y==0 go verbatim.
/// Serial at every budget: each column reads its taps from three contiguous
/// runs of the two columns before it, the walk the reconstruct uses, and
/// that walk beat the tiled OpenMP schedule it replaced at 2 and 4 threads
/// on every shape measured (EXPERIMENTS.md, "Column-walk wave encoder").
/// At simd::Level::Avx2 the walk takes each run in 4-lane blocks
/// (simd::wave_pqd_run), bit-identical to the scalar body.
KernelResult wave_pqd_2d(std::span<float> wavefront,
                         const WavefrontLayout& layout,
                         const sz::LinearQuantizer& q);

/// Inverse kernel: rebuild the wavefront-layout reconstruction. It is serial
/// at every budget and `threads` is ignored. Each column reads its taps
/// from three contiguous runs of the two columns before it, and that walk
/// beat the tiled OpenMP schedule it replaced at 2 and 4 threads on every
/// shape measured (EXPERIMENTS.md, "Column-contiguous wavefront
/// reconstruct"); at simd::Level::Avx2 it takes each run in 4-lane blocks
/// (simd::wave_reconstruct_run), bit-identical to the scalar body. The
/// verbatim values are taken in order as the walk reaches their code-0
/// points, from `*next_verbatim` on. Throws wavesz::Error when a border
/// point carries a nonzero code or the verbatim values run out.
std::vector<float> wave_reconstruct_2d(std::span<const std::uint16_t> codes,
                                       std::span<const float> verbatim,
                                       std::size_t* next_verbatim,
                                       const WavefrontLayout& layout,
                                       const sz::LinearQuantizer& q,
                                       int threads = 1);

KernelResult64 wave_pqd_2d_64(std::span<double> wavefront,
                              const WavefrontLayout& layout,
                              const sz::LinearQuantizer& q);

/// Full waveSZ compression (float32); an SZx container when cfg.codec is
/// Codec::Szx, as sz::compress writes it.
sz::Compressed compress(std::span<const float> data, const Dims& dims,
                        const sz::Config& cfg,
                        LayoutMode mode = LayoutMode::Flatten2D);

/// Full waveSZ compression (float64).
sz::Compressed compress(std::span<const double> data, const Dims& dims,
                        const sz::Config& cfg,
                        LayoutMode mode = LayoutMode::Flatten2D);

/// Build the staged job equivalent to wave::compress(data, dims, cfg, mode)
/// (delegating to the SZx codec when cfg.codec says so), for the slab
/// pipeline (core/pipeline.hpp). The data span must outlive the job.
std::unique_ptr<sz::StagedCompressor> make_staged(
    std::span<const float> data, const Dims& dims, const sz::Config& cfg,
    LayoutMode mode = LayoutMode::Flatten2D);
std::unique_ptr<sz::StagedCompressor> make_staged(
    std::span<const double> data, const Dims& dims, const sz::Config& cfg,
    LayoutMode mode = LayoutMode::Flatten2D);

/// Inverse for float32 containers (waveSZ, or SZx by the container's
/// variant); optionally reports dims. Throws on a float64 container.
/// `opts.decode_threads > 1` runs the v2 chunk-index parallel path
/// (concurrent section inflates + chunk-parallel Huffman decode with
/// per-chunk CRC verification), falling back to the serial decode for v1
/// streams or a stripped index. The wavefront reconstruct is serial at
/// every budget, so `opts.pqd_threads` has no effect. The output is
/// bit-identical to the serial path at every setting.
std::vector<float> decompress(std::span<const std::uint8_t> bytes,
                              const sz::DecodeOptions& opts = {},
                              Dims* dims_out = nullptr);

/// Inverse for float64 containers.
std::vector<double> decompress64(std::span<const std::uint8_t> bytes,
                                 const sz::DecodeOptions& opts = {},
                                 Dims* dims_out = nullptr);

/// Decode only the stream prefix needed for a hyperslab of the field.
/// Flatten2D streams are ordered by wavefront column h = x + y, and the
/// Lorenzo taps reach only coordinate-wise backward, so the columns
/// [0, (hi_row-1) + (hi_col-1)] are a closed prefix containing the region;
/// True3D streams need the complete planes [0, hi[0]). With a v2 chunk
/// index only the chunks covering that prefix are inflated and decoded;
/// v1 / stripped-index streams fall back to a full decode. Region values
/// are identical to the same slice of a full decompress().
sz::RegionResult decompress_region(std::span<const std::uint8_t> bytes,
                                   const sz::Region& region,
                                   const sz::DecodeOptions& opts = {});
sz::RegionResult64 decompress_region64(std::span<const std::uint8_t> bytes,
                                       const sz::Region& region,
                                       const sz::DecodeOptions& opts = {});

}  // namespace wavesz::wave
