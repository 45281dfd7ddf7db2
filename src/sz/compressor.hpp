// SZ-1.4 reference compressor (paper §2.1): Lorenzo prediction over
// previously *decompressed* neighbours, linear-scaling quantization,
// customized Huffman (H*), gzip, and truncation-coded unpredictable values.
//
// Border points are predicted with the reduced-dimension Lorenzo stencil
// (implemented uniformly as zero-padding of the reconstructed field), which
// is why SZ-1.4's ratio slightly exceeds waveSZ+H*G* in paper Table 7 —
// waveSZ ships its border points verbatim instead.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sz/config.hpp"
#include "sz/container.hpp"
#include "sz/quantizer.hpp"
#include "util/dims.hpp"

namespace wavesz::sz {

/// Raw prediction-quantization-decompression pass, exposed for the benches
/// (Fig. 1 prediction errors, ablations) and for cross-implementation tests.
template <typename T>
struct PqdT {
  std::vector<std::uint16_t> codes;  ///< one per point, 0 = unpredictable
  std::vector<T> reconstructed;      ///< decompressor-visible values
  std::vector<T> unpredictable;      ///< originals of code-0 points, in order
};
using Pqd = PqdT<float>;
using Pqd64 = PqdT<double>;

/// Lorenzo PQD with zero-padded borders (rank 1/2/3). Codes, history and
/// the unpredictable stream are those of the raster-order loop; the 1-layer
/// stencil computes them in the skewed row walk of sz/pqd_detail.hpp.
Pqd lorenzo_pqd(std::span<const float> data, const Dims& dims,
                const LinearQuantizer& q,
                PredictorKind kind = PredictorKind::Lorenzo1Layer);

/// Rebuild the reconstructed field from codes + unpredictable values; the
/// unpredictable values must already be decompressor-visible (truncated).
std::vector<float> lorenzo_reconstruct(
    std::span<const std::uint16_t> codes, std::span<const float> unpredictable,
    const Dims& dims, const LinearQuantizer& q,
    PredictorKind kind = PredictorKind::Lorenzo1Layer);

Pqd64 lorenzo_pqd64(std::span<const double> data, const Dims& dims,
                    const LinearQuantizer& q,
                    PredictorKind kind = PredictorKind::Lorenzo1Layer);

std::vector<double> lorenzo_reconstruct64(
    std::span<const std::uint16_t> codes,
    std::span<const double> unpredictable, const Dims& dims,
    const LinearQuantizer& q,
    PredictorKind kind = PredictorKind::Lorenzo1Layer);

/// The absolute error bound of a field under `cfg`: the one bound step of
/// SZ-1.4, waveSZ, GhostSZ and SZx. Checks that `data` fills `dims` (every
/// extent is positive, so an empty field fails here too), scans the value
/// range at the cfg.pqd_threads budget when the bound is range-relative,
/// and resolves the bound (resolve_bound).
template <typename T>
double field_bound(std::span<const T> data, const Dims& dims,
                   const Config& cfg);

/// Value range (max - min) of a field, computed with up to `threads` OpenMP
/// threads (budget semantics of Config::pqd_threads). Deterministic and
/// identical to the serial scan for every budget: per-chunk min/max combine
/// order-independently, and NaN handling matches the serial loop (NaNs are
/// skipped unless data[0] itself is NaN, which poisons the result).
double value_range(std::span<const float> data, int threads = 1);
double value_range(std::span<const double> data, int threads = 1);

struct Compressed {
  std::vector<std::uint8_t> bytes;
  ContainerHeader header;
  std::size_t code_blob_bytes = 0;
  std::size_t unpred_blob_bytes = 0;
};

/// One compress call split into phases: prediction-quantization,
/// per-section entropy encode, per-section DEFLATE, final container
/// assembly. run() executes every phase back-to-back on the calling thread;
/// wave::StreamCompressor's chunk pipeline (core/pipeline.hpp) runs pqd(),
/// entropy() and frame() of different chunks on its stage threads, so the
/// archive bytes are identical by construction. Sections (the code stream
/// and the unpredictable/verbatim stream) are mutually independent after
/// pqd(); phases of one section must run in encode -> deflate order, and
/// assemble() requires every deflate to have finished.
class StagedCompressor {
 public:
  virtual ~StagedCompressor() = default;

  /// Independent output sections (2 for entropy containers, 1 for SZx).
  virtual std::size_t sections() const = 0;
  /// Phase 1: value range, bound resolution, Lorenzo/wavefront PQD.
  virtual void pqd() = 0;
  /// Phase 2 for section `s`: Huffman/raw code pack or verbatim serialize.
  virtual void encode_section(std::size_t s) = 0;
  /// Phase 3 for section `s`: gzip the plain section bytes.
  virtual void deflate_section(std::size_t s) = 0;
  /// Final phase: header + index + section framing into the container.
  virtual Compressed assemble() = 0;

  /// All entropy encodes — the middle-stage body when a whole chunk is the
  /// pipeline slab (StreamCompressor).
  void entropy() {
    for (std::size_t s = 0; s < sections(); ++s) encode_section(s);
  }
  /// All section deflates plus assembly — the last-stage body.
  Compressed frame() {
    for (std::size_t s = 0; s < sections(); ++s) deflate_section(s);
    return assemble();
  }
  /// Every phase in order on the calling thread.
  Compressed run() {
    pqd();
    entropy();
    return frame();
  }
};

/// Build the staged job equivalent to compress(data, dims, cfg) (including
/// Codec::Szx dispatch). The data span must outlive the job.
std::unique_ptr<StagedCompressor> make_staged(std::span<const float> data,
                                              const Dims& dims,
                                              const Config& cfg);
std::unique_ptr<StagedCompressor> make_staged(std::span<const double> data,
                                              const Dims& dims,
                                              const Config& cfg);

/// Full SZ-1.4 compression of a float32 field.
Compressed compress(std::span<const float> data, const Dims& dims,
                    const Config& cfg);

/// Full SZ-1.4 compression of a float64 field (SZ's `-d` mode).
Compressed compress(std::span<const double> data, const Dims& dims,
                    const Config& cfg);

/// Inverse of compress() for float32 containers (SZ-1.4 or SZx by the
/// container's variant); optionally reports dims. Throws wavesz::Error when
/// applied to a float64 container. `opts.decode_threads > 1` runs the v2
/// chunk-index parallel path (concurrent section inflates + chunk-parallel
/// Huffman decode with per-chunk CRC verification), falling back to the
/// serial full decode for v1 streams or a stripped index;
/// `opts.pqd_threads` budgets the Lorenzo reconstruction. The output is
/// bit-identical to the serial path at every setting.
std::vector<float> decompress(std::span<const std::uint8_t> bytes,
                              const DecodeOptions& opts = {},
                              Dims* dims_out = nullptr);

/// Inverse of compress() for float64 containers.
std::vector<double> decompress64(std::span<const std::uint8_t> bytes,
                                 const DecodeOptions& opts = {},
                                 Dims* dims_out = nullptr);

/// Decode only the part of the stream needed for a hyperslab of the field.
/// The Lorenzo stencil only ever reaches backward, so the dependency
/// closure of a hyperslab is the box [0, hi[0]) x [0, hi[1]) x [0, hi[2]).
/// Codes are stored in raster order, so with a v2 chunk index the decoder
/// inflates and decodes the chunks covering the box's complete outer slabs
/// [0, hi[0]) (partial gzip inflate included), reconstructs the box alone
/// and gathers the requested region out of it. The region values are
/// identical to the same slice of a full decompress(). v1 / stripped-index
/// streams, and a box that is the whole field, take a full decode
/// (compressed_bytes_read then reports the whole container).
RegionResult decompress_region(std::span<const std::uint8_t> bytes,
                               const Region& region,
                               const DecodeOptions& opts = {});
RegionResult64 decompress_region64(std::span<const std::uint8_t> bytes,
                                   const Region& region,
                                   const DecodeOptions& opts = {});

}  // namespace wavesz::sz
