// Shared compression configuration for the SZ family (SZ-1.4, GhostSZ,
// waveSZ). Mirrors the paper's experimental setup (§4.1): value-range-based
// relative error bound of 1e-3, 16-bit linear-scaling quantization (65,536
// bins), customized Huffman (H*) optionally followed by gzip (G*).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "deflate/lz77.hpp"
#include "deflate/parallel.hpp"
#include "util/fork_join.hpp"

namespace wavesz::sz {

enum class EbMode {
  Absolute,           ///< bound applied as-is
  ValueRangeRelative, ///< bound * (max - min) of the input field
};

enum class PredictorKind : std::uint8_t {
  Lorenzo1Layer = 0,  ///< the paper's default (Fig. 2)
  Lorenzo2Layer = 1,  ///< wider stencil; helps on very smooth 1D/2D data
};

enum class EbBase {
  Ten,  ///< arbitrary decimal bound, full FP division in quantization
  Two,  ///< bound tightened to the nearest smaller power of two (waveSZ §3.3)
};

enum class Codec : std::uint8_t {
  /// The SZ-class pipeline: Lorenzo PQD, Huffman, DEFLATE (the default).
  Entropy = 0,
  /// SZx-inspired ultra-fast mode: fixed-size blocks, constant-block
  /// detection, per-block bit-plane truncation of error-bound quantized
  /// values, no entropy stage. ~3-5x the compression throughput at a
  /// modest ratio cost — the degraded-mode profile for latency-critical
  /// traffic. Wire format in DESIGN.md ("SZx fast section").
  Szx = 1,
};

struct Config {
  double error_bound = 1e-3;
  EbMode mode = EbMode::ValueRangeRelative;
  EbBase base = EbBase::Ten;
  int quant_bits = 16;        ///< 65,536 bins; GhostSZ effectively uses 14
  PredictorKind predictor = PredictorKind::Lorenzo1Layer;  ///< SZ-1.4 only
  bool huffman = true;        ///< customized Huffman (H*) before gzip
  deflate::Level gzip_level = deflate::Level::Fast;  ///< gzip best_speed

  /// Thread budget for the entropy back-end (chunked DEFLATE over the code
  /// and unpredictable sections): 1 = serial (the default), 0 = all
  /// threads, n = at most n (util::resolve_thread_budget). The requested
  /// value, never the host's thread count, picks the section layout: v2
  /// containers are chunked at every budget; index-less and GhostSZ
  /// containers write one DEFLATE stream per section at budget 1 and the
  /// chunked stream at any other budget. H* sections at Level::Fast are
  /// chunked at every budget in both layouts, since each chunk picks its
  /// parse from a probe of its own bytes. Not recorded in the container —
  /// the emitted stream is plain gzip either way.
  int codec_threads = 1;
  /// Worker granularity of the chunked DEFLATE engine.
  std::size_t deflate_chunk_bytes = deflate::kDefaultChunkBytes;

  /// Thread budget for the prediction-quantization hot path (SZ-1.4's
  /// Lorenzo PQD on compress and reconstruction on decompress; the waveSZ
  /// PQD and reconstruct are serial at every budget) plus its serial
  /// stragglers (the Huffman encode histogram and the value-range scan,
  /// for waveSZ too). Same semantics as codec_threads: 1 = serial
  /// raster reference (the default), 0 = all threads, n = at most n.
  /// Budgets > 1 switch the SZ-1.4 kernels to the tiled anti-diagonal
  /// wavefront schedule (paper §3.2 on CPU); the output container is
  /// bit-identical either way — only the visit order moves — so the knob
  /// is not recorded in the header.
  int pqd_threads = 1;

  /// Emit the container v2 per-chunk offset table (end bit offset into the
  /// code payload, end element offset, running CRC-32 per fixed-size chunk
  /// of quantization codes). Costs 28 bytes per chunk and unlocks the
  /// thread-parallel and region decoders; turn off to emit the v1 layout
  /// byte-identically to historical streams.
  bool chunk_index = true;
  /// Output elements per indexed chunk. 32 Ki symbols keeps the table under
  /// a couple hundred bytes for the paper's fields while still giving a
  /// 4-8-way decode split on a 512^2 slice.
  std::uint32_t index_chunk_symbols = 1u << 15;

  /// A decode thread budget for callers that keep one Config for both
  /// directions. No decoder reads it: decoders take DecodeOptions, whose
  /// decode_threads it would be copied into.
  int decode_threads = 1;

  /// Chunks in flight in wave::StreamCompressor's staged pipeline
  /// (core/pipeline.hpp): 0 = barrier execution (the default; each chunk
  /// compresses on the feeding thread), n >= 1 = at most n chunks between
  /// the PQD, entropy and DEFLATE/frame stages — the software form of the
  /// paper's pII=1 datapath at chunk granularity. Single-shot compress()
  /// ignores it. Archive bytes are identical at every depth and thread
  /// budget, so the knob is not recorded in the container.
  int pipeline_depth = 0;

  /// Codec selection: the entropy pipeline above, or the SZx-style
  /// ultra-fast block codec (which ignores the huffman/gzip/chunk-index
  /// knobs — it has no entropy stage and no chunk index).
  Codec codec = Codec::Entropy;
  /// Elements per SZx block. 256 keeps the per-block header cost under 1%
  /// while constant-block detection still fires on real fields.
  std::uint32_t szx_block_elems = 256;

  /// The ultra-fast profile: SZx block codec, everything else default.
  static Config ultrafast() {
    Config cfg;
    cfg.codec = Codec::Szx;
    cfg.huffman = false;
    cfg.chunk_index = false;
    return cfg;
  }

  deflate::ParallelOptions deflate_options() const {
    return {deflate_chunk_bytes, codec_threads};
  }

  /// Section-encode options for v2 chunk-indexed containers: chunking is
  /// forced even at one thread so every ~chunk of plain section bytes ends
  /// on a sync-flush marker, letting the region decoder's prefix inflate
  /// stop within one chunk of the bytes it needs. The cadence tracks the
  /// index granularity (two plain bytes per raw code symbol), floored so
  /// tiny test chunks don't degrade the ratio.
  deflate::ParallelOptions indexed_deflate_options() const {
    deflate::ParallelOptions o = deflate_options();
    o.force_chunking = true;
    const std::size_t cadence =
        std::size_t{2} * std::size_t{index_chunk_symbols};
    o.chunk_bytes = std::min(o.chunk_bytes,
                             std::max<std::size_t>(cadence, 4096));
    return o;
  }
};

/// Decode-side knobs, decoupled from Config so pure consumers don't have to
/// fabricate compression settings to pick a thread budget.
struct DecodeOptions {
  /// Thread budget for the chunk-parallel Huffman decode from the v2 index
  /// plus concurrent section inflates. Same semantics as
  /// Config::codec_threads: 1 = serial (the default), 0 = all threads, n =
  /// at most n. Ignored — with a silent serial fallback — for
  /// v1 streams and v2 streams whose index was stripped. Decode output is
  /// bit-identical at every setting.
  int decode_threads = 1;
  /// SZ-1.4 Lorenzo reconstruction budget, as Config::pqd_threads.
  int pqd_threads = 1;
};

/// Resolve the absolute bound for a field with the given value range,
/// applying power-of-two tightening when base == Two.
double resolve_bound(const Config& cfg, double value_range);

/// Resolve a thread budget (codec_threads / pqd_threads semantics) to a
/// concrete thread count; the one rule in util/fork_join.hpp.
using util::resolve_thread_budget;

}  // namespace wavesz::sz
