// Central registry of telemetry metrics: counters and histograms.
//
// This is the metric-side twin of span_names.hpp. Every counter and
// histogram the pipeline records is declared here, keyed by enum (so a
// typo does not compile) and carrying its machine name, unit, and help
// string in one place. The exporters — stats JSON, terminal summary, and
// the Prometheus text exposition — read their metric names and metadata
// exclusively from these tables; tools/wavesz_lint.py rule `metric-names`
// rejects metric name literals anywhere else in src/.
#pragma once

#include <cstddef>
#include <cstdint>

namespace wavesz::telemetry {

/// Prefix for every exposed Prometheus series ("wavesz_" + metric name).
/// Lives here so the exposition namespace is part of the registry, not an
/// exporter implementation detail.
inline constexpr const char* kMetricPrefix = "wavesz_";

/// Name, unit and help text for one metric. `name` is the stable
/// machine-readable identifier (snake_case, no prefix); `unit` is
/// free-form ("bytes", "ns", "points", ...); `help` becomes the
/// Prometheus # HELP line.
struct MetricInfo {
  const char* name;
  const char* unit;
  const char* help;
};

/// Fixed counter registry: adds are single relaxed atomic increments, so
/// the set is an enum rather than a string-keyed map.
enum class Counter : std::uint32_t {
  CodeBytesIn = 0,     ///< plain (pre-DEFLATE) bytes of the code section
  CodeBytesOut,        ///< gzip bytes of the code section
  UnpredBytesIn,       ///< plain bytes of the unpredictable/verbatim section
  UnpredBytesOut,      ///< gzip bytes of the unpredictable/verbatim section
  QuantPredictable,    ///< points whose quantization hit (code != 0)
  QuantUnpredictable,  ///< points falling back to the unpredictable stream
  HuffmanTableBuildNs, ///< wall time spent building Huffman code tables
  HuffmanSymbols,      ///< symbols the customized Huffman coder encoded
  HuffmanPayloadBits,  ///< payload bits those symbols were packed into
  DeflateChunks,       ///< DEFLATE chunks encoded (1 per input when serial)
  DeflateRunChunks,    ///< of those, H* chunks the probe put on runs
  PqdDiagonalBatches,  ///< anti-diagonal hyperplane batches swept
  StreamChunks,        ///< chunks emitted/decoded by the streaming API
  InflateBlocks,       ///< DEFLATE Huffman-coded blocks inflated
  CrcBytes,            ///< bytes checksummed while verifying gzip members
  IndexChunksDecoded,  ///< v2 chunk-index chunks decoded (parallel or serial)
  RegionBytesRead,     ///< compressed bytes consumed by decode_region()
  SpansDropped,        ///< spans lost to full ring buffers (set at drain)
  PipelineSlabs,       ///< slabs retired by the staged pipeline executor
  PipelineStallNs,     ///< wall ns pipeline stages spent stalled (bubbles)
  kCount
};

inline constexpr MetricInfo kCounterInfo[] = {
    {"code_bytes_in", "bytes",
     "plain (pre-DEFLATE) bytes of the code section"},
    {"code_bytes_out", "bytes", "gzip bytes of the code section"},
    {"unpred_bytes_in", "bytes",
     "plain bytes of the unpredictable/verbatim section"},
    {"unpred_bytes_out", "bytes",
     "gzip bytes of the unpredictable/verbatim section"},
    {"quant_predictable", "points",
     "points whose quantization hit (code != 0)"},
    {"quant_unpredictable", "points",
     "points falling back to the unpredictable stream"},
    {"huffman_table_ns", "ns",
     "wall time spent building Huffman code tables"},
    {"huffman_symbols", "symbols",
     "symbols the customized Huffman coder encoded"},
    {"huffman_payload_bits", "bits",
     "payload bits the customized Huffman coder wrote (per "
     "huffman_symbols: achieved bits/symbol)"},
    {"deflate_chunks", "chunks", "DEFLATE chunks encoded"},
    {"deflate_run_chunks", "chunks",
     "H* DEFLATE chunks the probe put on the run parse (per "
     "deflate_chunks: the share left to the hash chains is the rest)"},
    {"pqd_diagonal_batches", "batches",
     "anti-diagonal hyperplane batches swept"},
    {"stream_chunks", "chunks",
     "chunks emitted/decoded by the streaming API"},
    {"inflate_blocks", "blocks",
     "DEFLATE Huffman-coded blocks inflated"},
    {"crc_bytes", "bytes",
     "bytes checksummed while verifying gzip members"},
    {"index_chunks_decoded", "chunks",
     "v2 chunk-index chunks decoded (parallel or serial)"},
    {"region_bytes_read", "bytes",
     "compressed bytes consumed by decode_region()"},
    {"spans_dropped", "spans",
     "telemetry spans lost to full per-thread ring buffers"},
    {"pipeline_slabs", "slabs",
     "slabs retired by the staged pipeline executor"},
    {"pipeline_stall_ns", "ns",
     "wall time pipeline stages spent stalled waiting for work or slots"},
};
static_assert(sizeof(kCounterInfo) / sizeof(kCounterInfo[0]) ==
                  static_cast<std::size_t>(Counter::kCount),
              "kCounterInfo out of sync with Counter");

inline constexpr const MetricInfo& counter_info(Counter c) {
  return kCounterInfo[static_cast<std::size_t>(c)];
}

/// Distribution metrics: each is a lock-free log-linear histogram sharded
/// per thread (telemetry/histogram.hpp) and merged when a Session stops.
/// Values are unsigned integers in the metric's unit; non-integer
/// quantities are recorded pre-scaled (see CompressRatioMilli).
enum class Histo : std::uint32_t {
  CompressNs = 0,      ///< wall ns per top-level compress call (any codec)
  DecompressNs,        ///< wall ns per top-level decompress call
  DeflateChunkBytes,   ///< plain input bytes per DEFLATE chunk task
  StreamChunkBytes,    ///< raw field bytes per streaming-API chunk
  CompressRatioMilli,  ///< per-call compression ratio x 1000
  StreamChunkNs,       ///< wall ns per streaming-API chunk (dispatch→emit)
  kCount
};

inline constexpr MetricInfo kHistoInfo[] = {
    {"compress_ns", "ns", "wall time per top-level compress call"},
    {"decompress_ns", "ns", "wall time per top-level decompress call"},
    {"deflate_chunk_bytes", "bytes",
     "plain input bytes per DEFLATE chunk task"},
    {"stream_chunk_bytes", "bytes",
     "raw field bytes per streaming-API chunk"},
    {"compress_ratio_milli", "ratio_x1000",
     "per-call compression ratio, scaled by 1000"},
    {"stream_chunk_ns", "ns",
     "wall time per streaming-API chunk from dispatch to emitted bytes"},
};
static_assert(sizeof(kHistoInfo) / sizeof(kHistoInfo[0]) ==
                  static_cast<std::size_t>(Histo::kCount),
              "kHistoInfo out of sync with Histo");

inline constexpr const MetricInfo& histo_info(Histo h) {
  return kHistoInfo[static_cast<std::size_t>(h)];
}

}  // namespace wavesz::telemetry
