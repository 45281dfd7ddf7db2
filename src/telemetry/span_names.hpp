// Central registry of telemetry span names.
//
// Span names are recorded by pointer (telemetry::Span keeps no copy), feed
// the Chrome-trace and stats exporters verbatim, and are matched by name in
// tests and dashboards — a typo in one call site silently forks a stage into
// two trace rows. Every `telemetry::Span` construction site in src/ must
// therefore name its stage through one of these constants; stray string
// literals are rejected by tools/wavesz_lint.py rule `span-names`. Counters
// are already enum-keyed (telemetry::Counter); this file is the equivalent
// single source of truth for spans.
#pragma once

namespace wavesz::telemetry::spans {

// SZ-1.4 pipeline (src/sz/compressor.cpp).
inline constexpr const char* kSzCompress = "sz::compress";
inline constexpr const char* kSzDecompress = "sz::decompress";
inline constexpr const char* kValueRange = "value_range";
inline constexpr const char* kPqdWavefront = "pqd.wavefront";
inline constexpr const char* kPqdRaster = "pqd.raster";
inline constexpr const char* kEncodeCodes = "encode.codes";
inline constexpr const char* kEncodeUnpred = "encode.unpred";
inline constexpr const char* kDecodeCodes = "decode.codes";
inline constexpr const char* kDecodeUnpred = "decode.unpred";
inline constexpr const char* kDeflateSerialize = "deflate+serialize";
inline constexpr const char* kReconstructWavefront = "reconstruct.wavefront";
inline constexpr const char* kReconstructRaster = "reconstruct.raster";

// Customized Huffman coder (src/sz/huffman_codec.cpp).
inline constexpr const char* kHuffmanTable = "huffman.table";
inline constexpr const char* kHuffmanPack = "huffman.pack";
inline constexpr const char* kHuffmanDecode = "huffman.decode";
inline constexpr const char* kHuffmanDecodeIndexed = "huffman.decode_indexed";

// Container v2 chunk-index decode paths (src/sz/compressor.cpp,
// src/core/wavesz.cpp, src/core/stream.cpp).
inline constexpr const char* kDecodeParallel = "decode.parallel";
inline constexpr const char* kDecodeRegion = "decode.region";
inline constexpr const char* kInflatePrefix = "inflate.prefix";
inline constexpr const char* kStreamDecodeParallel = "stream.decode_parallel";

// DEFLATE back end (src/deflate/).
inline constexpr const char* kDeflateChunk = "deflate.chunk";
inline constexpr const char* kDeflateStitch = "deflate.stitch";
inline constexpr const char* kInflateBlock = "inflate.block";
inline constexpr const char* kCrc32 = "crc32";

// waveSZ pipeline + streaming API (src/core/).
inline constexpr const char* kWaveCompress = "wave::compress";
inline constexpr const char* kWaveDecompress = "wave::decompress";
inline constexpr const char* kWavePqd = "wave.pqd";
inline constexpr const char* kWavePqd3d = "wave.pqd3d";
inline constexpr const char* kWaveReconstruct = "wave.reconstruct";
inline constexpr const char* kStreamChunk = "stream.chunk";
inline constexpr const char* kStreamDecodeChunk = "stream.decode_chunk";

// Staged chunk pipeline (src/core/pipeline.cpp and src/core/stream.cpp).
// The three slab spans name the stages of the head/body/tail schedule;
// kPipelineStall wraps only the waits where a stage ran dry (ring empty) or
// acquire() found every slot in flight — the bubbles the overlap is meant
// to hide.
inline constexpr const char* kPipelineSlabPqd = "pipeline.slab.pqd";
inline constexpr const char* kPipelineSlabEntropy = "pipeline.slab.entropy";
inline constexpr const char* kPipelineSlabFrame = "pipeline.slab.frame";
inline constexpr const char* kPipelineStall = "pipeline.stall";

}  // namespace wavesz::telemetry::spans
