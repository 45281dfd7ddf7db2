// Parallel chunked DEFLATE engine (pigz-style).
//
// The input is split into fixed-size chunks; each chunk is tokenized with
// its own hash-chain matcher on a worker thread (util::parallel_for) and
// emitted as one or more complete DEFLATE blocks, priming the matcher with
// the previous kWindowSize bytes so cross-chunk matches survive and the
// ratio stays within noise of the serial stream. The per-chunk bit strings
// are then stitched into a single valid DEFLATE stream / gzip member: every
// non-final chunk ends with a Z_SYNC_FLUSH marker (an empty stored block,
// byte-aligning the stream), and a bit-level concatenator joins the pieces.
// The output inflates with the ordinary decompress()/gzip_decompress() —
// no side channel, no framing change.
//
// threads == 1 without force_chunking is the serial path and emits the
// exact byte stream of compress()/gzip_compress(). Any other budget takes
// the chunked path, whatever thread count it resolves to on the host.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "deflate/deflate.hpp"

namespace wavesz::deflate {

/// Default worker granularity: big enough that the per-chunk sync marker
/// (~5 bytes) and the 32 KiB re-primed window are noise, small enough that
/// a handful of chunks keeps 4-16 threads busy on MB-sized sections.
inline constexpr std::size_t kDefaultChunkBytes = 256 * 1024;

struct ParallelOptions {
  std::size_t chunk_bytes = kDefaultChunkBytes;
  /// 0 = all threads, 1 = serial reference path, n = at most n. The
  /// requested value picks the layout: 1 writes the stream of compress(),
  /// any other value the chunked stream, so the bytes do not depend on how
  /// many threads the host has.
  int threads = 0;
  /// Take the chunked path even at threads == 1, so every chunk_bytes of
  /// input ends on a sync-flush marker (a byte-aligned block boundary).
  /// The markers cost ~5 bytes each and let a prefix inflate stop within
  /// one chunk of the bytes it needs — the v2 chunk-indexed containers
  /// encode their sections this way. Off: threads == 1 emits the serial
  /// reference stream, bit-identical to compress().
  bool force_chunking = false;
};

/// Raw DEFLATE stream (no framing), chunk-parallel.
std::vector<std::uint8_t> compress_parallel(
    std::span<const std::uint8_t> input, Level level,
    const ParallelOptions& opts = {});

/// gzip member (RFC 1952), chunk-parallel body.
std::vector<std::uint8_t> gzip_compress_parallel(
    std::span<const std::uint8_t> input, Level level,
    const ParallelOptions& opts = {});

/// gzip_compress_parallel() over 16-bit codes (a G* code section), written
/// as their little-endian bytes. At Level::Fast the matcher steps in whole
/// codes (Stride::Codes): smaller and cheaper than the byte parse on code
/// streams. Level::Best parses the bytes. An odd chunk_bytes rounds up to
/// even, so every chunk starts on a code. Either way the output is a plain
/// gzip member of the byte image, which every inflater reads.
std::vector<std::uint8_t> gzip_compress_codes(
    std::span<const std::uint16_t> codes, Level level,
    const ParallelOptions& opts = {});

/// gzip member of an H* section at Level::Fast, chunked at every budget
/// (force_chunking is implied), so the bytes are the same at every budget.
/// Each chunk takes lz77.hpp's parse_probed(): the run parse, unless its
/// first kProbeBytes show the hash chains paying. The choice depends only on
/// the chunk and the kWindowSize bytes before it.
std::vector<std::uint8_t> gzip_compress_probed(
    std::span<const std::uint8_t> input, const ParallelOptions& opts = {});

/// Inflate several independent gzip members concurrently, one worker per
/// member (a single DEFLATE stream inflates serially — cross-block history
/// forbids splitting it without an index). `threads` follows the usual
/// budget semantics; every output is byte-identical to gzip_decompress().
/// This is how the parallel container decoders overlap their code-section
/// and unpredictable-section inflates.
std::vector<std::vector<std::uint8_t>> gzip_decompress_batch(
    std::span<const std::span<const std::uint8_t>> inputs, int threads);

}  // namespace wavesz::deflate
