#include "deflate/parallel.hpp"

#include <algorithm>
#include <limits>

#include "telemetry/span_names.hpp"
#include "telemetry/telemetry.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/fork_join.hpp"

namespace wavesz::deflate {
namespace {

/// A chunk's emitted bit string. Non-final chunks end with a sync-flush
/// marker, so nbits is a multiple of 8 for them and the stitcher's append
/// stays on its memcpy fast path; the machinery handles any phase.
struct ChunkBits {
  std::vector<std::uint8_t> bytes;
  std::size_t nbits = 0;
};

/// Chunk [offset, offset + length) of `whole`, its matcher primed with the
/// previous kWindowSize bytes so cross-chunk matches survive.
ChunkBits compress_chunk(std::span<const std::uint8_t> whole,
                         std::size_t offset, std::size_t length, Level level,
                         Stride stride, bool final_chunk) {
  const std::size_t dict = std::min(kWindowSize, offset);
  BitWriterLSB bw;
  detail::deflate_window(bw, whole.subspan(offset - dict, dict + length),
                         dict, level, stride, final_chunk);
  if (!final_chunk) detail::sync_flush(bw);
  ChunkBits out;
  out.nbits = bw.bit_count();
  out.bytes = bw.take();
  return out;
}

std::vector<std::uint8_t> compress_chunks(std::span<const std::uint8_t> input,
                                          Level level, Stride stride,
                                          const ParallelOptions& opts) {
  WAVESZ_REQUIRE(opts.chunk_bytes > 0, "chunk size must be positive");
  // The layout follows the requested budget, not the thread count it
  // resolves to, so the bytes are the same on every host.
  if (opts.threads == 1 && !opts.force_chunking) {
    // Serial reference path: one stream, as compress() writes it.
    telemetry::Span span(telemetry::spans::kDeflateChunk);
    telemetry::counter_add(telemetry::Counter::DeflateChunks, 1);
    BitWriterLSB bw;
    detail::deflate_window(bw, input, 0, level, stride,
                           /*mark_final=*/true);
    auto out = bw.take();
    telemetry::observe(telemetry::Histo::DeflateChunkBytes, out.size());
    return out;
  }

  const std::size_t n = input.size();
  const std::size_t chunks =
      std::max<std::size_t>(1, (n + opts.chunk_bytes - 1) / opts.chunk_bytes);
  std::vector<ChunkBits> pieces(chunks);
  util::parallel_for(chunks, opts.threads, [&](std::size_t c) {
    telemetry::Span span(telemetry::spans::kDeflateChunk);
    const std::size_t offset = c * opts.chunk_bytes;
    pieces[c] = compress_chunk(input, offset,
                               std::min(opts.chunk_bytes, n - offset), level,
                               stride, c + 1 == chunks);
    telemetry::observe(telemetry::Histo::DeflateChunkBytes,
                       pieces[c].bytes.size());
  });
  telemetry::counter_add(telemetry::Counter::DeflateChunks, chunks);

  // Stitch: bit-level concatenation of the chunk streams. Chunk k+1 was
  // emitted assuming it starts byte-aligned, which the sync-flush tail of
  // chunk k guarantees.
  telemetry::Span span_stitch(telemetry::spans::kDeflateStitch);
  BitWriterLSB bw;
  for (const ChunkBits& p : pieces) bw.append(p.bytes, p.nbits);
  return bw.take();
}

}  // namespace

std::vector<std::uint8_t> compress_parallel(
    std::span<const std::uint8_t> input, Level level,
    const ParallelOptions& opts) {
  return compress_chunks(input, level, Stride::Bytes, opts);
}

std::vector<std::uint8_t> gzip_compress_parallel(
    std::span<const std::uint8_t> input, Level level,
    const ParallelOptions& opts) {
  return detail::gzip_member(input, level,
                             compress_parallel(input, level, opts));
}

std::vector<std::uint8_t> gzip_compress_codes(
    std::span<const std::uint16_t> codes, Level level,
    const ParallelOptions& opts) {
  // Every chunk and its dictionary start on a code: an odd chunk size
  // rounds up to even.
  ParallelOptions even = opts;
  if (even.chunk_bytes % 2 != 0 &&
      even.chunk_bytes < std::numeric_limits<std::size_t>::max()) {
    ++even.chunk_bytes;
  }
  const auto bytes = bytes_of(codes);
  return detail::gzip_member(
      bytes, level, compress_chunks(bytes, level, Stride::Codes, even));
}

std::vector<std::vector<std::uint8_t>> gzip_decompress_batch(
    std::span<const std::span<const std::uint8_t>> inputs, int threads) {
  std::vector<std::vector<std::uint8_t>> out(inputs.size());
  util::parallel_for(inputs.size(), threads, [&](std::size_t i) {
    out[i] = gzip_decompress(inputs[i]);
  });
  return out;
}

}  // namespace wavesz::deflate
