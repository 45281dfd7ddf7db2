#include "deflate/parallel.hpp"

#include <algorithm>

#include "telemetry/span_names.hpp"
#include "telemetry/telemetry.hpp"
#include "util/bytes.hpp"
#include "util/checksum.hpp"
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
                         bool final_chunk) {
  const std::size_t dict = std::min(kWindowSize, offset);
  const auto window = whole.subspan(offset - dict, dict + length);
  const auto tokens = tokenize(window, level, dict);
  BitWriterLSB bw;
  detail::deflate_blocks(bw, window.subspan(dict), tokens, final_chunk);
  if (!final_chunk) detail::sync_flush(bw);
  ChunkBits out;
  out.nbits = bw.bit_count();
  out.bytes = bw.take();
  return out;
}

std::vector<std::uint8_t> gzip_wrap(std::span<const std::uint8_t> input,
                                    Level level,
                                    std::vector<std::uint8_t> body) {
  ByteWriter w;
  w.u8(0x1f);
  w.u8(0x8b);
  w.u8(8);  // CM = deflate
  w.u8(0);  // FLG
  w.u32(0); // MTIME
  w.u8(level == Level::Best ? 2 : 4);  // XFL: 2 = best, 4 = fastest
  w.u8(255);                           // OS unknown
  w.bytes(body);
  w.u32(Crc32::of(input));
  w.u32(static_cast<std::uint32_t>(input.size()));
  return w.take();
}

}  // namespace

std::vector<std::uint8_t> compress_parallel(
    std::span<const std::uint8_t> input, Level level,
    const ParallelOptions& opts) {
  WAVESZ_REQUIRE(opts.chunk_bytes > 0, "chunk size must be positive");
  // The layout follows the requested budget, not the thread count it
  // resolves to, so the bytes are the same on every host.
  if (opts.threads == 1 && !opts.force_chunking) {
    // Serial reference path: bit-identical to compress().
    telemetry::Span span(telemetry::spans::kDeflateChunk);
    telemetry::counter_add(telemetry::Counter::DeflateChunks, 1);
    auto out = compress(input, level);
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
                               c + 1 == chunks);
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

std::vector<std::uint8_t> gzip_compress_parallel(
    std::span<const std::uint8_t> input, Level level,
    const ParallelOptions& opts) {
  return gzip_wrap(input, level, compress_parallel(input, level, opts));
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
