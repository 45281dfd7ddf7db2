#include "deflate/parallel.hpp"

#include <algorithm>
#include <functional>
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

/// Emits the blocks of `window[dict_len..]`, the last with BFINAL when
/// `mark_final` is set (detail::deflate_window()'s contract).
using WindowCoder = std::function<void(BitWriterLSB& bw,
                                       std::span<const std::uint8_t> window,
                                       std::size_t dict_len, bool mark_final)>;

/// Chunk [offset, offset + length) of `whole`, coded with the previous
/// kWindowSize bytes as its dictionary so cross-chunk matches survive.
ChunkBits compress_chunk(std::span<const std::uint8_t> whole,
                         std::size_t offset, std::size_t length,
                         const WindowCoder& code, bool final_chunk) {
  const std::size_t dict = std::min(kWindowSize, offset);
  BitWriterLSB bw;
  code(bw, whole.subspan(offset - dict, dict + length), dict, final_chunk);
  if (!final_chunk) detail::sync_flush(bw);
  ChunkBits out;
  out.nbits = bw.bit_count();
  out.bytes = bw.take();
  return out;
}

std::vector<std::uint8_t> compress_chunks(std::span<const std::uint8_t> input,
                                          const ParallelOptions& opts,
                                          const WindowCoder& code) {
  WAVESZ_REQUIRE(opts.chunk_bytes > 0, "chunk size must be positive");
  // The layout follows the requested budget, not the thread count it
  // resolves to, so the bytes are the same on every host.
  if (opts.threads == 1 && !opts.force_chunking) {
    // Serial reference path: one stream, as compress() writes it.
    telemetry::Span span(telemetry::spans::kDeflateChunk);
    telemetry::counter_add(telemetry::Counter::DeflateChunks, 1);
    BitWriterLSB bw;
    code(bw, input, 0, /*mark_final=*/true);
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
                               std::min(opts.chunk_bytes, n - offset), code,
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

/// The hash-chain parse at `level` in `stride` positions.
WindowCoder chain_coder(Level level, Stride stride) {
  return [level, stride](BitWriterLSB& bw,
                         std::span<const std::uint8_t> window,
                         std::size_t dict_len, bool mark_final) {
    detail::deflate_window(bw, window, dict_len, level, stride, mark_final);
  };
}

}  // namespace

std::vector<std::uint8_t> compress_parallel(
    std::span<const std::uint8_t> input, Level level,
    const ParallelOptions& opts) {
  return compress_chunks(input, opts, chain_coder(level, Stride::Bytes));
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
      bytes, level,
      compress_chunks(bytes, even, chain_coder(level, Stride::Codes)));
}

std::vector<std::uint8_t> gzip_compress_probed(
    std::span<const std::uint8_t> input, const ParallelOptions& opts) {
  ParallelOptions chunked = opts;
  chunked.force_chunking = true;
  const WindowCoder probed = [](BitWriterLSB& bw,
                                std::span<const std::uint8_t> window,
                                std::size_t dict_len, bool mark_final) {
    detail::deflate_parsed(
        bw, window.subspan(dict_len),
        [&](TokenBlock& block,
            const std::function<void(TokenBlock&)>& on_full) {
          if (parse_probed(window, dict_len, block, on_full,
                           detail::block_bits)) {
            telemetry::counter_add(telemetry::Counter::DeflateRunChunks, 1);
          }
        },
        mark_final);
  };
  return detail::gzip_member(input, Level::Fast,
                             compress_chunks(input, chunked, probed));
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
