// Bounded-memory streaming compression — the shape a waveSZ deployment on
// an I/O node actually takes (paper §3.3 / Fig. 7): the host feeds plane
// chunks, each chunk is compressed independently (its own wavefront, its
// own gzip member) and flushed, so memory stays O(chunk) regardless of the
// snapshot size and any chunk can later be decoded on its own.
//
//   StreamCompressor sc(Dims::d3(512, 512, 512), wave::default_config());
//   while (more data) sc.feed(plane_span);     // multiples of one plane
//   auto archive = sc.finish();                // self-describing container
//   auto field = stream_decompress(archive);   // or decode chunk by chunk
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/wavesz.hpp"
#include "sz/config.hpp"
#include "util/arena.hpp"
#include "util/dims.hpp"

namespace wavesz::wave {

class StreamCompressor {
 public:
  /// `chunk_planes` planes (slowest axis) per emitted chunk; 0 picks a
  /// default targeting ~32 MB of input per chunk.
  ///
  /// With cfg.pipeline_depth >= 1 the compressor runs the staged chunk
  /// pipeline: feed() stages input into an arena-pooled slab and hands full
  /// slabs to a three-stage executor (PQD / entropy / DEFLATE+frame), so
  /// chunk k+1's prediction overlaps chunk k's Huffman encode and chunk
  /// k-1's gzip+framing, with at most `pipeline_depth` chunks in flight.
  /// The archive bytes are identical to the barrier path (depth 0).
  StreamCompressor(const Dims& dims, const sz::Config& cfg,
                   std::size_t chunk_planes = 0);
  ~StreamCompressor();

  /// Append data; must be a whole number of planes. Compressed chunks are
  /// emitted internally as soon as they fill. A stream is either float32 or
  /// float64: the first feed() fixes the type, mixing throws.
  void feed(std::span<const float> planes);
  void feed(std::span<const double> planes);

  /// Total planes fed so far.
  std::size_t planes_fed() const { return planes_fed_; }

  /// Bytes already committed to finished chunks. In pipelined mode a chunk
  /// counts once its frame stage completes.
  std::size_t compressed_bytes() const;

  /// Flush the tail (a short final chunk is fine), drain the pipeline, and
  /// return the archive. The stream must have received exactly dims[0]
  /// planes.
  std::vector<std::uint8_t> finish();

  /// Allocation statistics of the slab arena — the zero-steady-state-
  /// allocation test hook: after the pipeline warms up (depth + 1 staging
  /// buffers in rotation), `fresh` stops growing while `reuses` climbs.
  util::ArenaStats arena_stats() const { return arena_.stats(); }

 private:
  struct Pipe;

  template <typename T>
  void feed_t(std::span<const T> planes);
  void emit_chunk();
  void check_dtype(bool is_f64);

  Dims dims_;
  sz::Config cfg_;
  std::size_t plane_points_;
  std::size_t chunk_planes_;
  std::size_t planes_fed_ = 0;
  int dtype_ = -1;  // -1 undecided, 0 float32, 1 float64
  // Staging slab for the chunk being accumulated, acquired from the arena
  // and recycled through it once the chunk is compressed.
  util::SlabArena arena_;
  std::vector<float> stage32_;
  std::vector<double> stage64_;
  std::size_t stage_fill_ = 0;
  // Finished chunk payloads; the frame stage worker appends concurrently
  // with caller-side compressed_bytes() in pipelined mode.
  mutable std::mutex chunks_mu_;
  std::vector<std::vector<std::uint8_t>> chunks_;
  bool finished_ = false;
  std::unique_ptr<Pipe> pipe_;  ///< null when cfg.pipeline_depth <= 0
};

/// Decode a whole streamed archive back into the full field; optionally
/// reports dims. The archive's chunks are independent wave containers, so
/// `opts.decode_threads > 1` assigns whole chunks to a worker pool (each
/// decoded serially into its own slot of the output — no inner nesting).
/// The output is bit-identical to the serial decode at every setting.
std::vector<float> stream_decompress(std::span<const std::uint8_t> bytes,
                                     const sz::DecodeOptions& opts = {},
                                     Dims* dims_out = nullptr);

/// float64 counterpart (archives written from double feeds).
std::vector<double> stream_decompress64(std::span<const std::uint8_t> bytes,
                                        const sz::DecodeOptions& opts = {},
                                        Dims* dims_out = nullptr);

/// Number of independently decodable chunks in a streamed archive.
std::size_t stream_chunk_count(std::span<const std::uint8_t> bytes);

/// Decode only chunk `index` (planes [first_plane, first_plane+planes)).
struct StreamChunk {
  std::size_t first_plane = 0;
  std::size_t plane_count = 0;
  std::vector<float> data;
};
/// `pqd_threads` is ignored: the wavefront reconstruct is serial at every
/// budget.
StreamChunk stream_decompress_chunk(std::span<const std::uint8_t> bytes,
                                    std::size_t index, int pqd_threads = 1);

}  // namespace wavesz::wave
