#include "core/stream.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "core/pipeline.hpp"
#include "sz/compressor.hpp"
#include "telemetry/span_names.hpp"
#include "telemetry/telemetry.hpp"
#include "util/bytes.hpp"
#include "util/decode_guard.hpp"
#include "util/error.hpp"
#include "util/fork_join.hpp"
#include "util/timer.hpp"

namespace wavesz::wave {
namespace {

constexpr std::uint32_t kStreamMagic = 0x53535a57u;  // "WZSS"

struct ArchiveIndex {
  Dims dims = Dims::d1(1);
  std::size_t chunk_planes = 0;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;  // offset, size
  std::size_t payload_base = 0;
};

ArchiveIndex parse_index(std::span<const std::uint8_t> bytes,
                         ByteReader& r) {
  WAVESZ_REQUIRE(r.u32() == kStreamMagic, "not a waveSZ stream archive");
  const int rank = r.u8();
  WAVESZ_REQUIRE(rank >= 1 && rank <= 3, "invalid rank");
  ArchiveIndex idx;
  std::array<std::size_t, 3> ext{};
  for (auto& e : ext) {
    e = static_cast<std::size_t>(r.u64());
    WAVESZ_REQUIRE(e > 0, "zero extent in archive");
  }
  idx.dims = Dims{ext, rank};
  // Forged extents must not drive chunk-count arithmetic or downstream
  // per-chunk decodes; the per-chunk wave containers re-validate their own
  // geometry against the same guard.
  (void)guarded_count(idx.dims, sizeof(float));
  idx.chunk_planes = static_cast<std::size_t>(r.u64());
  WAVESZ_REQUIRE(idx.chunk_planes > 0, "invalid chunk size");
  const std::uint64_t count = r.u64();
  const std::uint64_t expected =
      (idx.dims[0] - 1) / idx.chunk_planes + 1;
  WAVESZ_REQUIRE(count == expected, "chunk count disagrees with geometry");
  std::size_t offset = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t size = r.u64();
    // Checked accumulation: the claimed sizes must stay inside the archive
    // at every step, so `offset` can never wrap and the final subspan
    // arithmetic below stays in bounds.
    WAVESZ_REQUIRE(size <= bytes.size() && offset <= bytes.size() - size,
                   "archive truncated");
    idx.chunks.emplace_back(offset, size);
    offset += size;
  }
  idx.payload_base = r.position();
  WAVESZ_REQUIRE(offset <= bytes.size() - idx.payload_base,
                 "archive truncated");
  return idx;
}

Dims chunk_dims(const Dims& dims, std::size_t planes) {
  if (dims.rank == 1) return Dims::d1(planes);
  if (dims.rank == 2) return Dims::d2(planes, dims[1]);
  return Dims::d3(planes, dims[1], dims[2]);
}

/// The archive decode: every chunk is an independent wave container with a
/// known plane placement (index i covers planes starting at
/// i * chunk_planes), so whole chunks fan out across the decode budget and
/// each is decoded serially into its own slice of the preallocated output.
/// Every chunk's plane count is checked against the archive geometry.
template <typename T>
std::vector<T> stream_decompress_t(std::span<const std::uint8_t> bytes,
                                   const sz::DecodeOptions& opts,
                                   Dims* dims_out) {
  telemetry::Span span_all(telemetry::spans::kStreamDecodeParallel);
  ByteReader r(bytes);
  const auto idx = parse_index(bytes, r);
  const std::size_t nchunks = idx.chunks.size();
  const std::size_t total = idx.dims.count();
  const std::size_t plane_points = total / idx.dims[0];
  std::vector<T> out(total);
  // Workers decode their chunk serially — parallelism comes from chunk
  // assignment, so parallel regions never nest.
  const sz::DecodeOptions chunk_opts{1, opts.pqd_threads};
  auto decode_one = [&](std::size_t i) {
    telemetry::Span span(telemetry::spans::kStreamDecodeChunk);
    const auto [offset, size] = idx.chunks[i];
    const std::size_t first = i * idx.chunk_planes;
    WAVESZ_REQUIRE(first < idx.dims[0], "chunk exceeds archive geometry");
    Dims cdims;
    std::vector<T> data;
    if constexpr (std::is_same_v<T, double>) {
      data = wave::decompress64(
          bytes.subspan(idx.payload_base + offset, size), chunk_opts, &cdims);
    } else {
      data = wave::decompress(
          bytes.subspan(idx.payload_base + offset, size), chunk_opts, &cdims);
    }
    const std::size_t expect =
        std::min(idx.chunk_planes, idx.dims[0] - first);
    WAVESZ_REQUIRE(cdims[0] == expect,
                   "chunk geometry disagrees with archive index");
    WAVESZ_REQUIRE(data.size() == expect * plane_points,
                   "chunk payload disagrees with archive geometry");
    std::copy(data.begin(), data.end(),
              out.begin() +
                  static_cast<std::ptrdiff_t>(first * plane_points));
  };
  util::parallel_for(nchunks, opts.decode_threads, decode_one);
  telemetry::counter_add(telemetry::Counter::StreamChunks, nchunks);
  if (dims_out != nullptr) *dims_out = idx.dims;
  return out;
}

}  // namespace

/// The chunk-granular pipeline: per-slot staging buffers + staged jobs and
/// the three-stage executor. Member order matters — `ex`'s destructor joins
/// the stage workers, so it must run before `slots` is torn down; keeping
/// `slots` first makes that automatic.
struct StreamCompressor::Pipe {
  struct Slot {
    std::vector<float> f32;
    std::vector<double> f64;
    std::size_t points = 0;
    std::unique_ptr<sz::StagedCompressor> job;
    Stopwatch started;  ///< reset at dispatch; read at frame completion
  };
  std::vector<Slot> slots;
  pipeline::Executor ex;

  Pipe(std::vector<pipeline::Stage> stages, std::size_t depth)
      : slots(depth), ex(std::move(stages), depth) {}

  Slot& slot(std::size_t seq) { return slots[seq % slots.size()]; }
};

StreamCompressor::StreamCompressor(const Dims& dims, const sz::Config& cfg,
                                   std::size_t chunk_planes)
    : dims_(dims), cfg_(cfg),
      plane_points_(dims.rank >= 2
                        ? dims[1] * (dims.rank >= 3 ? dims[2] : 1)
                        : 1),
      chunk_planes_(chunk_planes) {
  WAVESZ_REQUIRE(dims.rank >= 2, "streaming needs a 2D+ dataset");
  if (chunk_planes_ == 0) {
    const std::size_t target_points = 8u << 20;  // ~32 MB of float input
    chunk_planes_ = std::max<std::size_t>(2, target_points / plane_points_);
  }
  // A single-plane chunk would make every point a border in the 2D view.
  WAVESZ_REQUIRE(chunk_planes_ >= 2, "chunk must hold at least two planes");
  if (cfg_.pipeline_depth >= 1) {
    // Head/body/tail schedule over whole chunks: each chunk is an
    // independent container (its own wavefront, Huffman table and gzip
    // members), so chunk k+1's PQD may run while chunk k entropy-encodes
    // and chunk k-1 deflates + frames. The frame stage is the single
    // consumer of ring order, so chunks_ keeps submission order and the
    // archive is byte-identical to the barrier path.
    pipe_ = std::make_unique<Pipe>(
        std::vector<pipeline::Stage>{
            {telemetry::spans::kPipelineSlabPqd,
             [this](std::size_t seq) { pipe_->slot(seq).job->pqd(); }},
            {telemetry::spans::kPipelineSlabEntropy,
             [this](std::size_t seq) { pipe_->slot(seq).job->entropy(); }},
            {telemetry::spans::kPipelineSlabFrame,
             [this](std::size_t seq) {
               Pipe::Slot& slot = pipe_->slot(seq);
               sz::Compressed compressed = slot.job->frame();
               telemetry::counter_add(telemetry::Counter::StreamChunks, 1);
               telemetry::observe(telemetry::Histo::StreamChunkBytes,
                                  compressed.bytes.size());
               telemetry::observe(
                   telemetry::Histo::StreamChunkNs,
                   static_cast<std::uint64_t>(slot.started.seconds() * 1e9));
               {
                 std::lock_guard<std::mutex> lock(chunks_mu_);
                 chunks_.push_back(std::move(compressed.bytes));
               }
               slot.job.reset();
               if (!slot.f32.empty()) arena_.f32.release(std::move(slot.f32));
               if (!slot.f64.empty()) arena_.f64.release(std::move(slot.f64));
               slot.f32 = {};
               slot.f64 = {};
             }}},
        static_cast<std::size_t>(cfg_.pipeline_depth));
  }
}

StreamCompressor::~StreamCompressor() = default;

void StreamCompressor::check_dtype(bool is_f64) {
  const int want = is_f64 ? 1 : 0;
  if (dtype_ == -1) {
    dtype_ = want;
  } else {
    WAVESZ_REQUIRE(dtype_ == want,
                   "cannot mix float32 and float64 feeds in one stream");
  }
}

template <typename T>
void StreamCompressor::feed_t(std::span<const T> planes) {
  constexpr bool kF64 = std::is_same_v<T, double>;
  WAVESZ_REQUIRE(!finished_, "stream already finished");
  check_dtype(kF64);
  WAVESZ_REQUIRE(planes.size() % plane_points_ == 0,
                 "feed() needs whole planes");
  const std::size_t n = planes.size() / plane_points_;
  WAVESZ_REQUIRE(planes_fed_ + n <= dims_[0], "more planes than dims allow");
  planes_fed_ += n;
  // Copy into the arena-backed staging slab and dispatch every time it
  // fills; the slab bounds buffering at one chunk regardless of how much a
  // single feed() delivers (the old pending_ vector grew with the feed and
  // paid an erase-from-front memmove per chunk).
  const std::size_t cap = chunk_planes_ * plane_points_;
  auto& stage = [this]() -> std::vector<T>& {
    if constexpr (kF64) return stage64_;
    else return stage32_;
  }();
  auto& pool = [this]() -> util::VecPool<T>& {
    if constexpr (kF64) return arena_.f64;
    else return arena_.f32;
  }();
  std::size_t consumed = 0;
  while (consumed < planes.size()) {
    if (stage.empty()) {
      stage = pool.acquire(cap);
      stage_fill_ = 0;
    }
    const std::size_t take =
        std::min(cap - stage_fill_, planes.size() - consumed);
    std::copy_n(planes.data() + consumed, take, stage.data() + stage_fill_);
    stage_fill_ += take;
    consumed += take;
    if (stage_fill_ == cap) emit_chunk();
  }
}

void StreamCompressor::feed(std::span<const float> planes) {
  feed_t<float>(planes);
}

void StreamCompressor::feed(std::span<const double> planes) {
  feed_t<double>(planes);
}

void StreamCompressor::emit_chunk() {
  const bool f64 = dtype_ == 1;
  const std::size_t points = stage_fill_;
  WAVESZ_ASSERT(points >= 1 && points % plane_points_ == 0,
                "emit_chunk with no pending data");
  const Dims cdims = chunk_dims(dims_, points / plane_points_);

  // Under Codec::Szx, wave::compress and wave::make_staged write each chunk
  // as an SZx container, and the archive decoders delegate on its variant.
  if (!pipe_) {
    telemetry::Span span(telemetry::spans::kStreamChunk,
                         telemetry::Histo::StreamChunkNs);
    telemetry::counter_add(telemetry::Counter::StreamChunks, 1);
    sz::Compressed compressed;
    if (f64) {
      const std::span<const double> chunk(stage64_.data(), points);
      compressed = wave::compress(chunk, cdims, cfg_);
      arena_.f64.release(std::move(stage64_));
      stage64_ = {};
    } else {
      const std::span<const float> chunk(stage32_.data(), points);
      compressed = wave::compress(chunk, cdims, cfg_);
      arena_.f32.release(std::move(stage32_));
      stage32_ = {};
    }
    stage_fill_ = 0;
    telemetry::observe(telemetry::Histo::StreamChunkBytes,
                       compressed.bytes.size());
    std::lock_guard<std::mutex> lock(chunks_mu_);
    chunks_.push_back(std::move(compressed.bytes));
    return;
  }

  // Pipelined dispatch: acquire() blocks until the target slot's previous
  // occupant has fully retired (that wait is the backpressure — and the
  // kPipelineStall span), so moving the staging slab in is race-free.
  const std::size_t seq = pipe_->ex.acquire();
  Pipe::Slot& slot = pipe_->slot(seq);
  slot.started.reset();
  slot.points = points;
  if (f64) {
    slot.f64 = std::move(stage64_);
    stage64_ = {};
    const std::span<const double> chunk(slot.f64.data(), points);
    slot.job = wave::make_staged(chunk, cdims, cfg_);
  } else {
    slot.f32 = std::move(stage32_);
    stage32_ = {};
    const std::span<const float> chunk(slot.f32.data(), points);
    slot.job = wave::make_staged(chunk, cdims, cfg_);
  }
  stage_fill_ = 0;
  pipe_->ex.submit();
}

std::size_t StreamCompressor::compressed_bytes() const {
  std::lock_guard<std::mutex> lock(chunks_mu_);
  std::size_t total = 0;
  for (const auto& c : chunks_) total += c.size();
  return total;
}

std::vector<std::uint8_t> StreamCompressor::finish() {
  WAVESZ_REQUIRE(!finished_, "stream already finished");
  WAVESZ_REQUIRE(planes_fed_ == dims_[0],
                 "stream received " + std::to_string(planes_fed_) +
                     " of " + std::to_string(dims_[0]) + " planes");
  // The tail holds fewer than chunk_planes planes; emit it as one short
  // chunk (a single-plane tail degenerates to all-verbatim, which is
  // correct, merely dense).
  if (stage_fill_ > 0) emit_chunk();
  WAVESZ_ASSERT(stage_fill_ == 0, "tail not fully flushed");
  if (pipe_) pipe_->ex.drain();
  finished_ = true;

  std::lock_guard<std::mutex> lock(chunks_mu_);
  ByteWriter w;
  w.u32(kStreamMagic);
  w.u8(static_cast<std::uint8_t>(dims_.rank));
  for (int i = 0; i < 3; ++i) {
    w.u64(dims_.extent[static_cast<std::size_t>(i)]);
  }
  w.u64(chunk_planes_);
  w.u64(chunks_.size());
  for (const auto& c : chunks_) w.u64(c.size());
  for (const auto& c : chunks_) w.bytes(c);
  return w.take();
}

std::size_t stream_chunk_count(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  return parse_index(bytes, r).chunks.size();
}

StreamChunk stream_decompress_chunk(std::span<const std::uint8_t> bytes,
                                    std::size_t index, int /*pqd_threads*/) {
  telemetry::Span span(telemetry::spans::kStreamDecodeChunk);
  telemetry::counter_add(telemetry::Counter::StreamChunks, 1);
  ByteReader r(bytes);
  const auto idx = parse_index(bytes, r);
  WAVESZ_REQUIRE(index < idx.chunks.size(), "chunk index out of range");
  const auto [offset, size] = idx.chunks[index];
  StreamChunk out;
  out.first_plane = index * idx.chunk_planes;
  Dims cdims;
  out.data = wave::decompress(bytes.subspan(idx.payload_base + offset, size),
                              {}, &cdims);
  out.plane_count = cdims[0];
  WAVESZ_REQUIRE(out.first_plane + out.plane_count <= idx.dims[0],
                 "chunk exceeds archive geometry");
  return out;
}

std::vector<float> stream_decompress(std::span<const std::uint8_t> bytes,
                                     const sz::DecodeOptions& opts,
                                     Dims* dims_out) {
  return stream_decompress_t<float>(bytes, opts, dims_out);
}

std::vector<double> stream_decompress64(std::span<const std::uint8_t> bytes,
                                        const sz::DecodeOptions& opts,
                                        Dims* dims_out) {
  return stream_decompress_t<double>(bytes, opts, dims_out);
}

}  // namespace wavesz::wave
