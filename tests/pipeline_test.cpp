// Staged chunk pipeline (core/pipeline.hpp): executor ordering,
// backpressure and error propagation; arena pooling; and the load-bearing
// guarantee — a pipelined StreamCompressor writes the barrier path's archive
// byte for byte for every codec, container variant, depth and thread
// budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "core/stream.hpp"
#include "core/wavesz.hpp"
#include "data/synthetic.hpp"
#include "sz/config.hpp"
#include "util/arena.hpp"
#include "util/error.hpp"

namespace wavesz {
namespace {

std::vector<float> volume(const Dims& dims, std::uint64_t seed) {
  data::FieldRecipe r;
  r.seed = seed;
  r.base_frequency = 1.0;
  return data::generate(r, dims);
}

std::vector<double> volume64(const Dims& dims, std::uint64_t seed) {
  const auto f32 = volume(dims, seed);
  return {f32.begin(), f32.end()};
}

// ---------------------------------------------------------------- executor

TEST(PipelineExecutor, RetiresEverySlabInOrderPerStage) {
  std::mutex mu;
  std::vector<std::size_t> first, second;
  pipeline::Executor ex(
      {{"stage.alpha",
        [&](std::size_t s) {
          const std::lock_guard<std::mutex> lock(mu);
          first.push_back(s);
        }},
       {"stage.beta",
        [&](std::size_t s) {
          const std::lock_guard<std::mutex> lock(mu);
          second.push_back(s);
        }}},
      3);
  for (int i = 0; i < 17; ++i) {
    const std::size_t seq = ex.acquire();
    EXPECT_EQ(seq, static_cast<std::size_t>(i));
    ex.submit();
  }
  ex.drain();
  ASSERT_EQ(first.size(), 17u);
  ASSERT_EQ(second.size(), 17u);
  // Each stage is a single worker fed by a FIFO ring: order is program order.
  for (std::size_t i = 0; i < 17; ++i) {
    EXPECT_EQ(first[i], i);
    EXPECT_EQ(second[i], i);
  }
  EXPECT_EQ(ex.stats().slabs, 17u);
}

TEST(PipelineExecutor, BackpressureBoundsSlabsInFlight) {
  constexpr std::size_t kDepth = 2;
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  pipeline::Executor ex(
      {{"stage.hold", [&](std::size_t) {
          const int now = ++in_flight;
          int prev = peak.load();
          while (now > prev && !peak.compare_exchange_weak(prev, now)) {
          }
          // Hold the slab long enough for the producer to run ahead if the
          // ring failed to bound it.
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          --in_flight;
        }}},
      kDepth);
  for (int i = 0; i < 12; ++i) {
    ex.acquire();
    ex.submit();
  }
  ex.drain();
  EXPECT_LE(peak.load(), static_cast<int>(kDepth));
  EXPECT_EQ(ex.stats().slabs, 12u);
}

TEST(PipelineExecutor, StageExceptionSurfacesAndDrainTerminates) {
  pipeline::Executor ex({{"stage.boom", [](std::size_t s) {
                            if (s == 3) throw Error("stage failure");
                          }}},
                        2);
  bool threw = false;
  try {
    for (int i = 0; i < 64; ++i) {
      ex.acquire();
      ex.submit();
    }
    ex.drain();
  } catch (const Error&) {
    threw = true;
  }
  EXPECT_TRUE(threw);
}

TEST(PipelineExecutor, AcquireTwiceWithoutSubmitThrows) {
  pipeline::Executor ex({{"stage.noop", [](std::size_t) {}}}, 1);
  ex.acquire();
  EXPECT_THROW(ex.acquire(), Error);
  ex.submit();
  ex.drain();
}

// ------------------------------------------------- executor misuse contract
// Every misuse either throws wavesz::Error or is a documented no-op; none
// of them may hang. The interleave harness (tests/interleave/) checks the
// same protocol across all schedules; these pin the API-boundary cases.

TEST(PipelineExecutor, ZeroDepthConstructionThrows) {
  EXPECT_THROW(
      pipeline::Executor({{"stage.noop", [](std::size_t) {}}}, 0), Error);
}

TEST(PipelineExecutor, NoStagesConstructionThrows) {
  EXPECT_THROW(pipeline::Executor({}, 1), Error);
}

TEST(PipelineExecutor, DoubleDrainIsANoOp) {
  pipeline::Executor ex({{"stage.noop", [](std::size_t) {}}}, 2);
  for (int i = 0; i < 4; ++i) {
    ex.acquire();
    ex.submit();
  }
  ex.drain();
  EXPECT_NO_THROW(ex.drain());  // nothing in flight: returns immediately
  EXPECT_EQ(ex.stats().slabs, 4u);
}

TEST(PipelineExecutor, SubmitAfterDrainWithoutAcquireThrows) {
  pipeline::Executor ex({{"stage.noop", [](std::size_t) {}}}, 2);
  ex.acquire();
  ex.submit();
  ex.drain();
  EXPECT_THROW(ex.submit(), Error);
  // The executor stays usable: a proper acquire/submit round still works.
  EXPECT_EQ(ex.acquire(), 1u);
  ex.submit();
  ex.drain();
  EXPECT_EQ(ex.stats().slabs, 2u);
}

TEST(PipelineExecutor, DrainOnFreshExecutorReturnsImmediately) {
  pipeline::Executor ex({{"stage.noop", [](std::size_t) {}}}, 2);
  EXPECT_NO_THROW(ex.drain());
  EXPECT_EQ(ex.stats().slabs, 0u);
}

TEST(PipelineExecutor, DestructorWithoutDrainJoinsCleanly) {
  // Submitted slabs must flow to retirement and the destructor must join
  // without a drain() call — and without hanging.
  std::atomic<int> ran{0};
  {
    pipeline::Executor ex(
        {{"stage.count",
          [&ran](std::size_t) { ran.fetch_add(1, std::memory_order_relaxed); }}},
        2);
    for (int i = 0; i < 8; ++i) {
      ex.acquire();
      ex.submit();
    }
    // No drain: the destructor closes the intake and joins.
  }
  EXPECT_EQ(ran.load(std::memory_order_relaxed), 8);
}

TEST(PipelineExecutor, DestructorWithReservedSlotJoinsCleanly) {
  // acquire() without submit(): the reserved slot is simply abandoned.
  pipeline::Executor ex({{"stage.noop", [](std::size_t) {}}}, 2);
  ex.acquire();
}

TEST(PipelineExecutor, DestructorSwallowsUndrainedError) {
  // An error nobody drained must not escape the destructor.
  pipeline::Executor ex(
      {{"stage.boom", [](std::size_t) { throw Error("undrained"); }}}, 2);
  ex.acquire();
  ex.submit();
}

// ------------------------------------------------------------------ arena

TEST(Arena, VecPoolRecyclesCapacity) {
  util::VecPool<float> pool;
  auto a = pool.acquire(1024);
  EXPECT_EQ(a.size(), 1024u);
  pool.release(std::move(a));
  auto b = pool.acquire(512);  // smaller fits pooled capacity: a reuse
  EXPECT_EQ(b.size(), 512u);
  pool.release(std::move(b));
  auto c = pool.acquire(4096);  // larger than anything pooled: fresh
  pool.release(std::move(c));
  const auto st = pool.stats();
  EXPECT_EQ(st.acquires, 3u);
  EXPECT_EQ(st.reuses, 1u);
  EXPECT_EQ(st.fresh, 2u);
}

// ------------------------------------------------- stream archive identity

std::vector<std::uint8_t> stream_archive(const std::vector<float>& field,
                                         const Dims& dims, sz::Config cfg,
                                         std::size_t chunk_planes) {
  wave::StreamCompressor sc(dims, cfg, chunk_planes);
  // Ragged feeds so chunk boundaries never line up with feed boundaries.
  const std::size_t plane = dims.count() / dims[0];
  std::size_t at = 0;
  std::size_t piece = 1;
  while (at < dims[0]) {
    const std::size_t take = std::min<std::size_t>(piece, dims[0] - at);
    sc.feed(std::span<const float>(field.data() + at * plane, take * plane));
    at += take;
    piece = piece * 2 + 1;
  }
  return sc.finish();
}

void expect_stream_identical(const Dims& dims, sz::Config cfg,
                             std::uint64_t seed) {
  const auto field = volume(dims, seed);
  cfg.pipeline_depth = 0;
  const auto barrier = stream_archive(field, dims, cfg, 3);
  EXPECT_GE(wave::stream_chunk_count(barrier), 3u);
  for (int depth = 1; depth <= 4; ++depth) {
    cfg.pipeline_depth = depth;
    const auto piped = stream_archive(field, dims, cfg, 3);
    ASSERT_EQ(piped, barrier) << "stream depth " << depth;
  }
  const auto restored = wave::stream_decompress(barrier);
  EXPECT_EQ(restored.size(), field.size());
}

/// sz:: and wave:: each document make_staged(...)->run() as their
/// compress(): the same container for either codec.
template <typename T>
void expect_staged_run_is_compress(const std::vector<T>& field,
                                   const Dims& dims, const sz::Config& cfg) {
  const std::span<const T> s(field);
  EXPECT_EQ(sz::make_staged(s, dims, cfg)->run().bytes,
            sz::compress(s, dims, cfg).bytes);
  EXPECT_EQ(wave::make_staged(s, dims, cfg)->run().bytes,
            wave::compress(s, dims, cfg).bytes);
}

TEST(PipelineStream, StagedRunWritesTheCompressContainer) {
  const Dims dims = Dims::d2(64, 64);
  for (const auto codec : {sz::Codec::Entropy, sz::Codec::Szx}) {
    SCOPED_TRACE(static_cast<int>(codec));
    auto cfg = wave::default_config();
    cfg.codec = codec;
    expect_staged_run_is_compress(volume(dims, 41), dims, cfg);
    expect_staged_run_is_compress(volume64(dims, 41), dims, cfg);
  }
}

TEST(PipelineStream, WaveDefaultArchiveIdentical) {
  expect_stream_identical(Dims::d3(11, 24, 24), wave::default_config(), 31);
}

TEST(PipelineStream, WaveHuffmanIndexedArchiveIdentical) {
  auto cfg = wave::default_config();
  cfg.huffman = true;
  expect_stream_identical(Dims::d3(10, 20, 20), cfg, 32);
}

TEST(PipelineStream, V1HuffmanArchiveIdentical) {
  sz::Config cfg;  // base-10 H*G* chunks without the chunk index
  cfg.chunk_index = false;
  expect_stream_identical(Dims::d3(10, 20, 20), cfg, 38);
}

TEST(PipelineStream, WaveV1ArchiveIdentical) {
  auto cfg = wave::default_config();
  cfg.chunk_index = false;
  expect_stream_identical(Dims::d3(11, 24, 24), cfg, 39);
}

TEST(PipelineStream, ThreadBudgetsComposeWithDepth) {
  auto cfg = wave::default_config();
  cfg.pqd_threads = 4;
  cfg.codec_threads = 2;
  cfg.deflate_chunk_bytes = 4096;  // several DEFLATE chunks per section
  expect_stream_identical(Dims::d3(12, 48, 48), cfg, 40);
}

TEST(PipelineStream, SzxChunksArchiveIdentical) {
  expect_stream_identical(Dims::d3(13, 16, 16), sz::Config::ultrafast(), 33);
}

TEST(PipelineStream, Float64ArchiveIdentical) {
  const Dims dims = Dims::d3(9, 20, 20);
  const auto field = volume64(dims, 34);
  auto cfg = wave::default_config();
  auto run = [&](int depth) {
    cfg.pipeline_depth = depth;
    wave::StreamCompressor sc(dims, cfg, 2);
    sc.feed(std::span<const double>(field));
    return sc.finish();
  };
  const auto barrier = run(0);
  for (int depth = 1; depth <= 4; ++depth) {
    ASSERT_EQ(run(depth), barrier) << "depth " << depth;
  }
  EXPECT_EQ(wave::stream_decompress64(barrier).size(), field.size());
}

TEST(PipelineStream, CompressedBytesProgressesAndMatchesArchive) {
  const Dims dims = Dims::d3(12, 24, 24);
  const auto field = volume(dims, 35);
  auto cfg = wave::default_config();
  cfg.pipeline_depth = 2;
  wave::StreamCompressor sc(dims, cfg, 4);
  sc.feed(std::span<const float>(field));
  const auto archive = sc.finish();
  // Every chunk has been framed by finish(); the payload bytes are a lower
  // bound of the archive (which adds the directory).
  EXPECT_GT(sc.compressed_bytes(), 0u);
  EXPECT_LT(sc.compressed_bytes(), archive.size());
}

// ------------------------------------------ steady-state allocation bound

TEST(PipelineStream, SteadyStateReusesSlabsInsteadOfAllocating) {
  const Dims dims = Dims::d3(64, 16, 16);
  const auto field = volume(dims, 36);
  auto cfg = wave::default_config();
  cfg.pipeline_depth = 2;
  wave::StreamCompressor sc(dims, cfg, 2);  // 32 chunks through the pipe
  sc.feed(std::span<const float>(field));
  const auto archive = sc.finish();
  EXPECT_GT(archive.size(), 0u);
  const auto st = sc.arena_stats();
  // One staging slab being filled plus at most depth slabs in flight: fresh
  // allocations are bounded by depth + 1 no matter how many chunks stream
  // through; every later acquire is a recycle.
  EXPECT_EQ(st.acquires, 32u);
  EXPECT_LE(st.fresh, 3u);  // depth + 1
  EXPECT_GE(st.reuses, st.acquires - 3u);
}

TEST(PipelineStream, BarrierModeAlsoReusesTheStagingSlab) {
  const Dims dims = Dims::d3(20, 16, 16);
  const auto field = volume(dims, 37);
  wave::StreamCompressor sc(dims, wave::default_config(), 2);
  sc.feed(std::span<const float>(field));
  (void)sc.finish();
  const auto st = sc.arena_stats();
  EXPECT_EQ(st.acquires, 10u);
  EXPECT_LE(st.fresh, 1u);
  EXPECT_GE(st.reuses, 9u);
}

}  // namespace
}  // namespace wavesz
