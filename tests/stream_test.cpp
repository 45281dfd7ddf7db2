// Tests for the bounded-memory streaming API: chunking geometry, partial
// feeds, random-access chunk decode, error-bound preservation, and misuse.
#include <gtest/gtest.h>

#include <vector>

#include "core/stream.hpp"
#include "core/wavesz.hpp"
#include "data/synthetic.hpp"
#include "metrics/stats.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace wavesz::wave {
namespace {

std::vector<float> volume(const Dims& dims, std::uint64_t seed) {
  data::FieldRecipe r;
  r.seed = seed;
  r.base_frequency = 1.0;
  return data::generate(r, dims);
}

TEST(Stream, RoundTripEqualsOneShotSemantics) {
  const Dims dims = Dims::d3(24, 32, 32);
  const auto field = volume(dims, 1);
  StreamCompressor sc(dims, default_config(), 8);
  // Feed in ragged pieces: 5 planes, then 1, then the rest.
  const std::size_t plane = 32 * 32;
  sc.feed(std::span<const float>(field.data(), 5 * plane));
  sc.feed(std::span<const float>(field.data() + 5 * plane, plane));
  sc.feed(std::span<const float>(field.data() + 6 * plane, 18 * plane));
  EXPECT_EQ(sc.planes_fed(), 24u);
  const auto archive = sc.finish();

  Dims out_dims;
  const auto restored = stream_decompress(archive, {}, &out_dims);
  EXPECT_EQ(out_dims, dims);
  ASSERT_EQ(restored.size(), field.size());
  // Each chunk independently obeys the bound, so the whole does too.
  const double bound =
      1e-3 * metrics::value_range(field).span() + 1e-12;
  EXPECT_TRUE(metrics::within_bound(field, restored, bound));
}

TEST(Stream, ChunkCountFollowsGeometry) {
  const Dims dims = Dims::d3(25, 16, 16);
  const auto field = volume(dims, 2);
  StreamCompressor sc(dims, default_config(), 8);
  sc.feed(field);
  const auto archive = sc.finish();
  EXPECT_EQ(stream_chunk_count(archive), 4u);  // 8+8+8+1
  const auto tail = stream_decompress_chunk(archive, 3);
  EXPECT_EQ(tail.first_plane, 24u);
  EXPECT_EQ(tail.plane_count, 1u);
}

TEST(Stream, RandomAccessChunkMatchesFullDecode) {
  const Dims dims = Dims::d3(20, 24, 24);
  const auto field = volume(dims, 3);
  StreamCompressor sc(dims, default_config(), 6);
  sc.feed(field);
  const auto archive = sc.finish();
  const auto full = stream_decompress(archive);
  const std::size_t plane = 24 * 24;
  for (std::size_t i = 0; i < stream_chunk_count(archive); ++i) {
    const auto chunk = stream_decompress_chunk(archive, i);
    for (std::size_t k = 0; k < chunk.data.size(); ++k) {
      EXPECT_EQ(chunk.data[k], full[chunk.first_plane * plane + k]);
    }
  }
}

TEST(Stream, CompressedBytesGrowAsChunksEmit) {
  const Dims dims = Dims::d2(64, 128);
  const auto field = volume(dims, 4);
  StreamCompressor sc(dims, default_config(), 16);
  EXPECT_EQ(sc.compressed_bytes(), 0u);
  sc.feed(std::span<const float>(field.data(), 16 * 128));
  const auto after_one = sc.compressed_bytes();
  EXPECT_GT(after_one, 0u);
  sc.feed(std::span<const float>(field.data() + 16 * 128, 48 * 128));
  EXPECT_GT(sc.compressed_bytes(), after_one);
  (void)sc.finish();
}

TEST(Stream, MisuseIsRejected) {
  const Dims dims = Dims::d2(8, 16);
  StreamCompressor sc(dims, default_config(), 4);
  const std::vector<float> not_a_plane(7, 0.0f);
  EXPECT_THROW(sc.feed(not_a_plane), Error);
  const std::vector<float> too_much(9 * 16, 0.0f);
  EXPECT_THROW(sc.feed(too_much), Error);
  const std::vector<float> some(4 * 16, 0.0f);
  sc.feed(some);
  EXPECT_THROW(sc.finish(), Error);  // missing planes
  EXPECT_THROW(StreamCompressor(Dims::d1(100), default_config()), Error);
}

TEST(Stream, FinishIsSingleShot) {
  const Dims dims = Dims::d2(4, 16);
  StreamCompressor sc(dims, default_config(), 2);
  sc.feed(std::vector<float>(4 * 16, 1.0f));
  (void)sc.finish();
  EXPECT_THROW(sc.finish(), Error);
  EXPECT_THROW(sc.feed(std::vector<float>(16, 0.0f)), Error);
}

TEST(Stream, Float64StreamRoundTrips) {
  const Dims dims = Dims::d3(12, 16, 16);
  const auto f32 = volume(dims, 9);
  std::vector<double> f64(f32.begin(), f32.end());
  sz::Config cfg = default_config();
  cfg.mode = sz::EbMode::Absolute;
  cfg.error_bound = 1e-9;  // below float precision: needs the f64 path
  StreamCompressor sc(dims, cfg, 4);
  sc.feed(std::span<const double>(f64));
  const auto archive = sc.finish();
  const auto restored = stream_decompress64(archive);
  ASSERT_EQ(restored.size(), f64.size());
  for (std::size_t i = 0; i < f64.size(); ++i) {
    ASSERT_LE(std::fabs(restored[i] - f64[i]), 1e-9 * 1.001);
  }
  // The f32 reader must refuse an f64 archive.
  EXPECT_THROW(stream_decompress(archive), Error);
}

TEST(Stream, MixingValueTypesIsRejected) {
  const Dims dims = Dims::d2(8, 16);
  StreamCompressor sc(dims, default_config(), 4);
  sc.feed(std::vector<float>(2 * 16, 1.0f));
  const std::vector<double> doubles(16, 1.0);
  EXPECT_THROW(sc.feed(std::span<const double>(doubles)), Error);
}

TEST(Stream, CorruptArchiveFailsLoudly) {
  const Dims dims = Dims::d2(8, 32);
  StreamCompressor sc(dims, default_config(), 4);
  sc.feed(volume(dims, 5));
  auto archive = sc.finish();
  auto bad = archive;
  bad[2] ^= 0x40;
  EXPECT_THROW(stream_decompress(bad), Error);
  std::vector<std::uint8_t> cut(archive.begin(),
                                archive.begin() + archive.size() / 2);
  EXPECT_THROW(stream_decompress(cut), Error);
  EXPECT_THROW(stream_decompress_chunk(archive, 99), Error);
}

TEST(Stream, EveryDecodeChecksEachChunksPlaneCount) {
  // A float64 archive of 4 planes with chunk_planes 2, written by hand
  // with chunks of `head` and 4 - head planes: the plane total is right
  // either way, the placement only for head = 2.
  const Dims dims = Dims::d2(4, 16);
  const auto f32 = volume(dims, 11);
  const std::vector<double> field(f32.begin(), f32.end());
  const auto archive = [&](std::size_t head) {
    std::vector<std::vector<std::uint8_t>> chunks;
    for (const auto& [first, planes] :
         {std::pair{std::size_t{0}, head}, std::pair{head, 4 - head}}) {
      const auto values = std::span<const double>(field).subspan(
          first * 16, planes * 16);
      chunks.push_back(
          wave::compress(values, Dims::d2(planes, 16), default_config())
              .bytes);
    }
    ByteWriter w;
    w.u32(0x53535a57u);  // "WZSS"
    w.u8(2);
    for (const std::uint64_t extent : {4, 16, 1}) w.u64(extent);
    w.u64(2);  // chunk_planes
    w.u64(chunks.size());
    for (const auto& c : chunks) w.u64(c.size());
    for (const auto& c : chunks) w.bytes(c);
    return w.take();
  };
  EXPECT_EQ(stream_decompress64(archive(2)).size(), field.size());
  const auto misplaced = archive(3);
  EXPECT_THROW(stream_decompress64(misplaced), Error);
  EXPECT_THROW(stream_decompress64(misplaced, sz::DecodeOptions{2, 1}), Error);
}

TEST(Stream, DefaultChunkSizeIsSane) {
  StreamCompressor sc(Dims::d3(512, 512, 512), default_config());
  // ~32 MB of input per chunk => 8M points / 256K points per plane = 32.
  const auto field = volume(Dims::d3(4, 512, 512), 6);
  sc.feed(field);
  EXPECT_EQ(sc.compressed_bytes(), 0u);  // still below one chunk
}

}  // namespace
}  // namespace wavesz::wave
