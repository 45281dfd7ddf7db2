// Container v2 chunk-index tests: round trips across chunk granularities,
// bit-identical parallel decode at every thread budget, v1 emission and
// stripped-index fallback, and decode_guard behavior on forged index
// tables (overlapping / out-of-range / non-monotonic offsets, bad per-chunk
// CRCs, unpredictable counts the codes contradict, truncated tables) —
// every forgery must surface as wavesz::Error before the decoder commits to
// output.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/stream.hpp"
#include "core/wavesz.hpp"
#include "data/synthetic.hpp"
#include "sz/compressor.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace wavesz {
namespace {

constexpr std::uint32_t kMagicV1 = 0x315a5357u;  // "WSZ1"
constexpr std::uint32_t kMagicV2 = 0x495a5357u;  // "WSZI"
constexpr std::size_t kHeaderEnd = 69;
constexpr std::size_t kIndexFixedBytes = 4 + 8 + 8;
constexpr std::size_t kIndexEntryBytes = 28;

std::vector<float> field(const Dims& dims, std::uint64_t seed = 11) {
  data::FieldRecipe r;
  r.seed = seed;
  return data::generate(r, dims);
}

std::uint64_t index_entry_count(const std::vector<std::uint8_t>& bytes) {
  EXPECT_EQ(load_le32(bytes.data()), kMagicV2);
  return load_le64(bytes.data() + kHeaderEnd + 4);
}

/// Byte offset of field `field_off` (0 = end_bit, 8 = end_element,
/// 16 = end_unpred, 24 = running_crc) inside index entry `e`.
std::size_t entry_field_at(std::uint64_t e, std::size_t field_off) {
  return kHeaderEnd + kIndexFixedBytes + e * kIndexEntryBytes + field_off;
}

void store_le64_at(std::vector<std::uint8_t>& bytes, std::size_t at,
                   std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Replace the v2 index block with the "stripped" form (all three fixed
/// fields zero, no entries) — the layout a size-sensitive writer may emit.
std::vector<std::uint8_t> strip_index(const std::vector<std::uint8_t>& v2) {
  EXPECT_EQ(load_le32(v2.data()), kMagicV2);
  const std::uint64_t entries = load_le64(v2.data() + kHeaderEnd + 4);
  const std::size_t index_end =
      kHeaderEnd + kIndexFixedBytes + entries * kIndexEntryBytes;
  std::vector<std::uint8_t> out(v2.begin(),
                                v2.begin() + static_cast<std::ptrdiff_t>(
                                                 kHeaderEnd));
  out.insert(out.end(), kIndexFixedBytes, 0);
  out.insert(out.end(),
             v2.begin() + static_cast<std::ptrdiff_t>(index_end), v2.end());
  return out;
}

TEST(ChunkIndex, DefaultConfigEmitsV2) {
  const Dims dims = Dims::d2(64, 64);
  const auto c = sz::compress(field(dims), dims, sz::Config{});
  EXPECT_EQ(c.header.version, 2);
  EXPECT_EQ(load_le32(c.bytes.data()), kMagicV2);
  EXPECT_GE(index_entry_count(c.bytes), 1u);
}

TEST(ChunkIndex, V1OptOutMatchesLegacyLayout) {
  const Dims dims = Dims::d2(64, 64);
  const auto grid = field(dims);
  sz::Config v1;
  v1.chunk_index = false;
  const auto c = sz::compress(grid, dims, v1);
  EXPECT_EQ(c.header.version, 1);
  EXPECT_EQ(load_le32(c.bytes.data()), kMagicV1);
  // v1 parses byte-identically to the historical layout: sections start
  // right after the 69-byte header.
  const std::uint64_t s1 = load_le64(c.bytes.data() + kHeaderEnd);
  EXPECT_EQ(kHeaderEnd + 8 + s1 + 8 +
                load_le64(c.bytes.data() + kHeaderEnd + 8 + s1),
            c.bytes.size());
  EXPECT_EQ(sz::decompress(c.bytes), sz::decompress(
      sz::compress(grid, dims, sz::Config{}).bytes));
}

TEST(ChunkIndex, RoundTripAcrossChunkGranularities) {
  const Dims dims = Dims::d2(48, 48);  // 2304 points
  const auto grid = field(dims);
  sz::Config base;
  const auto want = sz::decompress(sz::compress(grid, dims, base).bytes);
  for (const std::uint32_t syms : {1u, 7u, 256u, 2304u, 1u << 15}) {
    for (const bool huffman : {true, false}) {
      sz::Config cfg;
      cfg.huffman = huffman;
      cfg.index_chunk_symbols = syms;
      const auto c = sz::compress(grid, dims, cfg);
      EXPECT_EQ(index_entry_count(c.bytes), (2304 + syms - 1) / syms)
          << "chunk_symbols=" << syms;
      EXPECT_EQ(sz::decompress(c.bytes), want)
          << "chunk_symbols=" << syms << " huffman=" << huffman;
    }
  }
}

TEST(ChunkIndex, ParallelDecodeBitIdenticalEveryVariant) {
  const Dims dims = Dims::d2(96, 96);
  const auto grid = field(dims);
  for (const bool huffman : {true, false}) {
    sz::Config cfg;
    cfg.huffman = huffman;
    cfg.index_chunk_symbols = 1024;  // 9 chunks
    const auto c_sz = sz::compress(grid, dims, cfg);
    const auto serial = sz::decompress(c_sz.bytes);
    auto wcfg = wave::default_config();
    wcfg.huffman = huffman;
    wcfg.index_chunk_symbols = 1024;
    const auto c_wave = wave::compress(grid, dims, wcfg);
    const auto wave_serial = wave::decompress(c_wave.bytes);
    for (const int nt : {1, 2, 4, 8, 0}) {
      const sz::DecodeOptions opts{nt, 1};
      EXPECT_EQ(sz::decompress(c_sz.bytes, opts), serial)
          << "threads=" << nt << " huffman=" << huffman;
      EXPECT_EQ(wave::decompress(c_wave.bytes, opts), wave_serial)
          << "threads=" << nt << " huffman=" << huffman;
    }
  }
}

TEST(ChunkIndex, ParallelDecodeBitIdenticalFloat64) {
  const Dims dims = Dims::d2(64, 80);
  const auto grid = field(dims);
  std::vector<double> wide(grid.begin(), grid.end());
  sz::Config cfg;
  cfg.index_chunk_symbols = 512;
  const auto c = sz::compress(wide, dims, cfg);
  const auto serial = sz::decompress64(c.bytes);
  for (const int nt : {2, 4, 8}) {
    EXPECT_EQ(sz::decompress64(c.bytes, sz::DecodeOptions{nt, 1}), serial);
  }
}

TEST(ChunkIndex, True3DWaveParallelDecode) {
  const Dims dims = Dims::d3(12, 24, 24);
  const auto grid = field(dims);
  auto cfg = wave::default_config();
  cfg.index_chunk_symbols = 600;
  const auto c = wave::compress(grid, dims, cfg, wave::LayoutMode::True3D);
  const auto serial = wave::decompress(c.bytes);
  for (const int nt : {2, 4}) {
    EXPECT_EQ(wave::decompress(c.bytes, sz::DecodeOptions{nt, 1}), serial);
  }
}

TEST(ChunkIndex, StrippedIndexFallsBackToSerial) {
  const Dims dims = Dims::d2(56, 56);
  const auto grid = field(dims);
  for (const bool huffman : {true, false}) {
    sz::Config cfg;
    cfg.huffman = huffman;
    const auto c = sz::compress(grid, dims, cfg);
    const auto stripped = strip_index(c.bytes);
    const auto want = sz::decompress(c.bytes);
    EXPECT_EQ(sz::decompress(stripped), want);
    // decode_threads > 1 has nothing to parallelize without the index; it
    // must still produce the identical field.
    EXPECT_EQ(sz::decompress(stripped, sz::DecodeOptions{4, 1}), want);
  }
}

TEST(ChunkIndex, StreamParallelDecodeBitIdentical) {
  const Dims dims = Dims::d3(20, 16, 16);
  const auto grid = field(dims);
  wave::StreamCompressor sc(dims, wave::default_config(), 4);
  sc.feed(grid);
  const auto archive = sc.finish();
  const auto serial = wave::stream_decompress(archive);
  for (const int nt : {1, 2, 4, 8}) {
    Dims d;
    EXPECT_EQ(wave::stream_decompress(archive, sz::DecodeOptions{nt, 1}, &d),
              serial);
    EXPECT_EQ(d, dims);
  }
}

// ---- forged index tables ----------------------------------------------

class ForgedIndex : public ::testing::TestWithParam<bool> {};

TEST_P(ForgedIndex, CorruptedTablesThrow) {
  const bool huffman = GetParam();
  const Dims dims = Dims::d2(64, 64);
  sz::Config cfg;
  cfg.huffman = huffman;
  cfg.index_chunk_symbols = 512;  // 8 chunks
  const auto c = sz::compress(field(dims), dims, cfg);
  const std::uint64_t entries = index_entry_count(c.bytes);
  ASSERT_GE(entries, 3u);

  const auto expect_throws = [&](std::vector<std::uint8_t> forged,
                                 const char* what) {
    for (const int nt : {1, 4}) {
      EXPECT_THROW((void)sz::decompress(forged, sz::DecodeOptions{nt, 1}),
                   Error)
          << what << " threads=" << nt << " huffman=" << huffman;
    }
  };

  {  // non-monotonic end_bit: entry 1's bit offset rewound to entry 0's
    auto f = c.bytes;
    const std::uint64_t bit0 = load_le64(f.data() + entry_field_at(0, 0));
    store_le64_at(f, entry_field_at(1, 0), bit0);
    expect_throws(std::move(f), "non-monotonic end_bit");
  }
  {  // out-of-range end_bit: far beyond any plausible payload
    auto f = c.bytes;
    store_le64_at(f, entry_field_at(entries - 1, 0), 1ull << 60);
    expect_throws(std::move(f), "out-of-range end_bit");
  }
  {  // overlapping element ranges: entry 1 ends before entry 0
    auto f = c.bytes;
    store_le64_at(f, entry_field_at(1, 8), 1);
    expect_throws(std::move(f), "overlapping element range");
  }
  {  // unpredictable count exceeding the chunk's symbol count
    auto f = c.bytes;
    store_le64_at(f, entry_field_at(0, 16), 1ull << 40);
    expect_throws(std::move(f), "unpred overflow");
  }
  {  // bad per-chunk CRC
    auto f = c.bytes;
    f[entry_field_at(1, 24)] ^= 0x5a;
    expect_throws(std::move(f), "bad chunk CRC");
  }
  {  // forged entry count: claims more chunks than the table holds
    auto f = c.bytes;
    store_le64_at(f, kHeaderEnd + 4, 1ull << 56);
    expect_throws(std::move(f), "oversized entry count");
  }
  {  // truncated table: cut mid-entry
    std::vector<std::uint8_t> f(
        c.bytes.begin(),
        c.bytes.begin() + static_cast<std::ptrdiff_t>(entry_field_at(1, 4)));
    expect_throws(std::move(f), "truncated index");
  }
  {  // entry count disagreeing with point_count (one chunk shaved off)
    auto f = c.bytes;
    store_le64_at(f, kHeaderEnd + 4, entries - 1);
    expect_throws(std::move(f), "short entry count");
  }
}

TEST_P(ForgedIndex, UnpredictableCountMovedBetweenChunksThrows) {
  // Moving one unpredictable value from chunk 1 into chunk 0 keeps the
  // counts monotonic and their total equal to the header's, the only checks
  // the table alone allows; the decoded codes must expose it in every
  // decoder, serial, chunk-parallel and region.
  const bool huffman = GetParam();
  const Dims dims = Dims::d2(64, 64);
  data::FieldRecipe recipe;
  recipe.seed = 11;
  recipe.noise_amplitude = 0.05;
  const auto grid = data::generate(recipe, dims);
  sz::Config cfg;
  cfg.huffman = huffman;
  cfg.index_chunk_symbols = 512;  // 8 chunks
  // An absolute bound the noise overflows at a fraction of the points.
  cfg.mode = sz::EbMode::Absolute;
  cfg.error_bound = 1e-6;
  auto wcfg = wave::default_config();
  wcfg.huffman = huffman;
  wcfg.index_chunk_symbols = cfg.index_chunk_symbols;
  wcfg.mode = cfg.mode;
  wcfg.error_bound = cfg.error_bound;
  const sz::Region top{{0, 0, 0}, {16, 0, 0}};  // rows [0, 16)

  const auto forge = [](std::vector<std::uint8_t> bytes) {
    const std::size_t at = entry_field_at(0, 16);
    const std::uint64_t u0 = load_le64(bytes.data() + at);
    const std::uint64_t u1 = load_le64(bytes.data() + entry_field_at(1, 16));
    EXPECT_LT(u0, u1) << "chunk 1 has no unpredictable value to move";
    store_le64_at(bytes, at, u0 + 1);
    return bytes;
  };
  const auto c_sz = sz::compress(grid, dims, cfg).bytes;
  const auto c_wave = wave::compress(grid, dims, wcfg).bytes;
  const auto f_sz = forge(c_sz);
  const auto f_wave = forge(c_wave);
  for (const int nt : {1, 4}) {
    const sz::DecodeOptions opts{nt, 1};
    EXPECT_NO_THROW((void)sz::decompress_region(c_sz, top, opts));
    EXPECT_NO_THROW((void)wave::decompress_region(c_wave, top, opts));
    EXPECT_THROW((void)sz::decompress(f_sz, opts), Error)
        << "sz threads=" << nt << " huffman=" << huffman;
    EXPECT_THROW((void)sz::decompress_region(f_sz, top, opts), Error)
        << "sz region threads=" << nt << " huffman=" << huffman;
    EXPECT_THROW((void)wave::decompress(f_wave, opts), Error)
        << "wave threads=" << nt << " huffman=" << huffman;
    EXPECT_THROW((void)wave::decompress_region(f_wave, top, opts), Error)
        << "wave region threads=" << nt << " huffman=" << huffman;
  }
}

INSTANTIATE_TEST_SUITE_P(HuffmanAndRaw, ForgedIndex, ::testing::Bool());

}  // namespace
}  // namespace wavesz
