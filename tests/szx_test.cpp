// The SZx-style ultra-fast block codec (Config::codec = Codec::Szx): error
// bound holds for every input including NaN/Inf payloads (raw-block
// fallback is bit-exact), constant fields collapse to constant blocks, the
// container dispatches through the generic sz:: and wave:: entry points,
// regions and streams work, and every truncated or forged prefix of a
// stream dies as wavesz::Error — never UB or std:: exceptions.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "core/stream.hpp"
#include "core/wavesz.hpp"
#include "metrics/stats.hpp"
#include "sz/compressor.hpp"
#include "sz/config.hpp"
#include "sz/container.hpp"
#include "util/dims.hpp"
#include "util/error.hpp"

namespace wavesz {
namespace {

sz::Config szx_config(double eb = 1e-3) {
  sz::Config cfg = sz::Config::ultrafast();
  cfg.error_bound = eb;
  return cfg;
}

template <typename T>
std::vector<T> smooth_field(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> noise(-0.05, 0.05);
  std::vector<T> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<T>(std::sin(0.03 * static_cast<double>(i)) * 40.0 +
                            noise(rng));
  }
  return out;
}

template <typename T>
void expect_bound_holds(const std::vector<T>& orig, const std::vector<T>& dec,
                        double bound) {
  ASSERT_EQ(orig.size(), dec.size());
  for (std::size_t i = 0; i < orig.size(); ++i) {
    const double o = static_cast<double>(orig[i]);
    const double d = static_cast<double>(dec[i]);
    if (std::isnan(o)) {
      EXPECT_TRUE(std::isnan(d)) << "at " << i;
    } else if (std::isinf(o)) {
      EXPECT_EQ(o, d) << "at " << i;
    } else {
      EXPECT_LE(std::fabs(o - d), bound) << "at " << i;
    }
  }
}

// ------------------------------------------------------------ round trips

TEST(Szx, RoundTripF32AllRanks) {
  for (const Dims& dims :
       {Dims::d1(1000), Dims::d1(257), Dims::d2(129, 131),
        Dims::d3(17, 19, 23)}) {
    const auto data = smooth_field<float>(dims.count(), 7);
    const auto c =
        sz::compress(std::span<const float>(data), dims, szx_config());
    EXPECT_EQ(sz::Variant::SzxFast, c.header.variant);
    Dims got;
    const auto dec = sz::decompress(c.bytes, {}, &got);
    EXPECT_EQ(dims.rank, got.rank);
    expect_bound_holds(data, dec, c.header.eb_absolute);
    EXPECT_TRUE(metrics::within_bound(data, dec, c.header.eb_absolute));
  }
}

TEST(Szx, RoundTripF64) {
  const Dims dims = Dims::d2(100, 103);
  const auto data = smooth_field<double>(dims.count(), 11);
  const auto c =
      sz::compress(std::span<const double>(data), dims, szx_config());
  EXPECT_EQ(sz::Variant::SzxFast, c.header.variant);
  EXPECT_EQ(1, c.header.dtype);
  const auto dec = sz::decompress64(c.bytes);
  expect_bound_holds(data, dec, c.header.eb_absolute);
}

TEST(Szx, AbsoluteBoundMode) {
  const Dims dims = Dims::d1(5000);
  const auto data = smooth_field<float>(dims.count(), 13);
  sz::Config cfg = szx_config(1e-2);
  cfg.mode = sz::EbMode::Absolute;
  const auto c = sz::compress(std::span<const float>(data), dims, cfg);
  EXPECT_DOUBLE_EQ(1e-2, c.header.eb_absolute);
  expect_bound_holds(data, sz::decompress(c.bytes), 1e-2);
}

TEST(Szx, BoundTighteningSweep) {
  // Tighter bounds must decode tighter, and the ratio must degrade
  // monotonically toward (but never below) honest storage.
  const Dims dims = Dims::d2(200, 200);
  const auto data = smooth_field<float>(dims.count(), 17);
  std::size_t prev_size = 0;
  for (double eb : {1e-1, 1e-2, 1e-3, 1e-4, 1e-5}) {
    const auto c =
        sz::compress(std::span<const float>(data), dims, szx_config(eb));
    expect_bound_holds(data, sz::decompress(c.bytes), c.header.eb_absolute);
    EXPECT_GE(c.bytes.size(), prev_size) << "eb=" << eb;
    prev_size = c.bytes.size();
  }
}

TEST(Szx, ConstantFieldCollapses) {
  const Dims dims = Dims::d2(256, 256);
  const std::vector<float> data(dims.count(), 42.5f);
  const auto c =
      sz::compress(std::span<const float>(data), dims, szx_config());
  // 256 blocks of 256 elems, each a 9-byte constant record + fixed preamble:
  // far under 1% of the raw size.
  EXPECT_LT(c.bytes.size(), dims.count() * sizeof(float) / 100);
  const auto dec = sz::decompress(c.bytes);
  expect_bound_holds(data, dec, c.header.eb_absolute);
  // Every block is constant: all elements decode to the same value.
  for (const float v : dec) EXPECT_EQ(dec[0], v);
}

TEST(Szx, NonFiniteValuesAreRawAndExact) {
  const Dims dims = Dims::d1(2000);
  auto data = smooth_field<float>(dims.count(), 19);
  data[3] = std::numeric_limits<float>::quiet_NaN();
  data[700] = std::numeric_limits<float>::infinity();
  data[1999] = -std::numeric_limits<float>::infinity();
  sz::Config cfg = szx_config(1e-3);
  cfg.mode = sz::EbMode::Absolute;  // NaN poisons the relative range
  const auto c = sz::compress(std::span<const float>(data), dims, cfg);
  EXPECT_GT(c.header.unpredictable_count, 0u);
  const auto dec = sz::decompress(c.bytes);
  expect_bound_holds(data, dec, c.header.eb_absolute);
  // Raw blocks are bit-exact, NaN payload included.
  EXPECT_EQ(0, std::memcmp(&data[3], &dec[3], sizeof(float)));
}

TEST(Szx, NaNPoisonedRelativeRangeIsRejected) {
  std::vector<float> data(100, 1.0f);
  data[0] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(sz::compress(std::span<const float>(data), Dims::d1(100),
                            szx_config()),
               Error);
}

TEST(Szx, BlockSizeKnobAndOddTails) {
  const Dims dims = Dims::d1(1001);  // prime-ish: forces a short tail block
  const auto data = smooth_field<float>(dims.count(), 23);
  for (std::uint32_t be : {1u, 7u, 64u, 256u, 4096u}) {
    sz::Config cfg = szx_config();
    cfg.szx_block_elems = be;
    const auto c = sz::compress(std::span<const float>(data), dims, cfg);
    SCOPED_TRACE("block_elems=" + std::to_string(be));
    expect_bound_holds(data, sz::decompress(c.bytes), c.header.eb_absolute);
  }
}

// ----------------------------------------------- entry-point integration

TEST(Szx, WaveAndCliEntryPointsDelegate) {
  const Dims dims = Dims::d2(64, 65);
  const auto data = smooth_field<float>(dims.count(), 29);
  const auto c =
      sz::compress(std::span<const float>(data), dims, szx_config());
  // wave::decompress must route SzxFast chunks (stream archives rely on it).
  const auto via_wave = wave::decompress(c.bytes);
  const auto via_sz = sz::decompress(c.bytes);
  ASSERT_EQ(via_sz.size(), via_wave.size());
  EXPECT_EQ(0, std::memcmp(via_sz.data(), via_wave.data(),
                           via_sz.size() * sizeof(float)));
  const auto h = sz::inspect(c.bytes);
  EXPECT_EQ(sz::Variant::SzxFast, h.variant);
  EXPECT_EQ(1, h.version);
}

TEST(Szx, RegionDecodeFallsBackToFullDecode) {
  const Dims dims = Dims::d2(50, 60);
  const auto data = smooth_field<float>(dims.count(), 31);
  const auto c =
      sz::compress(std::span<const float>(data), dims, szx_config());
  sz::Region rg;
  rg.lo = {10, 20, 0};
  rg.hi = {20, 40, 1};
  const auto res = sz::decompress_region(c.bytes, rg);
  ASSERT_EQ(10u * 20u, res.data.size());
  const auto full = sz::decompress(c.bytes);
  for (std::size_t i0 = 0; i0 < 10; ++i0) {
    for (std::size_t i1 = 0; i1 < 20; ++i1) {
      EXPECT_EQ(full[(i0 + 10) * 60 + (i1 + 20)], res.data[i0 * 20 + i1]);
    }
  }
  EXPECT_EQ(c.bytes.size(), res.compressed_bytes_read);
}

TEST(Szx, StreamCompressorEmitsSzxChunks) {
  const Dims dims = Dims::d2(40, 128);
  const auto data = smooth_field<float>(dims.count(), 37);
  wave::StreamCompressor sc(dims, szx_config(), 8);
  sc.feed(std::span<const float>(data));
  const auto archive = sc.finish();
  Dims got;
  const auto dec = wave::stream_decompress(archive, {}, &got);
  EXPECT_EQ(dims.count(), got.count());
  // Resolve the per-chunk absolute bound (VR-relative per chunk): just
  // check against the loosest possible bound, the global range.
  double lo = data[0], hi = data[0];
  for (const float v : data) {
    lo = std::min(lo, static_cast<double>(v));
    hi = std::max(hi, static_cast<double>(v));
  }
  expect_bound_holds(data, dec, 1e-3 * (hi - lo) * 1.0001);
  // The parallel archive decoder takes the same per-chunk delegation path.
  const auto par = wave::stream_decompress(archive, sz::DecodeOptions{4, 1});
  EXPECT_EQ(0, std::memcmp(dec.data(), par.data(),
                           dec.size() * sizeof(float)));
}

// -------------------------------------------------- forged / truncated

TEST(Szx, EveryTruncatedPrefixThrows) {
  const Dims dims = Dims::d1(300);
  const auto data = smooth_field<float>(dims.count(), 41);
  const auto c =
      sz::compress(std::span<const float>(data), dims, szx_config());
  for (std::size_t n = 0; n < c.bytes.size(); ++n) {
    std::vector<std::uint8_t> cut(c.bytes.begin(),
                                  c.bytes.begin() +
                                      static_cast<std::ptrdiff_t>(n));
    EXPECT_THROW(sz::decompress(cut), Error) << "prefix " << n;
  }
}

TEST(Szx, TrailingSectionBytesThrow) {
  const auto data = smooth_field<float>(100, 43);
  const auto c =
      sz::compress(std::span<const float>(data), Dims::d1(100), szx_config());
  // Grow the (single, final) section by one byte: locate its u64 length
  // field — the only offset whose value equals the remaining byte count —
  // bump it, and append a padding byte. The decoder must reject the
  // now-unconsumed payload tail.
  auto bytes = c.bytes;
  std::size_t size_at = SIZE_MAX;
  for (std::size_t x = 0; x + 8 <= bytes.size(); ++x) {
    std::uint64_t v = 0;
    std::memcpy(&v, &bytes[x], 8);
    if (v == bytes.size() - x - 8) {
      size_at = x;
      break;
    }
  }
  ASSERT_NE(SIZE_MAX, size_at);
  std::uint64_t grown = bytes.size() - size_at - 8 + 1;
  std::memcpy(&bytes[size_at], &grown, 8);
  bytes.push_back(0x00);
  EXPECT_THROW((void)sz::decompress(bytes), Error);
}

TEST(Szx, ForgedFieldsThrowNotCrash) {
  const auto data = smooth_field<float>(512, 47);
  const auto c =
      sz::compress(std::span<const float>(data), Dims::d1(512), szx_config());
  // Single-byte corruptions across the whole stream must either decode
  // within structural limits or throw wavesz::Error; fuzz_szx drives the
  // exhaustive version of this, here we pin the high-value header bytes.
  for (std::size_t at = 0; at < c.bytes.size(); ++at) {
    for (const std::uint8_t flip : {std::uint8_t{0xff}, std::uint8_t{0x01}}) {
      auto mut = c.bytes;
      mut[at] ^= flip;
      try {
        const auto out = sz::decompress(mut);
        EXPECT_LE(out.size(), std::size_t{1} << 20);
      } catch (const Error&) {
        // structured rejection is the expected outcome
      }
    }
  }
}

TEST(Szx, WrongDtypeRejected) {
  const auto data = smooth_field<float>(64, 53);
  const auto c =
      sz::compress(std::span<const float>(data), Dims::d1(64), szx_config());
  EXPECT_THROW((void)sz::decompress64(c.bytes), Error);
}

}  // namespace
}  // namespace wavesz
