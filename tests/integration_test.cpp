// Cross-module integration tests: all three compressors on all three
// dataset personas, the compression-ratio orderings the paper's Tables 1/7
// rest on, PSNR floors, compressor interop through the shared container,
// and golden pins of whole containers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/stream.hpp"
#include "core/wavesz.hpp"
#include "data/datasets.hpp"
#include "deflate/deflate.hpp"
#include "deflate/parallel.hpp"
#include "fpga/model.hpp"
#include "ghostsz/ghostsz.hpp"
#include "metrics/stats.hpp"
#include "sz/compressor.hpp"
#include "sz/container.hpp"
#include "golden_pin.hpp"
#include "util/bytes.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"

namespace wavesz {
namespace {

/// Downscale per persona, chosen so the border-point fraction of the
/// flattened-2D view stays close to the paper-native geometry (borders are
/// waveSZ's fixed cost; shredding d0 would distort every ratio comparison).
unsigned scale_for(data::Persona p) {
  switch (p) {
    case data::Persona::CesmAtm: return 16;   // 112 x 225
    case data::Persona::Hurricane: return 2;  // 50 x 250 x 250
    case data::Persona::Nyx: return 8;        // 64^3
  }
  return 16;
}

struct FieldResult {
  double ratio_sz = 0.0;
  double ratio_ghost = 0.0;
  double ratio_wave_g = 0.0;
  double ratio_wave_hg = 0.0;
  double psnr_sz = 0.0;
  double psnr_ghost = 0.0;
  double psnr_wave = 0.0;
};

FieldResult run_field(const data::Field& f) {
  const auto grid = f.materialize();
  const double raw_bytes =
      static_cast<double>(grid.size() * sizeof(float));
  FieldResult out;

  sz::Config cfg_sz;  // VR-rel 1e-3, H* + gzip
  const auto c_sz = sz::compress(grid, f.dims, cfg_sz);
  out.ratio_sz = raw_bytes / static_cast<double>(c_sz.bytes.size());
  const auto d_sz = sz::decompress(c_sz.bytes);
  EXPECT_TRUE(metrics::within_bound(grid, d_sz, c_sz.header.eb_absolute));
  out.psnr_sz = metrics::distortion(grid, d_sz).psnr_db;

  sz::Config cfg_ghost;
  const auto c_ghost = ghost::compress(grid, f.dims, cfg_ghost);
  out.ratio_ghost = raw_bytes / static_cast<double>(c_ghost.bytes.size());
  const auto d_ghost = ghost::decompress(c_ghost.bytes);
  EXPECT_TRUE(
      metrics::within_bound(grid, d_ghost, c_ghost.header.eb_absolute));
  out.psnr_ghost = metrics::distortion(grid, d_ghost).psnr_db;

  auto cfg_wave = wave::default_config();
  const auto c_wg = wave::compress(grid, f.dims, cfg_wave);
  out.ratio_wave_g = raw_bytes / static_cast<double>(c_wg.bytes.size());
  const auto d_wave = wave::decompress(c_wg.bytes);
  EXPECT_TRUE(metrics::within_bound(grid, d_wave, c_wg.header.eb_absolute));
  out.psnr_wave = metrics::distortion(grid, d_wave).psnr_db;

  cfg_wave.huffman = true;
  const auto c_whg = wave::compress(grid, f.dims, cfg_wave);
  out.ratio_wave_hg = raw_bytes / static_cast<double>(c_whg.bytes.size());
  return out;
}

class PersonaSweep : public ::testing::TestWithParam<data::Persona> {
 protected:
  /// One full sweep per persona, shared across the assertions below (the
  /// fields are deterministic, so caching cannot mask order effects).
  static const std::vector<FieldResult>& results(data::Persona p) {
    static std::map<data::Persona, std::vector<FieldResult>> cache;
    auto it = cache.find(p);
    if (it == cache.end()) {
      std::vector<FieldResult> rs;
      for (const auto& f : data::fields(p, scale_for(p))) {
        SCOPED_TRACE(f.name);
        rs.push_back(run_field(f));
      }
      it = cache.emplace(p, std::move(rs)).first;
    }
    return it->second;
  }
};

TEST_P(PersonaSweep, AllCompressorsBoundedOnEveryField) {
  EXPECT_FALSE(results(GetParam()).empty());  // bounds checked in run_field
}

TEST_P(PersonaSweep, RatioOrderingsMatchPaperTables) {
  // Table 1/7 structure: SZ-1.4 and waveSZ(H*G*) lead, waveSZ(G*) in the
  // middle, GhostSZ last. Averaged per persona, as the paper reports.
  double sum_sz = 0, sum_ghost = 0, sum_wg = 0, sum_whg = 0;
  int n = 0;
  for (const auto& r : results(GetParam())) {
    sum_sz += r.ratio_sz;
    sum_ghost += r.ratio_ghost;
    sum_wg += r.ratio_wave_g;
    sum_whg += r.ratio_wave_hg;
    ++n;
  }
  const double avg_sz = sum_sz / n, avg_ghost = sum_ghost / n;
  const double avg_wg = sum_wg / n, avg_whg = sum_whg / n;
  EXPECT_GT(avg_wg, avg_ghost);        // waveSZ beats GhostSZ (Table 7)
  EXPECT_GT(avg_whg, avg_wg);          // H* then G* beats G* alone
  EXPECT_GT(avg_sz, avg_wg);           // SZ-1.4 tops waveSZ G*
  // H*G* recovers a large share of SZ-1.4's ratio (Table 7); the flattened
  // 3D view plus verbatim borders keeps the 3D personas further away than
  // the native-2D CESM persona.
  EXPECT_GT(avg_whg, 0.45 * avg_sz);
  if (GetParam() == data::Persona::CesmAtm) {
    EXPECT_GT(avg_whg, 0.7 * avg_sz);
  }
  EXPECT_GT(avg_sz / avg_ghost, 1.5);  // Table 1: SZ-1.4 well above GhostSZ
}

TEST_P(PersonaSweep, PsnrFloorsAndGhostConcentration) {
  // Table 8: every variant clears ~55 dB at the 1e-3 VR-rel bound.
  for (const auto& r : results(GetParam())) {
    EXPECT_GT(r.psnr_sz, 55.0);
    EXPECT_GT(r.psnr_wave, 55.0);
    EXPECT_GT(r.psnr_ghost, 55.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Personas, PersonaSweep,
    ::testing::Values(data::Persona::CesmAtm, data::Persona::Hurricane,
                      data::Persona::Nyx),
    [](const ::testing::TestParamInfo<data::Persona>& info) -> std::string {
      switch (info.param) {
        case data::Persona::CesmAtm: return "CesmAtm";
        case data::Persona::Hurricane: return "Hurricane";
        case data::Persona::Nyx: return "Nyx";
      }
      return "Unknown";
    });

TEST(Interop, ContainersAreMutuallyExclusiveAcrossVariants) {
  const Dims dims = Dims::d2(32, 32);
  const auto grid =
      data::field(data::Persona::CesmAtm, "TS", 64).materialize();
  std::vector<float> field(grid.begin(), grid.begin() + dims.count());
  const auto c_sz = sz::compress(field, dims, sz::Config{});
  const auto c_ghost = ghost::compress(field, dims, sz::Config{});
  const auto c_wave = wave::compress(field, dims, wave::default_config());
  EXPECT_THROW(sz::decompress(c_ghost.bytes), Error);
  EXPECT_THROW(ghost::decompress(c_wave.bytes), Error);
  EXPECT_THROW(wave::decompress(c_sz.bytes), Error);
  // inspect() reads any of them without decoding.
  EXPECT_EQ(sz::inspect(c_sz.bytes).variant, sz::Variant::Sz14);
  EXPECT_EQ(sz::inspect(c_ghost.bytes).variant, sz::Variant::GhostSz);
  EXPECT_EQ(sz::inspect(c_wave.bytes).variant, sz::Variant::WaveSz);
}

TEST(Interop, WaveAndSzAgreeWithinTwiceTheBound) {
  // Two independent error-bounded paths may differ by at most 2*eb.
  const auto f = data::field(data::Persona::Hurricane, "Uf48", 25);
  const auto grid = f.materialize();
  sz::Config cfg;
  const auto a = sz::decompress(sz::compress(grid, f.dims, cfg).bytes);
  const auto c = wave::compress(grid, f.dims, wave::default_config());
  const auto b = wave::decompress(c.bytes);
  const double tol =
      cfg.error_bound * metrics::value_range(grid).span() +
      c.header.eb_absolute;
  EXPECT_TRUE(metrics::within_bound(a, b, tol));
}

/// The absolute bound each codec writes for `values` under `cfg`: SZ-1.4,
/// waveSZ and SZx, and GhostSZ for float32.
template <typename T>
std::map<std::string, double> codec_bounds(const std::vector<T>& values,
                                           const Dims& dims,
                                           const sz::Config& cfg) {
  sz::Config szx = cfg;
  szx.codec = sz::Codec::Szx;
  std::map<std::string, double> out{
      {"sz", sz::compress(std::span<const T>(values), dims, cfg)
                 .header.eb_absolute},
      {"wave", wave::compress(std::span<const T>(values), dims, cfg)
                   .header.eb_absolute},
      {"szx", sz::compress(std::span<const T>(values), dims, szx)
                  .header.eb_absolute},
  };
  if constexpr (std::is_same_v<T, float>) {
    out["ghost"] = ghost::compress(values, dims, cfg).header.eb_absolute;
  }
  return out;
}

TEST(FieldBound, EveryCodecWritesTheSameBound) {
  data::FieldRecipe recipe;
  recipe.seed = 31;
  const Dims dims = Dims::d2(48, 64);
  const auto f32 = data::generate(recipe, dims);
  const std::vector<double> f64(f32.begin(), f32.end());
  for (const auto mode :
       {sz::EbMode::ValueRangeRelative, sz::EbMode::Absolute}) {
    for (const auto base : {sz::EbBase::Ten, sz::EbBase::Two}) {
      sz::Config cfg;
      cfg.mode = mode;
      cfg.base = base;
      cfg.error_bound = mode == sz::EbMode::Absolute ? 2e-3 : 1e-3;
      const auto b32 = codec_bounds(f32, dims, cfg);
      const auto b64 = codec_bounds(f64, dims, cfg);
      const double want = b32.at("sz");
      EXPECT_GT(want, 0.0);
      for (const auto* bounds : {&b32, &b64}) {
        for (const auto& [codec, bound] : *bounds) {
          EXPECT_EQ(bound, want)
              << codec << (bounds == &b64 ? " f64" : " f32") << " mode "
              << static_cast<int>(mode) << " base " << static_cast<int>(base);
        }
      }
    }
  }
}

TEST(FieldBound, EveryCodecRejectsAFieldThatMissesItsDims) {
  const Dims dims = Dims::d2(16, 20);
  const std::vector<float> f32(dims.count() - 1, 1.5f);
  const std::vector<double> f64(dims.count() - 1, 1.5);
  for (const auto mode :
       {sz::EbMode::ValueRangeRelative, sz::EbMode::Absolute}) {
    sz::Config cfg;
    cfg.mode = mode;
    sz::Config szx = cfg;
    szx.codec = sz::Codec::Szx;
    for (const std::size_t n : {std::size_t{0}, f32.size()}) {
      const std::span<const float> s32(f32.data(), n);
      const std::span<const double> s64(f64.data(), n);
      EXPECT_THROW(sz::compress(s32, dims, cfg), Error) << n;
      EXPECT_THROW(sz::compress(s64, dims, cfg), Error) << n;
      EXPECT_THROW(wave::compress(s32, dims, cfg), Error) << n;
      EXPECT_THROW(wave::compress(s64, dims, cfg), Error) << n;
      EXPECT_THROW(sz::compress(s32, dims, szx), Error) << n;
      EXPECT_THROW(sz::compress(s64, dims, szx), Error) << n;
      EXPECT_THROW(ghost::compress(s32, dims, cfg), Error) << n;
    }
  }
}

TEST(EndToEnd, ThroughputModelAgreesWithCompressionRatioStory) {
  // The modeled FPGA designs and the real compression paths must tell one
  // coherent story: waveSZ is both faster (model) and denser (measured)
  // than GhostSZ.
  const auto f = data::field(data::Persona::CesmAtm, "TS",
                             scale_for(data::Persona::CesmAtm));
  const auto grid = f.materialize();
  const auto wave_c = wave::compress(grid, f.dims, wave::default_config());
  const auto ghost_c = ghost::compress(grid, f.dims, sz::Config{});
  EXPECT_LT(wave_c.bytes.size(), ghost_c.bytes.size());

  const auto wave_t =
      fpga::wave_throughput(data::persona_dims(data::Persona::CesmAtm),
                            fpga::kWaveSzLanes);
  const auto ghost_t =
      fpga::ghost_throughput(data::persona_dims(data::Persona::CesmAtm));
  EXPECT_GT(wave_t.effective_mbps, ghost_t.effective_mbps * 3.0);
}

TEST(EndToEnd, HstarContainersAreTheSameAtEveryBudget) {
  // H* sections are chunked at every budget, and each chunk's probe reads
  // only that chunk and the window before it: H*G* v2 containers are the
  // same at budgets 1, 2 and 4, and v1 containers at 2 and 4.
  data::FieldRecipe recipe;
  recipe.seed = 29;
  const Dims dims = Dims::d2(512, 512);
  const auto field = data::generate(recipe, dims);
  for (const bool wave_codec : {false, true}) {
    for (const bool v2 : {false, true}) {
      sz::Config cfg = wave_codec ? wave::default_config() : sz::Config{};
      cfg.huffman = true;
      cfg.chunk_index = v2;
      cfg.deflate_chunk_bytes = 16384;
      cfg.index_chunk_symbols = 8192;
      const auto at = [&](int budget) {
        cfg.codec_threads = budget;
        return wave_codec ? wave::compress(field, dims, cfg)
                          : sz::compress(field, dims, cfg);
      };
      const std::string what = std::string(wave_codec ? "wave" : "sz") +
                               (v2 ? " v2" : " v1");
      const auto want = at(v2 ? 1 : 2);
      // Several chunks longer than the probe.
      EXPECT_GT(want.code_blob_bytes, 2u * 16384u) << what;
      for (const int budget : {2, 4}) {
        EXPECT_EQ(at(budget).bytes, want.bytes)
            << what << " budget " << budget;
      }
      EXPECT_EQ(wave_codec ? wave::decompress(want.bytes)
                           : sz::decompress(want.bytes),
                wave_codec ? wave::decompress(at(1).bytes)
                           : sz::decompress(at(1).bytes))
          << what;
    }
  }
}

// ---------------------------------------------------------- golden bytes

/// A small smooth field with a spike every 61 points. At the pins' absolute
/// bound no quantization bin reaches a spike or the points predicted from
/// it, so every codec sends some interior points down its unpredictable
/// path and the pins fix that stream's order as well as the codes.
std::vector<float> spiky_field(const Dims& dims, std::uint64_t seed) {
  data::FieldRecipe recipe;
  recipe.seed = seed;
  auto f = data::generate(recipe, dims);
  for (std::size_t i = 5; i < f.size(); i += 61) f[i] += 4.0e4f;
  return f;
}

sz::Config pin_config(sz::Config cfg, bool v2, bool huffman) {
  cfg.mode = sz::EbMode::Absolute;
  cfg.error_bound = 1e-3;
  cfg.huffman = huffman;
  cfg.chunk_index = v2;
  cfg.index_chunk_symbols = 512;  // several index chunks per v2 container
  return cfg;
}

/// A pinned container: its label and the dims it was compressed from.
struct PinContainer {
  std::string name;
  Dims dims;
  std::vector<std::uint8_t> bytes;
};

/// The containers of GoldenBytes.WholeContainers, in pin order.
std::vector<PinContainer> pin_containers() {
  const Dims d2 = Dims::d2(40, 56);
  const Dims tall = Dims::d2(75, 23);
  const Dims d3 = Dims::d3(6, 20, 24);
  const auto f2 = spiky_field(d2, 101);
  const auto ft = spiky_field(tall, 102);
  const auto f3 = spiky_field(d3, 103);
  const std::vector<double> w2(f2.begin(), f2.end());
  const std::vector<double> wt(ft.begin(), ft.end());
  const std::vector<double> w3(f3.begin(), f3.end());

  std::vector<PinContainer> got;
  const auto add = [&](std::string name, const Dims& dims,
                       std::vector<std::uint8_t> bytes) {
    got.push_back({std::move(name), dims, std::move(bytes)});
  };
  for (const bool v2 : {false, true}) {
    for (const bool huffman : {false, true}) {
      const std::string tag = std::string(v2 ? "v2" : "v1") +
                              (huffman ? " H*G*" : " G*");
      const auto sc = pin_config(sz::Config{}, v2, huffman);
      const auto wc = pin_config(wave::default_config(), v2, huffman);
      const auto flat = wave::LayoutMode::Flatten2D;
      const auto vol = wave::LayoutMode::True3D;
      add("sz f32 " + tag, d2, sz::compress(f2, d2, sc).bytes);
      add("sz f64 " + tag, d2,
          sz::compress(std::span<const double>(w2), d2, sc).bytes);
      add("wave Flatten2D f32 " + tag, d2,
          wave::compress(f2, d2, wc, flat).bytes);
      add("wave Flatten2D f64 " + tag, d2,
          wave::compress(std::span<const double>(w2), d2, wc, flat).bytes);
      add("wave tall f32 " + tag, tall,
          wave::compress(ft, tall, wc, flat).bytes);
      add("wave tall f64 " + tag, tall,
          wave::compress(std::span<const double>(wt), tall, wc, flat).bytes);
      add("wave Flatten2D 3D f32 " + tag, d3,
          wave::compress(f3, d3, wc, flat).bytes);
      add("wave True3D f32 " + tag, d3,
          wave::compress(f3, d3, wc, vol).bytes);
      add("wave True3D f64 " + tag, d3,
          wave::compress(std::span<const double>(w3), d3, wc, vol).bytes);
    }
  }
  const auto gc = pin_config(sz::Config{}, false, false);
  add("ghost f32 G*", d2, ghost::compress(f2, d2, gc).bytes);
  {
    // 40x56 raw u16 codes are 4,480 bytes: two DEFLATE chunks of 4 KiB,
    // deflated on four threads.
    auto cc = gc;
    cc.codec_threads = 4;
    cc.deflate_chunk_bytes = 4096;
    add("ghost f32 G* chunked", d2, ghost::compress(f2, d2, cc).bytes);
    add("sz f32 v1 G* chunked", d2, sz::compress(f2, d2, cc).bytes);
  }
  const auto xc = pin_config(sz::Config::ultrafast(), false, false);
  add("szx f32", d2, sz::compress(f2, d2, xc).bytes);
  add("szx f64", d2,
      sz::compress(std::span<const double>(w2), d2, xc).bytes);
  {
    // The perfbench NYX deployment in miniature: G* wave chunks of two
    // planes through the staged pipeline at depth 2.
    auto cfg = pin_config(wave::default_config(), true, false);
    cfg.pipeline_depth = 2;
    wave::StreamCompressor stream(d3, cfg, 2);
    stream.feed(std::span<const float>(f3));
    add("stream archive", d3, stream.finish());
  }

  return got;
}

TEST(GoldenBytes, WholeContainers) {
  // Size and CRC-32 of whole containers, recorded before the wave encoder
  // became a column walk (the two chunked pins before GhostSZ moved to
  // per-section gzip; the SZ-1.4 and waveSZ G* pins when their code
  // sections began to be matched in whole codes); a kernel rewrite must
  // keep every byte.
  const auto got = pin_containers();
  // Interior spikes reach the verbatim stream, not only the borders.
  EXPECT_GT(sz::inspect(got[2].bytes).unpredictable_count,
            got[2].dims[0] + got[2].dims[1] - 1);

  const std::vector<std::pair<std::string, golden::GoldenPin>> pins = {
      {"sz f32 v1 G*", {3660, 0x0d3db0ecu}},
      {"sz f64 v1 G*", {3722, 0xddf299c4u}},
      {"wave Flatten2D f32 v1 G*", {4075, 0xc4e5f53du}},
      {"wave Flatten2D f64 v1 G*", {4287, 0x2b661f52u}},
      {"wave tall f32 v1 G*", {3403, 0x43fc7494u}},
      {"wave tall f64 v1 G*", {3609, 0x0d8807a5u}},
      {"wave Flatten2D 3D f32 v1 G*", {6537, 0x77b30cbdu}},
      {"wave True3D f32 v1 G*", {6259, 0xb1599a27u}},
      {"wave True3D f64 v1 G*", {6792, 0xd2b27269u}},
      {"sz f32 v1 H*G*", {3853, 0x5551ecd3u}},
      {"sz f64 v1 H*G*", {3915, 0x9a19e433u}},
      {"wave Flatten2D f32 v1 H*G*", {4170, 0x4b926417u}},
      {"wave Flatten2D f64 v1 H*G*", {4382, 0x45d22230u}},
      {"wave tall f32 v1 H*G*", {4178, 0xbe035046u}},
      {"wave tall f64 v1 H*G*", {4384, 0x8b5e6c4au}},
      {"wave Flatten2D 3D f32 v1 H*G*", {7783, 0x10f6ccb5u}},
      {"wave True3D f32 v1 H*G*", {7323, 0x7c37ac91u}},
      {"wave True3D f64 v1 H*G*", {7862, 0x49245cc3u}},
      {"sz f32 v2 G*", {3875, 0x621034e1u}},
      {"sz f64 v2 G*", {3937, 0xc1ab8e2du}},
      {"wave Flatten2D f32 v2 G*", {4297, 0xa02ef862u}},
      {"wave Flatten2D f64 v2 G*", {4509, 0x01622386u}},
      {"wave tall f32 v2 G*", {3535, 0x34a5a2f3u}},
      {"wave tall f64 v2 G*", {3741, 0x62b70136u}},
      {"wave Flatten2D 3D f32 v2 G*", {6800, 0x40547883u}},
      {"wave True3D f32 v2 G*", {6523, 0x843c9838u}},
      {"wave True3D f64 v2 G*", {7105, 0xac240ab8u}},
      {"sz f32 v2 H*G*", {4013, 0xc0e8a26du}},
      {"sz f64 v2 H*G*", {4075, 0xc02595a8u}},
      {"wave Flatten2D f32 v2 H*G*", {4330, 0x86c4c0d1u}},
      {"wave Flatten2D f64 v2 H*G*", {4542, 0x2d963935u}},
      {"wave tall f32 v2 H*G*", {4310, 0x70a323f1u}},
      {"wave tall f64 v2 H*G*", {4516, 0xa996ca9fu}},
      {"wave Flatten2D 3D f32 v2 H*G*", {7844, 0x54accc52u}},
      {"wave True3D f32 v2 H*G*", {7423, 0xe453ce70u}},
      {"wave True3D f64 v2 H*G*", {8003, 0x60218911u}},
      {"ghost f32 G*", {4135, 0xfb1f6ba4u}},
      {"ghost f32 G* chunked", {4190, 0xfc87b547u}},
      {"sz f32 v1 G* chunked", {3715, 0xcbabd9a4u}},
      {"szx f32", {7174, 0x2b91cdc3u}},
      {"szx f64", {7174, 0x1fb6ad63u}},
      {"stream archive", {9459, 0x2749710bu}}};
  ASSERT_EQ(got.size(), pins.size());
  for (std::size_t i = 0; i < pins.size(); ++i) {
    EXPECT_EQ(got[i].name, pins[i].first);
    golden::expect_pin(got[i].bytes, pins[i].second, pins[i].first);
  }
}

using golden::value_bytes;

/// Full decode of a pinned container at `opts`, as value bytes.
std::vector<std::uint8_t> full_decode(const PinContainer& c,
                                      const sz::DecodeOptions& opts) {
  if (c.name == "stream archive") {
    return value_bytes(wave::stream_decompress(c.bytes, opts));
  }
  const sz::ContainerHeader h = sz::inspect(c.bytes);
  const bool f64 = h.dtype == 1;
  switch (h.variant) {
    case sz::Variant::GhostSz:
      return value_bytes(ghost::decompress(c.bytes));
    case sz::Variant::WaveSz:
      return f64 ? value_bytes(wave::decompress64(c.bytes, opts))
                 : value_bytes(wave::decompress(c.bytes, opts));
    default:
      return f64 ? value_bytes(sz::decompress64(c.bytes, opts))
                 : value_bytes(sz::decompress(c.bytes, opts));
  }
}

/// Region read of a pinned SZ-1.4 or waveSZ container: the region's value
/// bytes and the container bytes the read consumed.
std::pair<std::vector<std::uint8_t>, std::size_t> region_read(
    const PinContainer& c, const sz::Region& rg,
    const sz::DecodeOptions& opts) {
  const sz::ContainerHeader h = sz::inspect(c.bytes);
  const bool wave = h.variant == sz::Variant::WaveSz;
  if (h.dtype == 1) {
    const auto r = wave ? wave::decompress_region64(c.bytes, rg, opts)
                        : sz::decompress_region64(c.bytes, rg, opts);
    return {value_bytes(r.data), r.compressed_bytes_read};
  }
  const auto r = wave ? wave::decompress_region(c.bytes, rg, opts)
                      : sz::decompress_region(c.bytes, rg, opts);
  return {value_bytes(r.data), r.compressed_bytes_read};
}

/// A corner prefix and an interior slab of `dims`: the first quarter of
/// every axis, and the outer-axis slab [d0/2, d0 - 1) cut to the middle
/// half of the other axes. Axes beyond the rank stay {0, 1}.
std::array<sz::Region, 2> pin_regions(const Dims& dims) {
  sz::Region corner, slab;
  for (std::size_t i = 0; i < 3; ++i) {
    const std::size_t n = dims.extent[i];
    corner.hi[i] = std::max<std::size_t>(1, n / 4);
    slab.lo[i] = n / 4;
    slab.hi[i] = std::max(slab.lo[i] + 1, 3 * n / 4);
  }
  slab.lo[0] = dims[0] / 2;
  slab.hi[0] = std::max(slab.lo[0] + 1, dims[0] - 1);
  return {corner, slab};
}

/// Decode-side pins of one container: the full decode, and for v2
/// containers the consumed bytes and values of both pin_regions().
struct DecodePin {
  std::string name;
  golden::GoldenPin full;
  std::size_t corner_read = 0;
  std::uint32_t corner_crc = 0;
  std::size_t slab_read = 0;
  std::uint32_t slab_crc = 0;
};

TEST(GoldenBytes, WholeContainerDecodes) {
  // CRC-32 of the value bytes each pinned container decodes to, serially
  // and at a budget of two, plus the two region reads of every v2
  // container: the region values and compressed_bytes_read, the quantity
  // a region read exists to shrink. Recorded before the section back end
  // moved into sz/sections.cpp.
  const auto got = pin_containers();
  const std::vector<DecodePin> pins = {
      {"sz f32 v1 G*", {8960, 0x18ff1935u}},
      {"sz f64 v1 G*", {17920, 0x26e4c806u}},
      {"wave Flatten2D f32 v1 G*", {8960, 0x6c793570u}},
      {"wave Flatten2D f64 v1 G*", {17920, 0xe15fc2d8u}},
      {"wave tall f32 v1 G*", {6900, 0x748ce6e9u}},
      {"wave tall f64 v1 G*", {13800, 0xca043ec4u}},
      {"wave Flatten2D 3D f32 v1 G*", {11520, 0x91efa797u}},
      {"wave True3D f32 v1 G*", {11520, 0xc493dae6u}},
      {"wave True3D f64 v1 G*", {23040, 0xfe6eba63u}},
      {"sz f32 v1 H*G*", {8960, 0x18ff1935u}},
      {"sz f64 v1 H*G*", {17920, 0x26e4c806u}},
      {"wave Flatten2D f32 v1 H*G*", {8960, 0x6c793570u}},
      {"wave Flatten2D f64 v1 H*G*", {17920, 0xe15fc2d8u}},
      {"wave tall f32 v1 H*G*", {6900, 0x748ce6e9u}},
      {"wave tall f64 v1 H*G*", {13800, 0xca043ec4u}},
      {"wave Flatten2D 3D f32 v1 H*G*", {11520, 0x91efa797u}},
      {"wave True3D f32 v1 H*G*", {11520, 0xc493dae6u}},
      {"wave True3D f64 v1 H*G*", {23040, 0xfe6eba63u}},
      {"sz f32 v2 G*", {8960, 0x18ff1935u},
       3560, 0x24f078a1u, 3875, 0x5672b7f2u},
      {"sz f64 v2 G*", {17920, 0x26e4c806u},
       3622, 0xf17deb1cu, 3937, 0xf312dbf0u},
      {"wave Flatten2D f32 v2 G*", {8960, 0x6c793570u},
       3972, 0xb8486805u, 4297, 0xeda6d008u},
      {"wave Flatten2D f64 v2 G*", {17920, 0xe15fc2d8u},
       4184, 0x6f316738u, 4509, 0x94a801f7u},
      {"wave tall f32 v2 G*", {6900, 0x748ce6e9u},
       3535, 0x22d37dc5u, 3535, 0x6ead9435u},
      {"wave tall f64 v2 G*", {13800, 0xca043ec4u},
       3741, 0x6954d4c1u, 3741, 0x57d09f8cu},
      {"wave Flatten2D 3D f32 v2 G*", {11520, 0x91efa797u},
       5572, 0xa891b087u, 6800, 0x67d0a709u},
      {"wave True3D f32 v2 G*", {11520, 0xc493dae6u},
       5305, 0x214f9ea3u, 6523, 0x4c562339u},
      {"wave True3D f64 v2 G*", {23040, 0xfe6eba63u},
       5540, 0x75f5084au, 6759, 0x67d7ddd9u},
      {"sz f32 v2 H*G*", {8960, 0x18ff1935u},
       4013, 0x24f078a1u, 4013, 0x5672b7f2u},
      {"sz f64 v2 H*G*", {17920, 0x26e4c806u},
       4075, 0xf17deb1cu, 4075, 0xf312dbf0u},
      {"wave Flatten2D f32 v2 H*G*", {8960, 0x6c793570u},
       4330, 0xb8486805u, 4330, 0xeda6d008u},
      {"wave Flatten2D f64 v2 H*G*", {17920, 0xe15fc2d8u},
       4542, 0x6f316738u, 4542, 0x94a801f7u},
      {"wave tall f32 v2 H*G*", {6900, 0x748ce6e9u},
       4310, 0x22d37dc5u, 4310, 0x6ead9435u},
      {"wave tall f64 v2 H*G*", {13800, 0xca043ec4u},
       4516, 0x6954d4c1u, 4516, 0x57d09f8cu},
      {"wave Flatten2D 3D f32 v2 H*G*", {11520, 0x91efa797u},
       6091, 0xa891b087u, 7844, 0x67d0a709u},
      {"wave True3D f32 v2 H*G*", {11520, 0xc493dae6u},
       5947, 0x214f9ea3u, 7423, 0x4c562339u},
      {"wave True3D f64 v2 H*G*", {23040, 0xfe6eba63u},
       6181, 0x75f5084au, 7657, 0x67d7ddd9u},
      {"ghost f32 G*", {8960, 0xd65fcc2cu}},
      {"ghost f32 G* chunked", {8960, 0xd65fcc2cu}},
      {"sz f32 v1 G* chunked", {8960, 0x18ff1935u}},
      {"szx f32", {8960, 0x3a5cec53u}},
      {"szx f64", {17920, 0x0b42a93au}},
      {"stream archive", {11520, 0x3ff6f40eu}}};
  ASSERT_EQ(got.size(), pins.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const PinContainer& c = got[i];
    const bool v2 = c.name.find(" v2 ") != std::string::npos;
    DecodePin now{c.name, {}, 0, 0, 0, 0};
    const auto full = full_decode(c, {});
    now.full = {full.size(), Crc32::of(full)};
    EXPECT_EQ(full_decode(c, sz::DecodeOptions{2, 2}), full) << c.name;
    if (v2) {
      const auto regions = pin_regions(c.dims);
      const auto corner = region_read(c, regions[0], {});
      const auto slab = region_read(c, regions[1], {});
      now.corner_read = corner.second;
      now.corner_crc = Crc32::of(corner.first);
      now.slab_read = slab.second;
      now.slab_crc = Crc32::of(slab.first);
      EXPECT_EQ(region_read(c, regions[1], sz::DecodeOptions{2, 2}), slab)
          << c.name;
    }
    const DecodePin& want = pins[i];
    EXPECT_EQ(c.name, want.name);
    EXPECT_EQ(now.full.size, want.full.size) << c.name;
    EXPECT_EQ(now.full.crc, want.full.crc) << c.name;
    EXPECT_EQ(now.corner_read, want.corner_read) << c.name;
    EXPECT_EQ(now.corner_crc, want.corner_crc) << c.name;
    EXPECT_EQ(now.slab_read, want.slab_read) << c.name;
    EXPECT_EQ(now.slab_crc, want.slab_crc) << c.name;
  }
}

TEST(GoldenBytes, ContainersWrittenBeforeCodeMatchingStillDecode) {
  // Until G* code sections were matched in whole codes, a code section was
  // the byte parse of the codes' little-endian image. Re-encoding it that
  // way gives back the containers pinned then, and they decode to the same
  // values as the containers written now.
  const std::map<std::string, golden::GoldenPin> before = {
      {"sz f32 v1 G*", {3725, 0xd1e9b8aeu}},
      {"wave Flatten2D f64 v1 G*", {4362, 0x1fae55deu}},
      {"wave True3D f32 v2 G*", {6587, 0x004d040cu}},
      {"sz f32 v1 G* chunked", {3776, 0x7a5b72e2u}},
  };
  std::size_t checked = 0;
  for (const PinContainer& c : pin_containers()) {
    const auto it = before.find(c.name);
    if (it == before.end()) continue;
    ByteReader r(c.bytes);
    const sz::ContainerHeader h = sz::read_header(r);
    const sz::CodeChunkIndex idx = sz::read_code_index(r, h);
    const auto codes_gz = sz::read_section(r);
    const auto unpred_gz = sz::read_section(r);
    sz::Config cfg = pin_config(sz::Config{}, idx.present(), false);
    if (c.name.find("chunked") != std::string::npos) {
      cfg.codec_threads = 4;
      cfg.deflate_chunk_bytes = 4096;
    }
    ByteWriter w;
    sz::write_header(w, h);
    if (idx.present()) sz::write_code_index(w, idx);
    sz::write_section(
        w, deflate::gzip_compress_parallel(
               deflate::gzip_decompress(codes_gz), h.gzip_level,
               idx.present() ? cfg.indexed_deflate_options()
                             : cfg.deflate_options()));
    sz::write_section(w, unpred_gz);
    const PinContainer old{c.name, c.dims, w.take()};
    golden::expect_pin(old.bytes, it->second, c.name + " as written before");
    EXPECT_EQ(full_decode(old, {}), full_decode(c, {})) << c.name;
    ++checked;
  }
  EXPECT_EQ(checked, before.size());
}

}  // namespace
}  // namespace wavesz
