// Bit-exact parity of every SZ-1.4 Lorenzo kernel against the raster-order
// reference loop (sz::detail::lorenzo_*_raster_t): the serial skewed row
// walk and the wavefront-scheduled (tiled anti-diagonal) kernels at several
// thread budgets must give the same codes, the same reconstructed history,
// the same unpredictable stream and byte-identical containers — across
// ranks, degenerate shapes, shapes at the walk's group and ramp edges, tiles
// that cut a group, smooth and rough fields, both dtypes and both
// predictors. Walk and tiles only move the visit order; any observable
// difference is a bug.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/stream.hpp"
#include "core/wavesz.hpp"
#include "sz/compressor.hpp"
#include "sz/config.hpp"
#include "sz/huffman_codec.hpp"
#include "sz/wavefront_pqd.hpp"
#include "telemetry/telemetry.hpp"
#include "util/dims.hpp"
#include "util/error.hpp"
#include "util/fork_join.hpp"

namespace wavesz {
namespace {

const int kBudgets[] = {1, 2, 4, 8};

/// Every parity shape below sits under the small-field work floor
/// (wavefront_min_points_per_thread), which would silently collapse all of
/// them onto the serial path. Disable the floor for a scope so the parallel
/// schedule is actually exercised; WorkFloor tests cover the floor itself.
struct FloorOverride {
  std::size_t saved = sz::wavefront_min_points_per_thread();
  explicit FloorOverride(std::size_t points) {
    sz::set_wavefront_min_points_per_thread(points);
  }
  ~FloorOverride() { sz::set_wavefront_min_points_per_thread(saved); }
};

/// Smooth field with occasional spikes so both the predictable fast path
/// and the unpredictable (code 0) path are exercised at every shape.
template <typename T>
std::vector<T> make_field(const Dims& dims, unsigned seed) {
  std::vector<T> out(dims.count());
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> noise(-0.05, 0.05);
  std::uniform_real_distribution<double> spike(-900.0, 900.0);
  const std::size_t s1 = dims.rank >= 2 ? dims[1] : 1;
  const std::size_t s2 = dims.rank >= 3 ? dims[2] : 1;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::size_t i2 = i % s2;
    const std::size_t i1 = (i / s2) % s1;
    const std::size_t i0 = i / (s1 * s2);
    double v = std::sin(0.11 * static_cast<double>(i0)) +
               std::cos(0.07 * static_cast<double>(i1)) +
               std::sin(0.05 * static_cast<double>(i2)) + noise(rng);
    if (rng() % 97 == 0) v += spike(rng);  // force some unpredictables
    out[i] = static_cast<T>(v);
  }
  return out;
}

/// White noise under an absolute bound of 1e-3: the Lorenzo residual is
/// far beyond the quantizer's range at most points, so most codes are 0.
template <typename T>
std::vector<T> rough_field(const Dims& dims, unsigned seed) {
  std::vector<T> out(dims.count());
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> noise(-1000.0, 1000.0);
  for (auto& v : out) v = static_cast<T>(noise(rng));
  return out;
}

std::vector<Dims> parity_shapes() {
  return {
      Dims::d1(257),         // 1D: always takes the serial path
      Dims::d2(1, 64),       // degenerate row
      Dims::d2(64, 1),       // degenerate column
      Dims::d2(37, 53),      // primes, far from the 64x64 tile
      Dims::d2(129, 130),    // straddles tile boundaries both ways
      Dims::d3(3, 5, 7),     // tiny 3D, single partial tile
      Dims::d3(17, 19, 23),  // prime 3D
  };
}

/// parity_shapes() plus shapes at the edges of the skewed walk (R rows a
/// group, R = kWalkRows; groups start after the border row 0): groups that
/// end exactly, one row short and one row over, rows of fewer than R,
/// exactly R and R + 1 points (no or one steady step between the ramps),
/// single-row and single-point planes, and tiles (64x64 at rank 2, 8x32 by
/// whole rows at rank 3) whose edges cut a group of the serial walk.
std::vector<Dims> kernel_shapes() {
  std::vector<Dims> out = parity_shapes();
  constexpr std::size_t r = sz::detail::kWalkRows;
  for (std::size_t rows : {2 * r, 2 * r + 1, 2 * r + 2, 3 * r - 1, 3 * r}) {
    for (std::size_t cols : {std::size_t{1}, std::size_t{2}, r - 1, r, r + 1,
                             r + 2, 3 * r + 5}) {
      out.push_back(Dims::d2(rows, cols));
      for (std::size_t planes : {1, 2, 3}) {
        out.push_back(Dims::d3(planes, rows, cols));
      }
    }
  }
  for (const Dims& d :
       {Dims::d2(1, 1), Dims::d2(2, 1), Dims::d3(1, 1, 1), Dims::d3(4, 1, 1),
        Dims::d3(3, 1, 7), Dims::d3(3, 7, 1), Dims::d2(150, 131),
        Dims::d3(10, 37, 70)}) {
    out.push_back(d);
  }
  return out;
}

template <typename T>
void expect_same_values(const std::vector<T>& a, const std::vector<T>& b) {
  ASSERT_EQ(a.size(), b.size());
  // An empty vector's data() may be null, which memcmp must not be given.
  if (a.empty()) return;
  // memcmp, not ==: bit-exactness is the claim, and it must hold for -0.0
  // and any NaNs too.
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(T)));
}

template <typename P>
void expect_same_pqd(const P& ref, const P& got) {
  EXPECT_EQ(ref.codes, got.codes);
  expect_same_values(ref.reconstructed, got.reconstructed);
  expect_same_values(ref.unpredictable, got.unpredictable);
}

// ------------------------------------------------- kernel-level parity

/// The public serial PQD and the wavefront PQD at every budget against the
/// raster loop.
template <typename T>
void expect_pqd_matches_raster(const std::vector<T>& data, const Dims& dims,
                               const sz::LinearQuantizer& q,
                               sz::PredictorKind kind) {
  const std::span<const T> span(data);
  const auto ref = sz::detail::lorenzo_pqd_raster_t<T>(span, dims, q, kind);
  {
    SCOPED_TRACE(dims.str() + " serial");
    if constexpr (std::is_same_v<T, float>) {
      expect_same_pqd(ref, sz::lorenzo_pqd(span, dims, q, kind));
    } else {
      expect_same_pqd(ref, sz::lorenzo_pqd64(span, dims, q, kind));
    }
  }
  for (int nt : kBudgets) {
    SCOPED_TRACE(dims.str() + " threads=" + std::to_string(nt));
    if constexpr (std::is_same_v<T, float>) {
      expect_same_pqd(ref, sz::lorenzo_pqd_wavefront(span, dims, q, kind, nt));
    } else {
      expect_same_pqd(ref,
                      sz::lorenzo_pqd64_wavefront(span, dims, q, kind, nt));
    }
  }
}

/// The public serial reconstruct and the wavefront reconstruct at every
/// budget against the raster reconstruct of the raster PQD's codes and
/// decompressor-visible unpredictable values; all must give back the
/// raster PQD's history.
template <typename T>
void expect_reconstruct_matches_raster(const std::vector<T>& data,
                                       const Dims& dims,
                                       const sz::LinearQuantizer& q) {
  const auto pqd =
      sz::detail::lorenzo_pqd_raster_t<T>(std::span<const T>(data), dims, q);
  std::vector<T> unpred = pqd.unpredictable;
  for (auto& v : unpred) {
    v = sz::truncation_roundtrip(v, q.precision());
  }
  const auto ref = sz::detail::lorenzo_reconstruct_raster_t<T>(
      pqd.codes, std::span<const T>(unpred), dims, q);
  expect_same_values(pqd.reconstructed, ref);
  const auto kind = sz::PredictorKind::Lorenzo1Layer;
  {
    SCOPED_TRACE(dims.str() + " serial");
    if constexpr (std::is_same_v<T, float>) {
      expect_same_values(ref, sz::lorenzo_reconstruct(pqd.codes, unpred, dims,
                                                      q, kind));
    } else {
      expect_same_values(ref, sz::lorenzo_reconstruct64(pqd.codes, unpred,
                                                        dims, q, kind));
    }
  }
  for (int nt : kBudgets) {
    SCOPED_TRACE(dims.str() + " threads=" + std::to_string(nt));
    if constexpr (std::is_same_v<T, float>) {
      expect_same_values(ref, sz::lorenzo_reconstruct_wavefront(
                                  pqd.codes, unpred, dims, q, kind, nt));
    } else {
      expect_same_values(ref, sz::lorenzo_reconstruct64_wavefront(
                                  pqd.codes, unpred, dims, q, kind, nt));
    }
  }
}

template <typename T>
void kernel_parity(sz::PredictorKind kind) {
  const FloorOverride no_floor(0);
  const sz::LinearQuantizer q(1e-3, 16);
  for (const Dims& dims : kernel_shapes()) {
    if (kind == sz::PredictorKind::Lorenzo2Layer && dims.rank > 2) continue;
    expect_pqd_matches_raster(make_field<T>(dims, 7u + dims.rank), dims, q,
                              kind);
  }
}

TEST(WavefrontParity, PqdKernelF32OneLayer) {
  kernel_parity<float>(sz::PredictorKind::Lorenzo1Layer);
}

TEST(WavefrontParity, PqdKernelF32TwoLayer) {
  kernel_parity<float>(sz::PredictorKind::Lorenzo2Layer);
}

TEST(WavefrontParity, PqdKernelF64OneLayer) {
  kernel_parity<double>(sz::PredictorKind::Lorenzo1Layer);
}

TEST(WavefrontParity, PqdKernelF64TwoLayer) {
  kernel_parity<double>(sz::PredictorKind::Lorenzo2Layer);
}

TEST(WavefrontParity, ReconstructKernelBothDtypes) {
  const FloorOverride no_floor(0);
  const sz::LinearQuantizer q(1e-3, 16);
  for (const Dims& dims : kernel_shapes()) {
    expect_reconstruct_matches_raster(make_field<float>(dims, 11), dims, q);
    expect_reconstruct_matches_raster(make_field<double>(dims, 13), dims, q);
  }
}

/// The rough field, where more than half the points are code 0: the
/// unpredictable history, its collection after the walk and its placement
/// before the reconstruct carry most of the result.
template <typename T>
void rough_parity() {
  const FloorOverride no_floor(0);
  const sz::LinearQuantizer q(1e-3, 16);
  for (const Dims& dims : {Dims::d2(150, 131), Dims::d2(41, 17),
                           Dims::d3(6, 37, 131), Dims::d3(5, 11, 9)}) {
    const auto data = rough_field<T>(dims, 53);
    const auto pqd = sz::detail::lorenzo_pqd_raster_t<T>(
        std::span<const T>(data), dims, q);
    EXPECT_GT(pqd.unpredictable.size() * 2, data.size()) << dims.str();
    expect_pqd_matches_raster(data, dims, q, sz::PredictorKind::Lorenzo1Layer);
    expect_reconstruct_matches_raster(data, dims, q);
  }
}

TEST(WavefrontParity, RoughFieldF32) { rough_parity<float>(); }
TEST(WavefrontParity, RoughFieldF64) { rough_parity<double>(); }

/// Runs `fn` and expects a wavesz::Error whose message holds `what`.
template <typename Fn>
void expect_error(Fn&& fn, const std::string& what) {
  try {
    fn();
    ADD_FAILURE() << "no error, expected: " << what;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

// A forged container can carry one unpredictable value too few or too
// many for its code-0 points. The walk places every value before it runs,
// the raster loop takes them inline; both must reject either stream.
TEST(WavefrontParity, ForgedUnpredictableCountsRejected) {
  const FloorOverride no_floor(0);
  const sz::LinearQuantizer q(1e-3, 16);
  for (const Dims& dims : {Dims::d1(300), Dims::d2(41, 17),
                           Dims::d3(5, 11, 9)}) {
    const auto data = rough_field<float>(dims, 61);
    const auto pqd = sz::lorenzo_pqd(data, dims, q);
    ASSERT_GT(pqd.unpredictable.size(), 1u);
    const std::vector<float> shorter(pqd.unpredictable.begin(),
                                     pqd.unpredictable.end() - 1);
    std::vector<float> longer = pqd.unpredictable;
    longer.push_back(1.0f);
    for (int nt : kBudgets) {
      SCOPED_TRACE(dims.str() + " threads=" + std::to_string(nt));
      const auto run = [&](const std::vector<float>& unpred) {
        return [&, unpred] {
          (void)sz::lorenzo_reconstruct_wavefront(
              pqd.codes, unpred, dims, q, sz::PredictorKind::Lorenzo1Layer,
              nt);
        };
      };
      expect_error(run(shorter), "unpredictable stream exhausted");
      expect_error(run(longer), "unpredictable stream has trailing values");
    }
  }
}

// ---------------------------------------------- container-level parity

TEST(WavefrontParity, Sz14ContainerByteIdentical) {
  const FloorOverride no_floor(0);
  for (const Dims& dims : parity_shapes()) {
    const auto f32 = make_field<float>(dims, 17);
    const auto f64 = make_field<double>(dims, 19);
    sz::Config cfg;  // pqd_threads = 1: serial reference
    const auto ref = sz::compress(std::span<const float>(f32), dims, cfg);
    const auto ref64 = sz::compress(std::span<const double>(f64), dims, cfg);
    // The serial container decodes to the raster PQD's history.
    const sz::LinearQuantizer q(ref.header.eb_absolute,
                                ref.header.quant_bits);
    const sz::LinearQuantizer q64(ref64.header.eb_absolute,
                                  ref64.header.quant_bits);
    expect_same_values(sz::detail::lorenzo_pqd_raster_t<float>(f32, dims, q)
                           .reconstructed,
                       sz::decompress(ref.bytes));
    expect_same_values(
        sz::detail::lorenzo_pqd_raster_t<double>(f64, dims, q64).reconstructed,
        sz::decompress64(ref64.bytes));
    for (int nt : kBudgets) {
      SCOPED_TRACE(dims.str() + " threads=" + std::to_string(nt));
      sz::Config par = cfg;
      par.pqd_threads = nt;
      EXPECT_EQ(ref.bytes,
                sz::compress(std::span<const float>(f32), dims, par).bytes);
      EXPECT_EQ(ref64.bytes,
                sz::compress(std::span<const double>(f64), dims, par).bytes);
      // Parallel decode of the serial container, and round trips both ways.
      const sz::DecodeOptions opts{1, nt};
      expect_same_values(sz::decompress(ref.bytes),
                         sz::decompress(ref.bytes, opts));
      expect_same_values(sz::decompress64(ref64.bytes),
                         sz::decompress64(ref64.bytes, opts));
    }
  }
}

TEST(WavefrontParity, WaveContainerByteIdentical) {
  const FloorOverride no_floor(0);
  for (const Dims& dims : parity_shapes()) {
    if (dims.rank < 2) continue;  // waveSZ requires 2D+
    const auto f32 = make_field<float>(dims, 23);
    const auto f64 = make_field<double>(dims, 29);
    sz::Config cfg = wave::default_config();
    const auto ref = wave::compress(std::span<const float>(f32), dims, cfg);
    const auto ref64 = wave::compress(std::span<const double>(f64), dims,
                                      cfg);
    for (int nt : kBudgets) {
      SCOPED_TRACE(dims.str() + " threads=" + std::to_string(nt));
      sz::Config par = cfg;
      par.pqd_threads = nt;
      EXPECT_EQ(ref.bytes,
                wave::compress(std::span<const float>(f32), dims, par).bytes);
      EXPECT_EQ(
          ref64.bytes,
          wave::compress(std::span<const double>(f64), dims, par).bytes);
      const sz::DecodeOptions opts{1, nt};
      expect_same_values(wave::decompress(ref.bytes),
                         wave::decompress(ref.bytes, opts));
      expect_same_values(wave::decompress64(ref64.bytes),
                         wave::decompress64(ref64.bytes, opts));
    }
  }
}

TEST(WavefrontParity, True3DAndStreamStayConsistent) {
  const FloorOverride no_floor(0);
  const Dims dims = Dims::d3(9, 33, 41);
  const auto data = make_field<float>(dims, 31);
  sz::Config cfg = wave::default_config();
  const auto ref =
      wave::compress(std::span<const float>(data), dims, cfg,
                     wave::LayoutMode::True3D);
  sz::Config par = cfg;
  par.pqd_threads = 4;
  const auto out =
      wave::compress(std::span<const float>(data), dims, par,
                     wave::LayoutMode::True3D);
  EXPECT_EQ(ref.bytes, out.bytes);

  wave::StreamCompressor serial(dims, cfg, 3);
  wave::StreamCompressor parallel(dims, par, 3);
  serial.feed(std::span<const float>(data));
  parallel.feed(std::span<const float>(data));
  const auto archive = serial.finish();
  EXPECT_EQ(archive, parallel.finish());
  expect_same_values(wave::stream_decompress(archive),
                     wave::stream_decompress(archive, sz::DecodeOptions{1, 4},
                                             nullptr));
}

// -------------------------------------------------- small-field work floor

// The wavefront schedule loses to the serial raster sweep on small fields
// (per-diagonal barrier overhead dominates); the floor caps the thread count
// so those fields take the serial path. PqdDiagonalBatches is only counted
// on the wavefront path, which makes the routing observable.
std::uint64_t diagonal_batches(const std::vector<float>& data,
                               const Dims& dims, int nt) {
  const sz::LinearQuantizer q(1e-3, 16);
  telemetry::Session session;
  (void)sz::lorenzo_pqd_wavefront(data, dims, q,
                                  sz::PredictorKind::Lorenzo1Layer, nt);
  return session.stop().counter(telemetry::Counter::PqdDiagonalBatches);
}

TEST(WorkFloor, SmallFieldsFallBackToSerial) {
  // 512x512 = 2^18 points: exactly one floor's worth of work, so any budget
  // collapses to a single thread and the serial raster path.
  const Dims dims = Dims::d2(512, 512);
  const auto data = make_field<float>(dims, 43);
  EXPECT_EQ(0u, diagonal_batches(data, dims, 4));
  // Without the floor the tiles run wherever a team can have two workers:
  // not on a single CPU, nor in a build without OpenMP.
  {
    const FloorOverride no_floor(0);
    EXPECT_EQ(diagonal_batches(data, dims, 4) > 0,
              util::team_size(4, dims.count()) > 1);
  }
  // A lower floor admits a capped thread count: 2^18 points over a 2^17
  // floor supports two workers, still parallel.
  {
    const FloorOverride low(std::size_t{1} << 17);
    EXPECT_EQ(diagonal_batches(data, dims, 4) > 0,
              util::team_size(4, dims.count(), std::size_t{1} << 17) > 1);
  }
}

TEST(WorkFloor, DefaultAndOverrideRoundTrip) {
  EXPECT_EQ(std::size_t{1} << 18, sz::wavefront_min_points_per_thread());
  {
    const FloorOverride big(std::size_t{1} << 30);
    EXPECT_EQ(std::size_t{1} << 30, sz::wavefront_min_points_per_thread());
  }
  EXPECT_EQ(std::size_t{1} << 18, sz::wavefront_min_points_per_thread());
}

// ----------------------------------------------------- serial stragglers

TEST(WavefrontParity, HuffmanEncodeByteIdenticalAcrossBudgets) {
  std::mt19937 rng(37);
  // Big enough to clear the per-thread minimum so budgets actually split.
  std::vector<std::uint16_t> codes(1u << 18);
  std::geometric_distribution<int> gd(0.2);
  for (auto& c : codes) {
    c = static_cast<std::uint16_t>(32768 + gd(rng) - gd(rng));
  }
  codes[123] = 0;
  const auto ref = sz::huffman_encode(codes);
  for (int nt : kBudgets) {
    EXPECT_EQ(ref, sz::huffman_encode(codes, nt)) << "threads=" << nt;
  }
  EXPECT_EQ(codes, sz::huffman_decode(ref));
  // Degenerate streams keep the format stable too.
  const std::vector<std::uint16_t> empty;
  EXPECT_EQ(sz::huffman_encode(empty), sz::huffman_encode(empty, 8));
  const std::vector<std::uint16_t> one(70000, 5);
  EXPECT_EQ(sz::huffman_encode(one), sz::huffman_encode(one, 8));
  EXPECT_EQ(one, sz::huffman_decode(sz::huffman_encode(one, 8)));
}

TEST(WavefrontParity, ValueRangeMatchesSerialIncludingNaN) {
  std::vector<float> data = make_field<float>(Dims::d2(600, 600), 41);
  for (int nt : kBudgets) {
    EXPECT_EQ(sz::value_range(std::span<const float>(data)),
              sz::value_range(std::span<const float>(data), nt));
  }
  // Interior NaNs are skipped by min/max exactly as in the serial scan...
  data[1000] = std::numeric_limits<float>::quiet_NaN();
  for (int nt : kBudgets) {
    EXPECT_EQ(sz::value_range(std::span<const float>(data)),
              sz::value_range(std::span<const float>(data), nt));
  }
  // ...and a NaN first element poisons the result at every budget.
  data[0] = std::numeric_limits<float>::quiet_NaN();
  for (int nt : kBudgets) {
    EXPECT_TRUE(std::isnan(sz::value_range(std::span<const float>(data), nt)));
  }
}

}  // namespace
}  // namespace wavesz
