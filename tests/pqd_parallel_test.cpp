// Bit-exact parity of the wavefront-scheduled (tiled anti-diagonal) PQD
// kernels against the serial raster reference: same codes, same
// reconstructed history, same unpredictable stream, byte-identical
// containers — across ranks, degenerate shapes, both dtypes, both
// predictors and several thread budgets. The wavefront schedule only moves
// the visit order; any observable difference is a bug.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "core/stream.hpp"
#include "core/wavesz.hpp"
#include "sz/compressor.hpp"
#include "sz/config.hpp"
#include "sz/huffman_codec.hpp"
#include "sz/wavefront_pqd.hpp"
#include "telemetry/telemetry.hpp"
#include "util/dims.hpp"

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

template <typename T>
void expect_same_values(const std::vector<T>& a, const std::vector<T>& b) {
  ASSERT_EQ(a.size(), b.size());
  // An empty vector's data() may be null, which memcmp must not be given.
  if (a.empty()) return;
  // memcmp, not ==: bit-exactness is the claim, and it must hold for -0.0
  // and any NaNs too.
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(T)));
}

// ------------------------------------------------- kernel-level parity

template <typename T, typename PqdFn, typename WaveFn>
void kernel_parity(PqdFn serial, WaveFn wavefront, sz::PredictorKind kind) {
  const FloorOverride no_floor(0);
  const sz::LinearQuantizer q(1e-3, 16);
  for (const Dims& dims : parity_shapes()) {
    if (kind == sz::PredictorKind::Lorenzo2Layer && dims.rank > 2) continue;
    const auto data = make_field<T>(dims, 7u + dims.rank);
    const auto ref = serial(data, dims, q, kind);
    for (int nt : kBudgets) {
      const auto par = wavefront(data, dims, q, kind, nt);
      SCOPED_TRACE(dims.str() + " threads=" + std::to_string(nt));
      EXPECT_EQ(ref.codes, par.codes);
      expect_same_values(ref.reconstructed, par.reconstructed);
      expect_same_values(ref.unpredictable, par.unpredictable);
    }
  }
}

TEST(WavefrontParity, PqdKernelF32OneLayer) {
  kernel_parity<float>(
      [](auto d, auto dm, auto& q, auto k) {
        return sz::lorenzo_pqd(d, dm, q, k);
      },
      [](auto d, auto dm, auto& q, auto k, int nt) {
        return sz::lorenzo_pqd_wavefront(d, dm, q, k, nt);
      },
      sz::PredictorKind::Lorenzo1Layer);
}

TEST(WavefrontParity, PqdKernelF32TwoLayer) {
  kernel_parity<float>(
      [](auto d, auto dm, auto& q, auto k) {
        return sz::lorenzo_pqd(d, dm, q, k);
      },
      [](auto d, auto dm, auto& q, auto k, int nt) {
        return sz::lorenzo_pqd_wavefront(d, dm, q, k, nt);
      },
      sz::PredictorKind::Lorenzo2Layer);
}

TEST(WavefrontParity, PqdKernelF64OneLayer) {
  kernel_parity<double>(
      [](auto d, auto dm, auto& q, auto k) {
        return sz::lorenzo_pqd64(d, dm, q, k);
      },
      [](auto d, auto dm, auto& q, auto k, int nt) {
        return sz::lorenzo_pqd64_wavefront(d, dm, q, k, nt);
      },
      sz::PredictorKind::Lorenzo1Layer);
}

TEST(WavefrontParity, PqdKernelF64TwoLayer) {
  kernel_parity<double>(
      [](auto d, auto dm, auto& q, auto k) {
        return sz::lorenzo_pqd64(d, dm, q, k);
      },
      [](auto d, auto dm, auto& q, auto k, int nt) {
        return sz::lorenzo_pqd64_wavefront(d, dm, q, k, nt);
      },
      sz::PredictorKind::Lorenzo2Layer);
}

TEST(WavefrontParity, ReconstructKernelBothDtypes) {
  const FloorOverride no_floor(0);
  const sz::LinearQuantizer q(1e-3, 16);
  for (const Dims& dims : parity_shapes()) {
    const auto f32 = make_field<float>(dims, 11);
    const auto pqd = sz::lorenzo_pqd(f32, dims, q);
    const auto ref = sz::lorenzo_reconstruct(pqd.codes, pqd.unpredictable,
                                             dims, q);
    const auto f64 = make_field<double>(dims, 13);
    const auto pqd64 = sz::lorenzo_pqd64(f64, dims, q);
    const auto ref64 = sz::lorenzo_reconstruct64(
        pqd64.codes, pqd64.unpredictable, dims, q);
    for (int nt : kBudgets) {
      SCOPED_TRACE(dims.str() + " threads=" + std::to_string(nt));
      expect_same_values(ref, sz::lorenzo_reconstruct_wavefront(
                                  pqd.codes, pqd.unpredictable, dims, q,
                                  sz::PredictorKind::Lorenzo1Layer, nt));
      expect_same_values(ref64, sz::lorenzo_reconstruct64_wavefront(
                                    pqd64.codes, pqd64.unpredictable, dims, q,
                                    sz::PredictorKind::Lorenzo1Layer, nt));
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
  {
    const FloorOverride no_floor(0);
    EXPECT_GT(diagonal_batches(data, dims, 4), 0u);
  }
  // A lower floor admits a capped thread count: 2^18 points over a 2^17
  // floor supports two workers, still parallel.
  {
    const FloorOverride low(std::size_t{1} << 17);
    EXPECT_GT(diagonal_batches(data, dims, 4), 0u);
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
