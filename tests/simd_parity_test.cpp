// Bit-exact parity of every vectorized kernel in util/simd against its
// scalar implementation, swept across every runtime-dispatchable level the
// host supports. The scalar paths are the oracles (they mirror the serial
// kernels' arithmetic); the SSE2/AVX2 paths must reproduce them bit for bit
// — including NaN/Inf lanes, odd extents and partial vectors — per the
// contract in util/simd.hpp. On an SSE2-only or non-x86 host the sweep
// degrades gracefully to the levels that exist.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/wavesz.hpp"
#include "metrics/stats.hpp"
#include "sz/compressor.hpp"
#include "sz/config.hpp"
#include "sz/pqd_detail.hpp"
#include "sz/predictor.hpp"
#include "sz/quantizer.hpp"
#include "util/checksum.hpp"
#include "util/dims.hpp"
#include "util/simd.hpp"

namespace wavesz {
namespace {

constexpr double kNan64 = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf64 = std::numeric_limits<double>::infinity();

std::vector<simd::Level> sweep_levels() {
  std::vector<simd::Level> out{simd::Level::Scalar};
  if (simd::detected() >= simd::Level::Sse2) {
    out.push_back(simd::Level::Sse2);
  }
  if (simd::detected() >= simd::Level::Avx2) {
    out.push_back(simd::Level::Avx2);
  }
  return out;
}

struct LevelOverride {
  simd::Level saved = simd::active();
  explicit LevelOverride(simd::Level l) { simd::set_level(l); }
  ~LevelOverride() { simd::set_level(saved); }
};

template <typename T>
std::vector<T> noisy_field(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> noise(-0.1, 0.1);
  std::vector<T> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = std::sin(0.07 * static_cast<double>(i)) * 50.0 + noise(rng);
    if (rng() % 41 == 0) v *= 1e4;  // spikes: unpredictable lanes
    out[i] = static_cast<T>(v);
  }
  return out;
}

template <typename T>
void expect_same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  ASSERT_EQ(a.size(), b.size());
  if (a.empty()) return;  // memcmp must not see an empty vector's null data
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(T)));
}

// ----------------------------------------------------------- level controls

TEST(SimdDispatch, LevelControls) {
  EXPECT_LE(simd::active(), simd::detected());
  for (simd::Level l : sweep_levels()) {
    LevelOverride guard(l);
    EXPECT_EQ(l, simd::active());
  }
  // Requests above the detected ISA clamp instead of failing.
  {
    LevelOverride guard(simd::Level::Avx2);
    EXPECT_LE(simd::active(), simd::detected());
  }
  simd::Level parsed = simd::Level::Avx2;
  EXPECT_TRUE(simd::parse_level("scalar", &parsed));
  EXPECT_EQ(simd::Level::Scalar, parsed);
  EXPECT_TRUE(simd::parse_level("sse2", &parsed));
  EXPECT_EQ(simd::Level::Sse2, parsed);
  EXPECT_TRUE(simd::parse_level("avx2", &parsed));
  EXPECT_EQ(simd::Level::Avx2, parsed);
  parsed = simd::Level::Sse2;
  EXPECT_FALSE(simd::parse_level("AVX2", &parsed));
  EXPECT_FALSE(simd::parse_level("", &parsed));
  EXPECT_EQ(simd::Level::Sse2, parsed);  // untouched on failure
  EXPECT_STREQ("scalar", simd::level_name(simd::Level::Scalar));
  EXPECT_STREQ("sse2", simd::level_name(simd::Level::Sse2));
  EXPECT_STREQ("avx2", simd::level_name(simd::Level::Avx2));
}

// ------------------------------------------------------ wave column runs

/// One interior run of a wavefront column as the column walk hands it to
/// the run kernels: point j at cur[j], its W tap at west[j + 1], its N tap
/// at west[j] and its NW tap at nw[j] (west carries the N tap of point 0
/// in front).
template <typename T>
struct ColumnRun {
  std::vector<T> west;
  std::vector<T> nw;
  std::vector<T> cur;
  std::vector<std::uint16_t> codes;

  explicit ColumnRun(std::size_t n)
      : west(n + 1), nw(n), cur(n), codes(n, 0xabcd) {}
  std::size_t size() const { return cur.size(); }
  const T* w() const { return west.data() + 1; }
  double pred(std::size_t j) const {
    return sz::lorenzo2d(nw[j], west[j], west[j + 1]);
  }
};

/// The encoder walk's scalar body (core/wavesz.cpp) over points [from, n):
/// the oracle, and the finisher of whatever the lanes leave.
template <typename T>
void pqd_points(ColumnRun<T>& r, std::size_t from,
                const sz::LinearQuantizer& q) {
  for (std::size_t j = from; j < r.size(); ++j) {
    const auto res = q.quantize<T>(r.pred(j), r.cur[j]);
    r.codes[j] = res.code;
    if (res.code != 0) r.cur[j] = res.reconstructed;
  }
}

/// The decoder walk's scalar body over points [from, to): a code-0 point
/// takes `verbatim`, as the walk takes the next verbatim value.
template <typename T>
void reconstruct_points(ColumnRun<T>& r, std::size_t from, std::size_t to,
                        const sz::LinearQuantizer& q, T verbatim) {
  for (std::size_t j = from; j < to; ++j) {
    r.cur[j] = r.codes[j] == 0 ? verbatim
                               : q.reconstruct<T>(r.pred(j), r.codes[j]);
  }
}

/// Smooth history with small residuals, so most points quantize, and a
/// spike every few points, so code-0 lanes sit inside blocks.
template <typename T>
ColumnRun<T> smooth_run(std::size_t n, double p, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  ColumnRun<T> r(n);
  for (std::size_t i = 0; i <= n; ++i) {
    r.west[i] = static_cast<T>(10.0 * std::sin(0.05 * static_cast<double>(i)));
  }
  for (std::size_t j = 0; j < n; ++j) {
    r.nw[j] = static_cast<T>(r.west[j] + unit(rng) * 0.1);
    double v = r.pred(j) + unit(rng) * 40.0 * p;
    if (rng() % 7 == 0) v += 1e5 * p * 65536.0;  // beyond the capacity
    r.cur[j] = static_cast<T>(v);
  }
  return r;
}

/// Puts the special values of the parity contract into a run: NaN, ±Inf
/// and denormals in the point and in each tap, and diff = ±0 lanes whose
/// taps are signed zeros.
template <typename T>
void add_special_lanes(ColumnRun<T>& r) {
  using L = std::numeric_limits<T>;
  const T specials[] = {L::quiet_NaN(), L::infinity(), -L::infinity(),
                        L::denorm_min(), -L::denorm_min() * 3,
                        L::min() / 2};
  const std::size_t n = r.size();
  for (std::size_t k = 0; k < std::size(specials) && n > 0; ++k) {
    r.cur[(3 * k) % n] = specials[k];
    r.west[(5 * k + 1) % (n + 1)] = specials[k];
    r.nw[(7 * k + 2) % n] = specials[(k + 1) % std::size(specials)];
  }
  // diff = +0 and -0: the point equals its zero prediction.
  if (n >= 8) {
    for (std::size_t j : {std::size_t{6}, std::size_t{7}}) {
      r.west[j] = static_cast<T>(-0.0);
      r.west[j + 1] = static_cast<T>(j == 6 ? -0.0 : 0.0);
      r.nw[j] = static_cast<T>(0.0);
      r.cur[j] = static_cast<T>(j == 6 ? 0.0 : -0.0);
    }
  }
}

/// wave_pqd_run plus the scalar finisher against the scalar body alone:
/// codes and writeback bit for bit at every level, and the kernel takes
/// exactly the whole blocks at Level::Avx2 and nothing below it.
template <typename T>
void expect_pqd_run_parity(const ColumnRun<T>& input,
                           const sz::LinearQuantizer& q) {
  ColumnRun<T> ref = input;
  pqd_points(ref, 0, q);
  const std::size_t n = input.size();
  for (simd::Level l : sweep_levels()) {
    SCOPED_TRACE(std::string(simd::level_name(l)) + " n=" + std::to_string(n));
    ColumnRun<T> got = input;
    const std::size_t done = simd::wave_pqd_run(
        l, got.cur.data(), got.codes.data(), got.w(), got.nw.data(), n,
        sz::detail::quant_spec(q));
    EXPECT_EQ(done, l == simd::Level::Avx2 ? n - n % simd::kWaveLanes : 0);
    pqd_points(got, done, q);
    EXPECT_EQ(ref.codes, got.codes);
    expect_same_bits(ref.cur, got.cur);
  }
}

template <typename T>
void wave_pqd_run_cases() {
  const sz::LinearQuantizer q(1e-3, 16);
  std::vector<std::size_t> lengths{1000};
  for (std::size_t n = 0; n <= 9; ++n) lengths.push_back(n);
  for (std::size_t n : lengths) {
    auto run = smooth_run<T>(n, q.precision(), 211 + static_cast<unsigned>(n));
    expect_pqd_run_parity(run, q);
    add_special_lanes(run);
    expect_pqd_run_parity(run, q);
  }

  // scaled at and just below capacity - 1 around a zero prediction, with a
  // power-of-two bound so that scaled is exact: codes 0, 1, capacity - 1.
  {
    const sz::LinearQuantizer q2(1.0 / 1024.0, 16);
    const double edge = static_cast<double>(q2.capacity() - 1);
    const double at[] = {edge, -edge, edge - 1.0, -(edge - 1.0),
                         std::nextafter(edge, 0.0), 0.5, -0.5, 1.0};
    ColumnRun<T> r(std::size(at));
    std::fill(r.west.begin(), r.west.end(), T{0});
    std::fill(r.nw.begin(), r.nw.end(), T{0});
    for (std::size_t j = 0; j < std::size(at); ++j) {
      r.cur[j] = static_cast<T>(at[j] * q2.precision());
    }
    ColumnRun<T> ref = r;
    pqd_points(ref, 0, q2);
    EXPECT_EQ(0, ref.codes[0]);
    EXPECT_EQ(0, ref.codes[1]);
    EXPECT_EQ(q2.capacity() - 1, ref.codes[2]);
    EXPECT_EQ(1, ref.codes[3]);
    expect_pqd_run_parity(r, q2);
  }

  // The overbound check at the cell edge: the residual lands on a cell
  // boundary (2m + 1) * p, and for float the rounding of the rebuilt value
  // (ulp 0.0625 at 1e6, above p) rejects most points outright.
  {
    const sz::LinearQuantizer q3(0.05, 16);
    ColumnRun<T> r(64);
    for (std::size_t i = 0; i <= r.size(); ++i) r.west[i] = static_cast<T>(1e6);
    for (std::size_t j = 0; j < r.size(); ++j) {
      r.nw[j] = static_cast<T>(1e6);
      const double m = static_cast<double>(j % 9);
      r.cur[j] = static_cast<T>(1e6 + (2.0 * m + 1.0) * q3.precision() *
                                          (j % 2 == 0 ? 1.0 : -1.0));
    }
    ColumnRun<T> ref = r;
    pqd_points(ref, 0, q3);
    std::size_t overbound = 0;
    for (std::size_t j = 0; j < r.size(); ++j) {
      const double scaled =
          std::fabs(static_cast<double>(r.cur[j]) - ref.pred(j)) *
          q3.inv_precision();
      if (ref.codes[j] == 0 && scaled < q3.capacity() - 1.0) ++overbound;
    }
    if constexpr (std::is_same_v<T, float>) {
      EXPECT_GT(overbound, 0u);
    }
    expect_pqd_run_parity(r, q3);
  }
}

TEST(SimdParity, WavePqdRunF32) { wave_pqd_run_cases<float>(); }
TEST(SimdParity, WavePqdRunF64) { wave_pqd_run_cases<double>(); }

/// wave_reconstruct_run as the decoder walk drives it (kernel, then the
/// scalar body up to the end of the block that stopped it, repeat) against
/// the scalar body alone, at every level. At Level::Avx2 the first call
/// must stop at the first block holding a code-0 lane or a NaN result.
template <typename T>
void expect_reconstruct_run_parity(const ColumnRun<T>& input,
                                   const sz::LinearQuantizer& q) {
  const T verbatim = static_cast<T>(-7.25);
  ColumnRun<T> ref = input;
  const std::size_t n = input.size();
  reconstruct_points(ref, 0, n, q, verbatim);
  std::size_t first_stop = n - n % simd::kWaveLanes;
  for (std::size_t j = 0; j < first_stop; ++j) {
    const double rec =
        input.pred(j) +
        2.0 * (static_cast<double>(input.codes[j]) - q.radius()) *
            q.precision();
    if (input.codes[j] == 0 || std::isnan(rec)) {
      first_stop = j - j % simd::kWaveLanes;
    }
  }
  const simd::QuantSpec spec = sz::detail::quant_spec(q);
  for (simd::Level l : sweep_levels()) {
    SCOPED_TRACE(std::string(simd::level_name(l)) + " n=" + std::to_string(n));
    ColumnRun<T> got = input;
    const auto lanes = [&](std::size_t k) {
      return simd::wave_reconstruct_run(l, got.codes.data() + k,
                                        got.cur.data() + k, got.w() + k,
                                        got.nw.data() + k, n - k, spec);
    };
    EXPECT_EQ(lanes(0), l == simd::Level::Avx2 ? first_stop : 0);
    for (std::size_t k = 0; k < n;) {
      k += lanes(k);
      const std::size_t stop = std::min(n, k + simd::kWaveLanes);
      reconstruct_points(got, k, stop, q, verbatim);
      k = stop;
    }
    expect_same_bits(ref.cur, got.cur);
  }
}

template <typename T>
ColumnRun<T> coded_run(std::size_t n, const sz::LinearQuantizer& q,
                       unsigned seed) {
  auto r = smooth_run<T>(n, q.precision(), seed);
  std::mt19937 rng(seed);
  for (std::size_t j = 0; j < n; ++j) {
    r.codes[j] = static_cast<std::uint16_t>(q.radius() + rng() % 4001 - 2000);
    r.cur[j] = static_cast<T>(1234.5);  // overwritten by every point
  }
  r.codes[n - 1 - (n - 1) % 2] = 1;  // the extreme codes decode too
  r.codes[(n - 1) / 2] = static_cast<std::uint16_t>(q.capacity() - 1);
  return r;
}

template <typename T>
void wave_reconstruct_run_cases() {
  const sz::LinearQuantizer q(1e-3, 16);
  std::vector<std::size_t> lengths{1000};
  for (std::size_t n = 1; n <= 9; ++n) lengths.push_back(n);
  expect_reconstruct_run_parity(ColumnRun<T>(0), q);
  for (std::size_t n : lengths) {
    auto run = coded_run<T>(n, q, 307 + static_cast<unsigned>(n));
    expect_reconstruct_run_parity(run, q);
    for (std::size_t j = 0; j < n; j += 11) run.codes[j] = 0;
    expect_reconstruct_run_parity(run, q);
  }
  // A code-0 lane at each position of the second block.
  for (std::size_t pos = 0; pos < simd::kWaveLanes; ++pos) {
    auto run = coded_run<T>(12, q, 401);
    run.codes[simd::kWaveLanes + pos] = 0;
    expect_reconstruct_run_parity(run, q);
  }
  // NaN, ±Inf and denormal history under nonzero codes (only a forged
  // container decodes these): Inf results stay in the lanes, NaN results
  // go to the scalar body, whose operand order fixes the payload.
  for (std::size_t n : {std::size_t{9}, std::size_t{1000}}) {
    auto run = coded_run<T>(n, q, 503 + static_cast<unsigned>(n));
    add_special_lanes(run);
    // Two NaNs with different payloads meeting in one prediction.
    run.west[1] = std::numeric_limits<T>::quiet_NaN();
    run.west[2] = -std::numeric_limits<T>::quiet_NaN();
    expect_reconstruct_run_parity(run, q);
  }
}

TEST(SimdParity, WaveReconstructRunF32) { wave_reconstruct_run_cases<float>(); }
TEST(SimdParity, WaveReconstructRunF64) {
  wave_reconstruct_run_cases<double>();
}

// --------------------------------------------------------------- minmax

template <typename T>
void minmax_parity() {
  for (std::size_t n :
       {std::size_t{1}, std::size_t{7}, std::size_t{1000}, std::size_t{1003}}) {
    auto data = noisy_field<T>(n, 127);
    if (n >= 7) {
      data[3] = static_cast<T>(kNan64);   // interior NaN: skipped
      data[5] = static_cast<T>(kInf64);   // +inf must become the max
      data[6] = static_cast<T>(-kInf64);  // -inf the min
    }
    double ref_lo = static_cast<double>(data[0]);
    double ref_hi = ref_lo;
    {
      LevelOverride guard(simd::Level::Scalar);
      simd::minmax(data.data(), n, &ref_lo, &ref_hi);
    }
    for (simd::Level l : sweep_levels()) {
      SCOPED_TRACE(std::string(simd::level_name(l)) +
                   " n=" + std::to_string(n));
      double lo = static_cast<double>(data[0]);
      double hi = lo;
      LevelOverride guard(l);
      simd::minmax(data.data(), n, &lo, &hi);
      EXPECT_EQ(ref_lo, lo);
      EXPECT_EQ(ref_hi, hi);
    }
    // A NaN seed poisons the fold at every level (serial semantics).
    for (simd::Level l : sweep_levels()) {
      double lo = kNan64, hi = kNan64;
      LevelOverride guard(l);
      simd::minmax(data.data(), n, &lo, &hi);
      EXPECT_TRUE(std::isnan(lo)) << simd::level_name(l);
      EXPECT_TRUE(std::isnan(hi)) << simd::level_name(l);
    }
  }
}

TEST(SimdParity, MinmaxF32) { minmax_parity<float>(); }
TEST(SimdParity, MinmaxF64) { minmax_parity<double>(); }

// ------------------------------------------------------------ bound_scan

TEST(SimdParity, BoundScanAllLevels) {
  const double thr = 0.5;
  for (std::size_t n : {std::size_t{3}, std::size_t{999}}) {
    auto orig = noisy_field<float>(n, 131);
    std::vector<float> dec = orig;
    auto sweep = [&](const char* what) {
      std::size_t ref = 0;
      {
        LevelOverride guard(simd::Level::Scalar);
        ref = simd::bound_scan(orig.data(), dec.data(), n, thr);
      }
      for (simd::Level l : sweep_levels()) {
        SCOPED_TRACE(std::string(simd::level_name(l)) + " " + what +
                     " n=" + std::to_string(n));
        LevelOverride guard(l);
        EXPECT_EQ(ref, simd::bound_scan(orig.data(), dec.data(), n, thr));
      }
      return ref;
    };
    EXPECT_EQ(SIZE_MAX, sweep("clean"));
    dec[n - 1] += 1.0f;  // violation in the vector tail
    EXPECT_EQ(n - 1, sweep("tail-violation"));
    dec[n / 2] = std::numeric_limits<float>::quiet_NaN();
    EXPECT_EQ(n / 2, sweep("nan-flag"));
    orig[0] = std::numeric_limits<float>::infinity();
    dec[0] = std::numeric_limits<float>::infinity();
    // Equal infinities are benign for the *caller* but conservatively
    // flagged by the filter — identically at every level.
    EXPECT_EQ(0u, sweep("inf-flag"));
  }
}

// ----------------------------------------------------------------- CRC-32
//
// The fold's oracle is slice-by-8: Crc32 with the level capped at scalar.

std::vector<std::uint8_t> crc_message(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng() >> 24);
  return out;
}

std::uint32_t slice_by_8(std::span<const std::uint8_t> data) {
  LevelOverride guard(simd::Level::Scalar);
  return Crc32::of(data);
}

TEST(SimdParity, Crc32FoldMatchesSliceBy8) {
  // Every length 0..300, then sparse lengths up to 1 MiB, at offsets 0..15.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 300; ++n) lengths.push_back(n);
  for (std::size_t n = 301; n < (std::size_t{1} << 20); n = n * 3 / 2 + 7) {
    lengths.push_back(n);
  }
  lengths.push_back(std::size_t{1} << 20);
  const auto buf = crc_message((std::size_t{1} << 20) + 16, 1952);
  for (std::size_t off = 0; off < 16; ++off) {
    for (const std::size_t n : lengths) {
      const std::span<const std::uint8_t> msg(buf.data() + off, n);
      const std::uint32_t want = slice_by_8(msg);
      for (simd::Level l : sweep_levels()) {
        SCOPED_TRACE(std::string(simd::level_name(l)) + " offset " +
                     std::to_string(off) + " length " + std::to_string(n));
        LevelOverride guard(l);
        ASSERT_EQ(want, Crc32::of(msg));
        // The kernel alone: the register it returns, resumed by slice-by-8
        // over the bytes it left.
        std::uint32_t state = 0xffffffffu;
        const std::size_t used =
            simd::crc32_fold(l, &state, msg.data(), msg.size());
        ASSERT_EQ(0u, used % 16);
        ASSERT_LE(used, n);
        if (n < 64 || l == simd::Level::Scalar) {
          ASSERT_EQ(0u, used);
        }
        LevelOverride scalar(simd::Level::Scalar);
        Crc32 rest = Crc32::resume(state ^ 0xffffffffu);
        rest.update(msg.subspan(used));
        ASSERT_EQ(want, rest.value());
      }
    }
  }
}

TEST(SimdParity, Crc32EverySplitGivesTheOneShotValue) {
  const auto msg = crc_message(300, 1953);
  const std::span<const std::uint8_t> whole(msg);
  const std::uint32_t want = slice_by_8(whole);
  for (simd::Level l : sweep_levels()) {
    LevelOverride guard(l);
    for (std::size_t cut = 0; cut <= msg.size(); ++cut) {
      SCOPED_TRACE(std::string(simd::level_name(l)) + " cut " +
                   std::to_string(cut));
      Crc32 c;
      c.update(whole.first(cut));
      c.update(whole.subspan(cut));
      EXPECT_EQ(want, c.value());
      Crc32 resumed = Crc32::resume(Crc32::of(whole.first(cut)));
      resumed.update(whole.subspan(cut));
      EXPECT_EQ(want, resumed.value());
    }
  }
}

TEST(SimdParity, Crc32FoldRunsWhereverTheCpuHasPclmul) {
  // Asks the CPU directly rather than through the dispatch's own probe, so
  // a probe or kernel that silently falls back to slice-by-8 fails here.
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  __builtin_cpu_init();
  const bool pclmul = __builtin_cpu_supports("pclmul") != 0;
#else
  const bool pclmul = false;
#endif
  const auto msg = crc_message(100, 1954);
  for (simd::Level l : sweep_levels()) {
    SCOPED_TRACE(simd::level_name(l));
    const bool folds = pclmul && l >= simd::Level::Sse2;
    std::uint32_t state = 0xffffffffu;
    EXPECT_EQ(folds ? 96u : 0u,
              simd::crc32_fold(l, &state, msg.data(), msg.size()));
    EXPECT_EQ(folds ? 64u : 0u, simd::crc32_fold(l, &state, msg.data(), 64));
    EXPECT_EQ(0u, simd::crc32_fold(l, &state, msg.data(), 63));
  }
  if (!pclmul) GTEST_SKIP() << "no PCLMULQDQ: every level runs slice-by-8";
}

// ------------------------------------------- whole-pipeline / entry points

std::vector<Dims> pipeline_shapes() {
  return {
      Dims::d1(1023),        // 1D: PQD stays scalar, stats/histogram vectorize
      Dims::d2(37, 53),      // small odd 2D
      Dims::d2(129, 131),    // tile-straddling odd 2D
      Dims::d3(17, 19, 23),  // 3D: PQD scalar fallback path
  };
}

TEST(SimdParity, Sz14ContainersBitIdenticalAcrossLevels) {
  for (const Dims& dims : pipeline_shapes()) {
    const auto f32 = noisy_field<float>(dims.count(), 137);
    const auto f64 = noisy_field<double>(dims.count(), 139);
    sz::Config cfg;
    cfg.huffman = true;
    std::vector<std::uint8_t> ref, ref64;
    std::vector<float> ref_out;
    std::vector<double> ref_out64;
    {
      LevelOverride guard(simd::Level::Scalar);
      ref = sz::compress(std::span<const float>(f32), dims, cfg).bytes;
      ref64 = sz::compress(std::span<const double>(f64), dims, cfg).bytes;
      ref_out = sz::decompress(ref);
      ref_out64 = sz::decompress64(ref64);
    }
    for (simd::Level l : sweep_levels()) {
      SCOPED_TRACE(std::string(simd::level_name(l)) + " " + dims.str());
      LevelOverride guard(l);
      EXPECT_EQ(ref,
                sz::compress(std::span<const float>(f32), dims, cfg).bytes);
      EXPECT_EQ(ref64,
                sz::compress(std::span<const double>(f64), dims, cfg).bytes);
      expect_same_bits(ref_out, sz::decompress(ref));
      expect_same_bits(ref_out64, sz::decompress64(ref64));
    }
  }
}

TEST(SimdParity, WaveContainersBitIdenticalAcrossLevels) {
  for (const Dims& dims : pipeline_shapes()) {
    if (dims.rank < 2) continue;
    const auto f32 = noisy_field<float>(dims.count(), 149);
    const sz::Config cfg = wave::default_config();
    std::vector<std::uint8_t> ref;
    std::vector<float> ref_out;
    {
      LevelOverride guard(simd::Level::Scalar);
      ref = wave::compress(std::span<const float>(f32), dims, cfg).bytes;
      ref_out = wave::decompress(ref);
    }
    for (simd::Level l : sweep_levels()) {
      SCOPED_TRACE(std::string(simd::level_name(l)) + " " + dims.str());
      LevelOverride guard(l);
      EXPECT_EQ(ref,
                wave::compress(std::span<const float>(f32), dims, cfg).bytes);
      auto out = wave::decompress(ref);
      expect_same_bits(ref_out, out);
    }
  }
}

TEST(SimdParity, MetricsEntryPointsAgreeAcrossLevels) {
  auto data = noisy_field<float>(4097, 151);
  data[100] = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> dec = data;  // NaN pairs with NaN: benign
  dec[4096] = data[4096] + 0.25f;
  metrics::Range ref_range;
  std::size_t ref_fv = 0;
  {
    LevelOverride guard(simd::Level::Scalar);
    ref_range = metrics::value_range(data);
    ref_fv = metrics::first_violation(data, dec, 0.1);
  }
  EXPECT_EQ(4096u, ref_fv);
  for (simd::Level l : sweep_levels()) {
    SCOPED_TRACE(simd::level_name(l));
    LevelOverride guard(l);
    const metrics::Range r = metrics::value_range(data);
    EXPECT_EQ(ref_range.min, r.min);
    EXPECT_EQ(ref_range.max, r.max);
    EXPECT_EQ(ref_fv, metrics::first_violation(data, dec, 0.1));
    EXPECT_TRUE(metrics::within_bound(data, dec, 0.5));
    EXPECT_FALSE(metrics::within_bound(data, dec, 0.1));
  }
}

}  // namespace
}  // namespace wavesz
