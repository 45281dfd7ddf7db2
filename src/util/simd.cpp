// SIMD kernel implementations: scalar oracles plus SSE2/AVX2 paths behind
// the runtime dispatch of simd.hpp. This is the only translation unit in
// the tree allowed to include intrinsics headers or touch __builtin_cpu_*
// (tools/wavesz_lint.py, rule simd-containment).
//
// Bit-identity notes, load-bearing for the parity contract:
//   - All PQD arithmetic is double precision; vector add/sub/mul/min/max
//     and the float<->double conversions are IEEE-exact, so lane math
//     matches the scalar kernels operation for operation. The whole tree
//     builds with -ffp-contract=off, so the compiler cannot fuse the
//     scalar kernels' mul+add chains into FMAs the vector code doesn't use.
//   - truncation toward zero: _mm*_cvttpd_epi32 matches the scalar
//     (int64)scaled cast for every lane that passed the capacity test
//     (scaled < capacity-1 <= 65535, comfortably in int32 range).
//   - signed0 / 2 with signed0 = +/-code0 and code0 >= 1 equals
//     sign * (code0 >> 1), implemented as xor/sub with the sign mask.
//   - 2.0 * q is exact, so computing it as q + q is bit-identical.
#include "util/simd.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <type_traits>

#if defined(__x86_64__) || defined(__i386__)
#define WAVESZ_SIMD_X86 1
#include <immintrin.h>
#else
#define WAVESZ_SIMD_X86 0
#endif

namespace wavesz::simd {
namespace {

Level probe() {
#if WAVESZ_SIMD_X86 && defined(__GNUC__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return Level::Avx2;
  if (__builtin_cpu_supports("sse2")) return Level::Sse2;
#endif
  return Level::Scalar;
}

/// Whether the CPU has PCLMULQDQ, which an SSE2 CPU may lack (probed once).
bool clmul_detected() {
#if WAVESZ_SIMD_X86 && defined(__GNUC__)
  static const bool probed = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0;
  }();
  return probed;
#else
  return false;
#endif
}

Level clamp_to_detected(Level requested) {
  return static_cast<Level>(
      std::min(static_cast<int>(requested), static_cast<int>(detected())));
}

Level startup_level() {
  Level lv = detected();
  if (const char* e = std::getenv("WAVESZ_SIMD")) {
    Level req = Level::Scalar;
    if (parse_level(e, &req)) lv = clamp_to_detected(req);
  }
  return lv;
}

std::atomic<int>& level_slot() {
  static std::atomic<int> slot{static_cast<int>(startup_level())};
  return slot;
}

// ---------------------------------------------------------------------------
// Scalar kernels — the oracles of the contiguous scans.
// ---------------------------------------------------------------------------

template <typename T>
void minmax_scalar(const T* data, std::size_t n, double* lo, double* hi) {
  double l = *lo, h = *hi;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(data[i]);
    l = std::min(l, v);
    h = std::max(h, v);
  }
  *lo = l;
  *hi = h;
}

std::size_t bound_scan_scalar(const float* o, const float* d, std::size_t n,
                              double thr) {
  for (std::size_t i = 0; i < n; ++i) {
    const double e = std::fabs(static_cast<double>(o[i]) -
                               static_cast<double>(d[i]));
    if (!(e <= thr)) return i;
  }
  return static_cast<std::size_t>(-1);
}

#if WAVESZ_SIMD_X86

// ---------------------------------------------------------------------------
// SSE2 paths (baseline on x86-64; two double lanes).
// ---------------------------------------------------------------------------

template <typename T>
void minmax_sse2(const T* data, std::size_t n, double* lo, double* hi) {
  __m128d vlo = _mm_set1_pd(*lo);
  __m128d vhi = _mm_set1_pd(*hi);
  __m128d vlo2 = vlo, vhi2 = vhi;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128d a, b;
    if constexpr (std::is_same_v<T, float>) {
      const __m128 f = _mm_loadu_ps(data + i);
      a = _mm_cvtps_pd(f);
      b = _mm_cvtps_pd(_mm_movehl_ps(f, f));
    } else {
      a = _mm_loadu_pd(data + i);
      b = _mm_loadu_pd(data + i + 2);
    }
    // min_pd(v, acc) keeps acc when v is NaN (unordered returns the second
    // operand) — the same skip-NaN fold as std::min(acc, v).
    vlo = _mm_min_pd(a, vlo);
    vhi = _mm_max_pd(a, vhi);
    vlo2 = _mm_min_pd(b, vlo2);
    vhi2 = _mm_max_pd(b, vhi2);
  }
  alignas(16) double larr[4], harr[4];
  _mm_store_pd(larr, vlo);
  _mm_store_pd(larr + 2, vlo2);
  _mm_store_pd(harr, vhi);
  _mm_store_pd(harr + 2, vhi2);
  double l = *lo, h = *hi;
  for (int k = 0; k < 4; ++k) {
    l = std::min(l, larr[k]);
    h = std::max(h, harr[k]);
  }
  for (; i < n; ++i) {
    const double v = static_cast<double>(data[i]);
    l = std::min(l, v);
    h = std::max(h, v);
  }
  *lo = l;
  *hi = h;
}

std::size_t bound_scan_sse2(const float* o, const float* d, std::size_t n,
                            double thr) {
  const __m128d vthr = _mm_set1_pd(thr);
  const __m128d absmask = _mm_castsi128_pd(
      _mm_set1_epi64x(static_cast<long long>(0x7fffffffffffffffULL)));
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d ov = _mm_cvtps_pd(_mm_castsi128_ps(_mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(o + i))));
    const __m128d dv = _mm_cvtps_pd(_mm_castsi128_ps(_mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(d + i))));
    const __m128d e = _mm_and_pd(_mm_sub_pd(ov, dv), absmask);
    // NLE is true for NaN lanes too — exactly the conservative filter the
    // header promises.
    const int bad = _mm_movemask_pd(_mm_cmpnle_pd(e, vthr));
    if (bad != 0) {
      return i + static_cast<std::size_t>(std::countr_zero(
                     static_cast<unsigned>(bad)));
    }
  }
  const std::size_t tail = bound_scan_scalar(o + i, d + i, n - i, thr);
  return tail == static_cast<std::size_t>(-1) ? tail : i + tail;
}

// ---------------------------------------------------------------------------
// AVX2 paths. Compiled with a function-level target so the default build
// stays runnable on SSE2-only machines: the contiguous scans and the
// wavefront column runs, whose loads are all sequential.
// ---------------------------------------------------------------------------

template <typename T>
__attribute__((target("avx2"))) void minmax_avx2(const T* data,
                                                 std::size_t n, double* lo,
                                                 double* hi) {
  __m256d vlo = _mm256_set1_pd(*lo);
  __m256d vhi = _mm256_set1_pd(*hi);
  __m256d vlo2 = vlo, vhi2 = vhi;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256d a, b;
    if constexpr (std::is_same_v<T, float>) {
      a = _mm256_cvtps_pd(_mm_loadu_ps(data + i));
      b = _mm256_cvtps_pd(_mm_loadu_ps(data + i + 4));
    } else {
      a = _mm256_loadu_pd(data + i);
      b = _mm256_loadu_pd(data + i + 4);
    }
    vlo = _mm256_min_pd(a, vlo);
    vhi = _mm256_max_pd(a, vhi);
    vlo2 = _mm256_min_pd(b, vlo2);
    vhi2 = _mm256_max_pd(b, vhi2);
  }
  alignas(32) double larr[8], harr[8];
  _mm256_store_pd(larr, vlo);
  _mm256_store_pd(larr + 4, vlo2);
  _mm256_store_pd(harr, vhi);
  _mm256_store_pd(harr + 4, vhi2);
  double l = *lo, h = *hi;
  for (int k = 0; k < 8; ++k) {
    l = std::min(l, larr[k]);
    h = std::max(h, harr[k]);
  }
  for (; i < n; ++i) {
    const double v = static_cast<double>(data[i]);
    l = std::min(l, v);
    h = std::max(h, v);
  }
  *lo = l;
  *hi = h;
}

__attribute__((target("avx2"))) std::size_t bound_scan_avx2(
    const float* o, const float* d, std::size_t n, double thr) {
  const __m256d vthr = _mm256_set1_pd(thr);
  const __m256d absmask = _mm256_castsi256_pd(
      _mm256_set1_epi64x(static_cast<long long>(0x7fffffffffffffffULL)));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d ov = _mm256_cvtps_pd(_mm_loadu_ps(o + i));
    const __m256d dv = _mm256_cvtps_pd(_mm_loadu_ps(d + i));
    const __m256d e = _mm256_and_pd(_mm256_sub_pd(ov, dv), absmask);
    const int bad =
        _mm256_movemask_pd(_mm256_cmp_pd(e, vthr, _CMP_NLE_UQ));
    if (bad != 0) {
      return i + static_cast<std::size_t>(std::countr_zero(
                     static_cast<unsigned>(bad)));
    }
  }
  const std::size_t tail = bound_scan_scalar(o + i, d + i, n - i, thr);
  return tail == static_cast<std::size_t>(-1) ? tail : i + tail;
}

// Wavefront column runs. Every tap of a column's interior run is a
// contiguous load from an earlier column, so four points are four
// independent double lanes. The kernels do whole blocks only; the run's
// tail, the verbatim values and the True3D planes stay in the default-target
// scalar body of core/wavesz.cpp, which these lanes reproduce bit for bit.

/// Four values of a run widened to double lanes (exact for float).
template <typename T>
__attribute__((target("avx2"))) inline __m256d load_lanes(const T* p) {
  if constexpr (std::is_same_v<T, float>) {
    return _mm256_cvtps_pd(_mm_loadu_ps(p));
  } else {
    return _mm256_loadu_pd(p);
  }
}

/// A 4 x 64-bit compare mask narrowed to 4 x 32-bit lanes.
__attribute__((target("avx2"))) inline __m128i narrow_mask(__m256d m) {
  return _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
      _mm256_castpd_si256(m), _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6)));
}

/// lorenzo2d(nw, n, w) = (n + w) - nw over the block at j.
template <typename T>
__attribute__((target("avx2"))) inline __m256d lorenzo_lanes(
    const T* west, const T* nw, std::size_t j) {
  return _mm256_sub_pd(
      _mm256_add_pd(load_lanes(west + j - 1), load_lanes(west + j)),
      load_lanes(nw + j));
}

template <typename T>
__attribute__((target("avx2"))) std::size_t wave_pqd_run_avx2(
    T* cur, std::uint16_t* codes, const T* west, const T* nw, std::size_t n,
    const QuantSpec& qs) {
  const __m256d vinvp = _mm256_set1_pd(qs.inv_precision);
  const __m256d vp = _mm256_set1_pd(qs.precision);
  const __m256d vcapm1 = _mm256_set1_pd(static_cast<double>(qs.capacity - 1));
  const __m256d absmask = _mm256_castsi256_pd(
      _mm256_set1_epi64x(static_cast<long long>(0x7fffffffffffffffULL)));
  const __m128i one = _mm_set1_epi32(1);
  const __m128i radius = _mm_set1_epi32(static_cast<int>(qs.radius));
  const __m128i capacity = _mm_set1_epi32(static_cast<int>(qs.capacity));
  const std::size_t end = n - n % kWaveLanes;
  for (std::size_t j = 0; j < end; j += kWaveLanes) {
    const __m256d o = load_lanes(cur + j);
    const __m256d pred = lorenzo_lanes(west, nw, j);
    const __m256d diff = _mm256_sub_pd(o, pred);
    const __m256d scaled = _mm256_mul_pd(_mm256_and_pd(diff, absmask), vinvp);
    // Ordered compares: a NaN lane fails, as !(scaled < capacity - 1) and
    // the overbound check fail it in the scalar body.
    const __m256d fits = _mm256_cmp_pd(scaled, vcapm1, _CMP_LT_OQ);
    // q = signed0 / 2 with signed0 = ±(trunc(scaled) + 1) >= 1 in magnitude
    // is ±((trunc(scaled) + 1) >> 1); lanes that do not fit are masked off.
    const __m128i mag =
        _mm_srli_epi32(_mm_add_epi32(_mm256_cvttpd_epi32(scaled), one), 1);
    const __m128i neg = narrow_mask(
        _mm256_cmp_pd(diff, _mm256_setzero_pd(), _CMP_LT_OQ));
    const __m128i q = _mm_sub_epi32(_mm_xor_si128(mag, neg), neg);
    const __m128i c = _mm_add_epi32(q, radius);
    const __m128i c_ok = _mm_and_si128(_mm_cmpgt_epi32(c, _mm_setzero_si128()),
                                       _mm_cmpgt_epi32(capacity, c));
    const __m256d qd = _mm256_cvtepi32_pd(q);
    const __m256d recd = _mm256_add_pd(
        pred, _mm256_mul_pd(_mm256_add_pd(qd, qd), vp));
    // The overbound check runs on the value the decoder will rebuild.
    __m256d rebuilt = recd;
    if constexpr (std::is_same_v<T, float>) {
      rebuilt = _mm256_cvtps_pd(_mm256_cvtpd_ps(recd));
    }
    const __m256d within = _mm256_cmp_pd(
        _mm256_and_pd(_mm256_sub_pd(rebuilt, o), absmask), vp, _CMP_LE_OQ);
    const __m128i ok =
        _mm_and_si128(narrow_mask(_mm256_and_pd(fits, within)), c_ok);
    const __m128i code = _mm_and_si128(c, ok);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(codes + j),
                     _mm_packus_epi32(code, code));
    // Blends keep a code-0 lane's original bits, NaN payloads included.
    if constexpr (std::is_same_v<T, float>) {
      _mm_storeu_ps(cur + j,
                    _mm_blendv_ps(_mm_loadu_ps(cur + j), _mm256_cvtpd_ps(recd),
                                  _mm_castsi128_ps(ok)));
    } else {
      _mm256_storeu_pd(
          cur + j,
          _mm256_blendv_pd(o, recd,
                           _mm256_castsi256_pd(_mm256_cvtepi32_epi64(ok))));
    }
  }
  return end;
}

template <typename T>
__attribute__((target("avx2"))) std::size_t wave_reconstruct_run_avx2(
    const std::uint16_t* codes, T* cur, const T* west, const T* nw,
    std::size_t n, const QuantSpec& qs) {
  const __m256d vp = _mm256_set1_pd(qs.precision);
  const __m128i radius = _mm_set1_epi32(static_cast<int>(qs.radius));
  std::size_t j = 0;
  for (; j + kWaveLanes <= n; j += kWaveLanes) {
    const __m128i c16 =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(codes + j));
    // Bytes 0..7 hold the block's four codes.
    if ((_mm_movemask_epi8(_mm_cmpeq_epi16(c16, _mm_setzero_si128())) &
         0xff) != 0) {
      break;
    }
    const __m256d qd =
        _mm256_cvtepi32_pd(_mm_sub_epi32(_mm_cvtepu16_epi32(c16), radius));
    const __m256d recd = _mm256_add_pd(
        lorenzo_lanes(west, nw, j),
        _mm256_mul_pd(_mm256_add_pd(qd, qd), vp));
    // Without a NaN operand every lane's arithmetic is order-exact; with
    // one, the NaN the scalar body returns depends on its operand order.
    if (_mm256_movemask_pd(_mm256_cmp_pd(recd, recd, _CMP_UNORD_Q)) != 0) {
      break;
    }
    if constexpr (std::is_same_v<T, float>) {
      _mm_storeu_ps(cur + j, _mm256_cvtpd_ps(recd));
    } else {
      _mm256_storeu_pd(cur + j, recd);
    }
  }
  return j;
}

/// True when `level` runs the AVX2 column-run kernels on this CPU.
bool wave_lanes(Level level) {
  return level == Level::Avx2 && detected() == Level::Avx2;
}

// CRC-32 fold after Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in the
// bit-reflected domain of 0xEDB88320. The constants are those of zlib-ng,
// Chromium's zlib and the Linux kernel: k1/k2 fold a lane 512 bits on,
// k3/k4 128 bits on, k5 folds 64 bits into 32, and the last pair is the
// Barrett reduction (P' and mu, each with its x^32 term).
alignas(16) constexpr std::uint64_t kFold512[2] = {0x0154442bd4, 0x01c6e41596};
alignas(16) constexpr std::uint64_t kFold128[2] = {0x01751997d0, 0x00ccaa009e};
alignas(16) constexpr std::uint64_t kFold64[2] = {0x0163cd6124, 0};
alignas(16) constexpr std::uint64_t kBarrett[2] = {0x01db710641, 0x01f7011641};

/// `acc` carried 128 bits on (its two halves times the `k` pair), plus
/// the next 16 bytes.
__attribute__((target("sse2,pclmul"))) inline __m128i fold16(__m128i acc,
                                                            __m128i k,
                                                            __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       next);
}

/// The register after `n` bytes at `p`; n is a multiple of 16, at least 64.
__attribute__((target("sse2,pclmul"))) std::uint32_t crc32_clmul(
    std::uint32_t crc, const std::uint8_t* p, std::size_t n) {
  const auto load = [](const std::uint8_t* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };
  // Four lanes, 64 bytes per step; the register enters at the first lane.
  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  n -= 64;
  __m128i k = _mm_load_si128(reinterpret_cast<const __m128i*>(kFold512));
  for (; n >= 64; p += 64, n -= 64) {
    x0 = fold16(x0, k, load(p));
    x1 = fold16(x1, k, load(p + 16));
    x2 = fold16(x2, k, load(p + 32));
    x3 = fold16(x3, k, load(p + 48));
  }
  // The lanes into one, then 16 bytes at a time.
  k = _mm_load_si128(reinterpret_cast<const __m128i*>(kFold128));
  x0 = fold16(x0, k, x1);
  x0 = fold16(x0, k, x2);
  x0 = fold16(x0, k, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = fold16(x0, k, load(p));
  // 128 bits to 64, then 64 to 32 bits plus the carry above them.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(x0, k, 0x10));
  k = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(kFold64));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k, 0x00));
  // Barrett reduction: the quotient's low 32 bits times P' cancel all but
  // the remainder, which lands in bits 32..63.
  k = _mm_load_si128(reinterpret_cast<const __m128i*>(kBarrett));
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), k, 0x00);
  x0 = _mm_xor_si128(x0, q);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x0, 4)));
}

#endif  // WAVESZ_SIMD_X86

template <typename T>
void minmax_t(const T* data, std::size_t n, double* lo, double* hi) {
  switch (active()) {
#if WAVESZ_SIMD_X86
    case Level::Avx2:
      minmax_avx2<T>(data, n, lo, hi);
      return;
    case Level::Sse2:
      minmax_sse2<T>(data, n, lo, hi);
      return;
#endif
    default:
      minmax_scalar<T>(data, n, lo, hi);
      return;
  }
}

}  // namespace

Level detected() {
  static const Level probed = probe();
  return probed;
}

Level active() {
  return static_cast<Level>(level_slot().load(std::memory_order_relaxed));
}

void set_level(Level level) {
  level_slot().store(static_cast<int>(clamp_to_detected(level)),
                     std::memory_order_relaxed);
}

const char* level_name(Level level) {
  switch (level) {
    case Level::Avx2:
      return "avx2";
    case Level::Sse2:
      return "sse2";
    default:
      return "scalar";
  }
}

bool parse_level(std::string_view text, Level* out) {
  if (text == "scalar") {
    *out = Level::Scalar;
  } else if (text == "sse2") {
    *out = Level::Sse2;
  } else if (text == "avx2") {
    *out = Level::Avx2;
  } else {
    return false;
  }
  return true;
}

std::size_t wave_pqd_run(Level level, float* cur, std::uint16_t* codes,
                         const float* west, const float* nw, std::size_t n,
                         const QuantSpec& q) {
#if WAVESZ_SIMD_X86
  if (wave_lanes(level)) return wave_pqd_run_avx2(cur, codes, west, nw, n, q);
#endif
  return 0;
}

std::size_t wave_pqd_run(Level level, double* cur, std::uint16_t* codes,
                         const double* west, const double* nw, std::size_t n,
                         const QuantSpec& q) {
#if WAVESZ_SIMD_X86
  if (wave_lanes(level)) return wave_pqd_run_avx2(cur, codes, west, nw, n, q);
#endif
  return 0;
}

std::size_t wave_reconstruct_run(Level level, const std::uint16_t* codes,
                                 float* cur, const float* west,
                                 const float* nw, std::size_t n,
                                 const QuantSpec& q) {
#if WAVESZ_SIMD_X86
  if (wave_lanes(level)) {
    return wave_reconstruct_run_avx2(codes, cur, west, nw, n, q);
  }
#endif
  return 0;
}

std::size_t wave_reconstruct_run(Level level, const std::uint16_t* codes,
                                 double* cur, const double* west,
                                 const double* nw, std::size_t n,
                                 const QuantSpec& q) {
#if WAVESZ_SIMD_X86
  if (wave_lanes(level)) {
    return wave_reconstruct_run_avx2(codes, cur, west, nw, n, q);
  }
#endif
  return 0;
}

void minmax(const float* data, std::size_t n, double* lo, double* hi) {
  minmax_t<float>(data, n, lo, hi);
}

void minmax(const double* data, std::size_t n, double* lo, double* hi) {
  minmax_t<double>(data, n, lo, hi);
}

std::size_t bound_scan(const float* o, const float* d, std::size_t n,
                       double thr) {
  switch (active()) {
#if WAVESZ_SIMD_X86
    case Level::Avx2:
      return bound_scan_avx2(o, d, n, thr);
    case Level::Sse2:
      return bound_scan_sse2(o, d, n, thr);
#endif
    default:
      return bound_scan_scalar(o, d, n, thr);
  }
}

std::size_t crc32_fold(Level level, std::uint32_t* state,
                       const std::uint8_t* data, std::size_t n) {
  if (level < Level::Sse2 || detected() < Level::Sse2 || n < 64 ||
      !clmul_detected()) {
    return 0;
  }
#if WAVESZ_SIMD_X86
  const std::size_t whole = n & ~std::size_t{15};
  *state = crc32_clmul(*state, data, whole);
  return whole;
#else
  (void)state;
  (void)data;
  return 0;
#endif
}

}  // namespace wavesz::simd
