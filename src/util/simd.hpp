// Runtime-dispatched SIMD kernel layer (vecSZ-style, PAPERS.md).
//
// The contiguous scans (minmax, bound_scan) have a scalar, an SSE2 and an
// AVX2 implementation, selected once per call from a process-wide level.
// The CRC-32 fold runs at SSE2 and above on CPUs that also report
// PCLMULQDQ, and takes the level from its caller (Crc32::update).
// The wavefront column-run kernels exist at the AVX2 level only and take
// the level from their caller, who reads it once per walk and keeps the
// scalar body. The level defaults to the widest ISA the CPU reports (probed
// once via cpuid), can be capped with the WAVESZ_SIMD environment variable
// (`scalar`, `sse2` or `avx2`) and overridden from code with set_level();
// requests above the detected ISA are clamped, so asking for avx2 on an
// SSE2-only machine silently runs the SSE2 path. On non-x86 targets every
// level resolves to scalar. SZ-1.4's Lorenzo kernels have no SIMD path:
// their skewed row walk (sz/pqd_detail.hpp) overlaps independent rows in
// scalar code and beat the vectorized diagonals it replaced.
//
// Contract: every vectorized path is BIT-IDENTICAL to its scalar
// implementation, which in turn mirrors the arithmetic of the serial
// kernels it accelerates (LinearQuantizer + lorenzo2d for the column runs,
// the std::min/std::max fold for minmax). The scalar paths stay as
// runtime-selectable oracles — tests/simd_parity_test.cpp diffs every
// kernel at every level. Two deliberate exceptions to bit-identity:
//   - minmax: among equal extrema (-0.0 vs 0.0) the sign of the reported
//     zero may differ from the serial fold's first-seen zero; the values
//     compare == either way.
//   - bound_scan is a conservative *filter*: it returns the first lane
//     whose |o-d| <= thr test fails in double (NaN/Inf always flagged);
//     callers re-check the flagged index with exact scalar semantics.
//
// The intrinsics themselves live only in simd.cpp (enforced by
// tools/wavesz_lint.py's simd-containment rule); this header is plain C++.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace wavesz::simd {

enum class Level : int { Scalar = 0, Sse2 = 1, Avx2 = 2 };

/// Widest level the CPU supports (cpuid, probed once).
Level detected();

/// Level used by the kernels below: detected(), capped by WAVESZ_SIMD and
/// by the most recent set_level() call.
Level active();

/// Override the active level (clamped to detected()). Intended for tests
/// and benchmarks sweeping the dispatch; thread-safe.
void set_level(Level level);

const char* level_name(Level level);

/// Parse "scalar" / "sse2" / "avx2" (case-sensitive); false on anything
/// else, leaving *out untouched.
bool parse_level(std::string_view text, Level* out);

/// Linear-scaling quantizer parameters in POD form (mirrors
/// sz::LinearQuantizer so the kernels below need no sz-layer dependency).
struct QuantSpec {
  double precision = 0.0;
  double inv_precision = 0.0;
  std::int64_t capacity = 0;
  std::int64_t radius = 0;
};

/// Lane width of the wavefront column-run kernels below.
inline constexpr std::size_t kWaveLanes = 4;

/// 2D-Lorenzo PQD over the whole kWaveLanes-point blocks of one wavefront
/// column's interior run (DESIGN.md, "Wavefront column walk"). Point j of
/// the run is cur[j]; its W tap is west[j], its N tap west[j - 1] and its
/// NW tap nw[j], all in earlier columns, so the points of a run are
/// independent lanes over contiguous loads. Per point, codes[j] receives
/// the quantizer symbol (0 = unpredictable) and a quantized point's cur[j]
/// the in-place decompression writeback; a code-0 point keeps its original
/// bits. Returns the points done: n rounded down to a whole block at
/// Level::Avx2, 0 below it. The caller's scalar body does the rest of the
/// run, and each lane is bit-identical to it (LinearQuantizer::quantize
/// after lorenzo2d). Requires q.capacity <= 65536.
std::size_t wave_pqd_run(Level level, float* cur, std::uint16_t* codes,
                         const float* west, const float* nw, std::size_t n,
                         const QuantSpec& q);
std::size_t wave_pqd_run(Level level, double* cur, std::uint16_t* codes,
                         const double* west, const double* nw, std::size_t n,
                         const QuantSpec& q);

/// Decode-side twin: rebuilds cur[j] from codes[j] with the same taps, one
/// whole block at a time, and stops at the first block holding a code-0
/// point (its verbatim value is the caller's to place) or a NaN result
/// (which only a forged container produces; the scalar body then decides
/// its payload). Returns the points done, a multiple of kWaveLanes; 0 below
/// Level::Avx2.
std::size_t wave_reconstruct_run(Level level, const std::uint16_t* codes,
                                 float* cur, const float* west,
                                 const float* nw, std::size_t n,
                                 const QuantSpec& q);
std::size_t wave_reconstruct_run(Level level, const std::uint16_t* codes,
                                 double* cur, const double* west,
                                 const double* nw, std::size_t n,
                                 const QuantSpec& q);

/// Fold min/max over data[0, n) into *lo / *hi (callers seed both, usually
/// with data[0], matching the serial scan's NaN-poisoning semantics): NaN
/// elements never become the extremum, a NaN seed sticks.
void minmax(const float* data, std::size_t n, double* lo, double* hi);
void minmax(const double* data, std::size_t n, double* lo, double* hi);

/// First index i where !(|(double)o[i] - (double)d[i]| <= thr) — a
/// conservative violation filter (any NaN/Inf lane is flagged, including
/// benign equal-infinity pairs, whose difference is NaN/Inf). SIZE_MAX when
/// every lane passes; callers apply exact NaN/Inf semantics at the flagged
/// index and may resume the scan past it.
std::size_t bound_scan(const float* o, const float* d, std::size_t n,
                       double thr);

/// Fold data[0, n) into the un-finalized CRC-32 register *state (reflected
/// polynomial 0xEDB88320) with carry-less multiplies, and return the bytes
/// consumed: the whole 16-byte blocks of an input of 64 bytes or more, 0
/// for a shorter one. Returns 0 and leaves *state alone at Level::Scalar
/// and on CPUs without PCLMULQDQ (probed once). The caller runs the
/// slice-by-8 loop of Crc32::update, which is this kernel's oracle, on
/// the bytes left, so every split of a message gives the one-shot value.
std::size_t crc32_fold(Level level, std::uint32_t* state,
                       const std::uint8_t* data, std::size_t n);

}  // namespace wavesz::simd
