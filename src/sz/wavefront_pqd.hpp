// Wavefront-scheduled (tiled anti-diagonal hyperplane) PQD kernels — the
// paper's dependency-breaking insight (§3.2–3.3) applied to the CPU hot
// path.
//
// Points on the same anti-diagonal hyperplane h = i0 + i1 (+ i2) have no
// mutual Lorenzo dependency: every stencil tap has strictly smaller
// coordinates, hence lands on an earlier hyperplane. The same holds one
// level up for fixed-size tiles (a tile's taps reach only tiles with
// coordinate-wise smaller-or-equal indices, i.e. strictly earlier tile
// diagonals), so the schedule here sweeps *tile* diagonals — the paper's
// head/body/tail pipeline at memory-hierarchy granularity — and hands the
// tiles of a diagonal to the workers of one util::parallel_batches team.
// Inside a tile the 1-layer stencil runs the serial kernels' skewed row walk
// and the 2-layer stencil raster order. Each point's arithmetic is shared
// with the serial kernels via pqd_detail.hpp, so results are bit-identical
// to the raster reference; the unpredictable stream is spliced back into
// exact raster order afterwards (the container format's contract).
//
// 1D grids degenerate to a serial dependency chain and always take the
// serial path, as does a thread budget of 1.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sz/compressor.hpp"
#include "sz/config.hpp"
#include "sz/pqd_detail.hpp"
#include "sz/quantizer.hpp"
#include "util/dims.hpp"

namespace wavesz::sz {

/// Minimum points per worker before the wavefront kernels honour a parallel
/// thread budget: budgets are capped at count / floor, so fields too small
/// to amortize the per-diagonal barrier fall back to the serial kernel
/// (BENCH_pqd.json showed 512x512 f32 *losing* 40% at 4 threads). 0 disables
/// the floor (tests/benches forcing the parallel path). Thread-safe.
std::size_t wavefront_min_points_per_thread();
void set_wavefront_min_points_per_thread(std::size_t points);

/// Wavefront-scheduled lorenzo_pqd. `threads` is a budget with the same
/// semantics as Config::pqd_threads (0 = all threads, 1 = the serial
/// kernel, n = at most n). Output is bit-identical to lorenzo_pqd() for
/// every budget.
Pqd lorenzo_pqd_wavefront(std::span<const float> data, const Dims& dims,
                          const LinearQuantizer& q,
                          PredictorKind kind = PredictorKind::Lorenzo1Layer,
                          int threads = 0);

Pqd64 lorenzo_pqd64_wavefront(
    std::span<const double> data, const Dims& dims, const LinearQuantizer& q,
    PredictorKind kind = PredictorKind::Lorenzo1Layer, int threads = 0);

/// Wavefront-scheduled lorenzo_reconstruct; value-identical to the raster
/// kernel for every thread budget.
std::vector<float> lorenzo_reconstruct_wavefront(
    std::span<const std::uint16_t> codes, std::span<const float> unpredictable,
    const Dims& dims, const LinearQuantizer& q,
    PredictorKind kind = PredictorKind::Lorenzo1Layer, int threads = 0);

std::vector<double> lorenzo_reconstruct64_wavefront(
    std::span<const std::uint16_t> codes,
    std::span<const double> unpredictable, const Dims& dims,
    const LinearQuantizer& q,
    PredictorKind kind = PredictorKind::Lorenzo1Layer, int threads = 0);

namespace detail {

/// Width-generic entry points used by compress_t/decompress_t; instantiated
/// for float and double in wavefront_pqd.cpp.
template <typename T>
PqdT<T> lorenzo_pqd_wavefront_t(std::span<const T> data, const Dims& dims,
                                const LinearQuantizer& q, PredictorKind kind,
                                int threads);

template <typename T>
std::vector<T> lorenzo_reconstruct_wavefront_t(
    std::span<const std::uint16_t> codes, std::span<const T> unpredictable,
    const Dims& dims, const LinearQuantizer& q, PredictorKind kind,
    int threads);

}  // namespace detail

}  // namespace wavesz::sz
