// Wavefront-parallel PQD sweep: threads x shape x dtype on the Lorenzo
// prediction-quantization hot path (compress kernel) and the reconstruction
// sweep (decompress kernel), serial raster reference vs the tiled
// anti-diagonal schedule of sz/wavefront_pqd.hpp, then the waveSZ column
// walks per SIMD level. Verifies bit-exact parity on every configuration and
// emits machine-readable results to BENCH_pqd.json in the working directory
// (schema in EXPERIMENTS.md).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common.hpp"
#include "core/wavefront.hpp"
#include "core/wavesz.hpp"
#include "data/datasets.hpp"
#include "sz/wavefront_pqd.hpp"
#include "telemetry/span_names.hpp"
#include "telemetry/telemetry.hpp"
#include "util/simd.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace {

using namespace wavesz;

int hardware_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

constexpr int kReps = 5;  // best-of to shed scheduler noise

struct KernelTimes {
  double pqd_s = 0;
  double rec_s = 0;
  bool exact = true;
};

template <typename T>
std::vector<T> make_field(const Dims& dims) {
  std::vector<T> out(dims.count());
  const std::size_t s1 = dims.rank >= 2 ? dims[1] : 1;
  const std::size_t s2 = dims.rank >= 3 ? dims[2] : 1;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto i2 = static_cast<double>(i % s2);
    const auto i1 = static_cast<double>((i / s2) % s1);
    const auto i0 = static_cast<double>(i / (s1 * s2));
    out[i] = static_cast<T>(std::sin(0.013 * i0) + std::cos(0.021 * i1) +
                            std::sin(0.017 * i2) +
                            0.3 * std::sin(0.41 * (i0 + i1 + i2)));
  }
  return out;
}

template <typename T>
KernelTimes run_one(std::span<const T> data, const Dims& dims,
                    const sz::LinearQuantizer& q, int threads,
                    const std::vector<std::uint16_t>& ref_codes,
                    const std::vector<T>& ref_rec) {
  KernelTimes kt;
  Stopwatch sw;
  typename sz::detail::FpOps<T>::PqdType pqd;
  kt.pqd_s = 1e30;
  for (int r = 0; r < kReps; ++r) {
    sw.reset();
    pqd = threads == 1
              ? sz::detail::lorenzo_pqd_t<T>(data, dims, q)
              : sz::detail::lorenzo_pqd_wavefront_t<T>(
                    data, dims, q, sz::PredictorKind::Lorenzo1Layer, threads);
    kt.pqd_s = std::min(kt.pqd_s, sw.seconds());
  }
  kt.exact = pqd.codes == ref_codes &&
             std::memcmp(pqd.reconstructed.data(), ref_rec.data(),
                         ref_rec.size() * sizeof(T)) == 0;

  // The reconstruction kernels expect decompressor-visible (truncated)
  // unpredictable values, exactly what the container's decode path feeds
  // them; the PQD output carries the raw originals.
  std::vector<T> unpred = pqd.unpredictable;
  for (auto& v : unpred) {
    v = sz::detail::FpOps<T>::roundtrip(v, q.precision());
  }
  std::vector<T> rec;
  kt.rec_s = 1e30;
  for (int r = 0; r < kReps; ++r) {
    sw.reset();
    rec = threads == 1
              ? sz::detail::lorenzo_reconstruct_t<T>(pqd.codes, unpred, dims,
                                                     q)
              : sz::detail::lorenzo_reconstruct_wavefront_t<T>(
                    pqd.codes, unpred, dims, q,
                    sz::PredictorKind::Lorenzo1Layer, threads);
    kt.rec_s = std::min(kt.rec_s, sw.seconds());
  }
  kt.exact = kt.exact && std::memcmp(rec.data(), ref_rec.data(),
                                     ref_rec.size() * sizeof(T)) == 0;
  return kt;
}

template <typename T>
bool sweep_shape(const Dims& dims, const char* dtype, std::FILE* json,
                 bool* first_row) {
  const auto data = make_field<T>(dims);
  const sz::LinearQuantizer q(1e-3 * 2.6, 16);  // rel 1e-3 of the range
  const double mb = static_cast<double>(dims.count() * sizeof(T)) / 1e6;

  const auto ref = sz::detail::lorenzo_pqd_t<T>(
      std::span<const T>(data), dims, q);
  std::printf("%s %s (%.1f MB, %zu unpredictable)\n", dims.str().c_str(),
              dtype, mb, ref.unpredictable.size());

  bool all_ok = true;
  double serial_pqd = 0, serial_rec = 0;
  for (int threads : {1, 2, 4, 8}) {
    const auto kt = run_one<T>(std::span<const T>(data), dims, q, threads,
                               ref.codes, ref.reconstructed);
    if (threads == 1) {
      serial_pqd = kt.pqd_s;
      serial_rec = kt.rec_s;
    }
    all_ok = all_ok && kt.exact;
    std::printf(
        "  threads=%d  pqd %7.1f MB/s (speedup %4.2fx)  "
        "reconstruct %7.1f MB/s (speedup %4.2fx)  parity %s\n",
        threads, mb / kt.pqd_s, serial_pqd / kt.pqd_s, mb / kt.rec_s,
        serial_rec / kt.rec_s, kt.exact ? "ok" : "FAIL");
    if (json != nullptr) {
      std::fprintf(
          json,
          "%s    {\"shape\": \"%s\", \"dtype\": \"%s\", \"threads\": %d, "
          "\"pqd_mbps\": %.2f, \"pqd_speedup_vs_serial\": %.3f, "
          "\"reconstruct_mbps\": %.2f, \"reconstruct_speedup_vs_serial\": "
          "%.3f, \"bit_exact\": %s}",
          *first_row ? "" : ",\n", dims.str().c_str(), dtype, threads,
          mb / kt.pqd_s, serial_pqd / kt.pqd_s, mb / kt.rec_s,
          serial_rec / kt.rec_s, kt.exact ? "true" : "false");
      *first_row = false;
    }
  }
  return all_ok;
}

// Levels to sweep: scalar always, wider ISAs only where the CPU has them
// (set_level clamps, so asking higher would silently re-run the widest).
std::vector<simd::Level> sweep_levels() {
  std::vector<simd::Level> out{simd::Level::Scalar};
  if (simd::detected() >= simd::Level::Sse2) out.push_back(simd::Level::Sse2);
  if (simd::detected() >= simd::Level::Avx2) out.push_back(simd::Level::Avx2);
  return out;
}

// Per-kernel simd dispatch sweep on the serial entry points (the production
// path: lorenzo_pqd_t / lorenzo_reconstruct_t pick the vectorized tile
// schedule from simd::active()). Emits the "simd_levels" rows of
// BENCH_pqd.json.
template <typename T>
bool sweep_simd_shape(const Dims& dims, const char* dtype, std::FILE* json,
                      bool* first_row) {
  const auto data = make_field<T>(dims);
  const sz::LinearQuantizer q(1e-3 * 2.6, 16);
  const double mb = static_cast<double>(dims.count() * sizeof(T)) / 1e6;
  const std::span<const T> span(data);

  simd::set_level(simd::Level::Scalar);
  const auto ref = sz::detail::lorenzo_pqd_t<T>(span, dims, q);
  std::vector<T> unpred = ref.unpredictable;
  for (auto& v : unpred) {
    v = sz::detail::FpOps<T>::roundtrip(v, q.precision());
  }

  std::printf("%s %s (%.1f MB) — simd dispatch sweep (serial kernels)\n",
              dims.str().c_str(), dtype, mb);

  bool all_ok = true;
  double scalar_pqd = 0, scalar_rec = 0;
  Stopwatch sw;
  for (const simd::Level level : sweep_levels()) {
    simd::set_level(level);
    typename sz::detail::FpOps<T>::PqdType pqd;
    double pqd_s = 1e30;
    for (int r = 0; r < kReps; ++r) {
      sw.reset();
      pqd = sz::detail::lorenzo_pqd_t<T>(span, dims, q);
      pqd_s = std::min(pqd_s, sw.seconds());
    }
    std::vector<T> rec;
    double rec_s = 1e30;
    for (int r = 0; r < kReps; ++r) {
      sw.reset();
      rec = sz::detail::lorenzo_reconstruct_t<T>(pqd.codes, unpred, dims, q);
      rec_s = std::min(rec_s, sw.seconds());
    }
    const bool exact =
        pqd.codes == ref.codes &&
        std::memcmp(pqd.reconstructed.data(), ref.reconstructed.data(),
                    ref.reconstructed.size() * sizeof(T)) == 0 &&
        std::memcmp(rec.data(), ref.reconstructed.data(),
                    ref.reconstructed.size() * sizeof(T)) == 0;
    all_ok = all_ok && exact;
    if (level == simd::Level::Scalar) {
      scalar_pqd = pqd_s;
      scalar_rec = rec_s;
    }
    std::printf(
        "  level=%-6s pqd %7.1f MB/s (%.2fx)  reconstruct %7.1f MB/s "
        "(%.2fx)  parity %s\n",
        simd::level_name(level), mb / pqd_s, scalar_pqd / pqd_s, mb / rec_s,
        scalar_rec / rec_s, exact ? "ok" : "FAIL");
    if (json != nullptr) {
      std::fprintf(
          json,
          "%s    {\"shape\": \"%s\", \"dtype\": \"%s\", \"level\": \"%s\", "
          "\"pqd_mbps\": %.2f, \"pqd_speedup_vs_scalar\": %.3f, "
          "\"reconstruct_mbps\": %.2f, "
          "\"reconstruct_speedup_vs_scalar\": %.3f, \"bit_exact\": %s}",
          *first_row ? "" : ",\n", dims.str().c_str(), dtype,
          simd::level_name(level), mb / pqd_s, scalar_pqd / pqd_s, mb / rec_s,
          scalar_rec / rec_s, exact ? "true" : "false");
      *first_row = false;
    }
  }
  simd::set_level(simd::detected());
  return all_ok;
}

/// Seconds of the `name` span in a stopped session's report; 0 when the
/// span is missing (telemetry compiled out).
double span_seconds(const telemetry::Report& report, const char* name) {
  for (const auto& e : report.events) {
    if (std::strcmp(e.name, name) == 0) {
      return static_cast<double>(e.duration_ns) * 1e-9;
    }
  }
  return 0.0;
}

// waveSZ column-walk sweep per SIMD level. Encode times wave_pqd_2d{,_64}
// on a wavefront-layout copy: the walk, its code vector and the verbatim
// gather. Reconstruct is the wave.reconstruct span of a region read of the
// far corner point, which rebuilds the column prefix of every point but the
// last: the walk and its output vector. Neither includes the permutes into
// and out of the wavefront layout. The levels take turns within each
// repeat, so host drift and allocator state hit them alike, and each row
// reports the median. Bit-exact means the same codes, verbatim values and
// writeback, the same G* container bytes and the same decoded bits as at
// Level::Scalar. Emits the "wave_columns" rows of BENCH_pqd.json; returns
// false on a parity failure or without telemetry.
template <typename T>
bool sweep_wave_shape(const std::vector<float>& values, const Dims& dims,
                      const char* dtype, std::FILE* json, bool* first_row) {
  constexpr int kWaveReps = 9;
  const std::vector<T> data(values.begin(), values.end());
  const std::span<const T> span(data);
  const double mb = static_cast<double>(dims.count() * sizeof(T)) / 1e6;
  const wave::WavefrontLayout layout(dims[0], dims[1]);
  const auto wf = wave::to_wavefront(span, layout);
  sz::Config cfg = wave::default_config();  // G*, v2 index
  const sz::Region corner{{dims[0] - 1, dims[1] - 2, 0},
                          {dims[0], dims[1] - 1, 1}};
  std::printf("%s %s (%.1f MB) — waveSZ column walk per simd level\n",
              dims.str().c_str(), dtype, mb);

  struct Run {
    std::vector<double> enc_s, rec_s;
    std::vector<std::uint8_t> codes, verbatim, writeback, container, decoded;
  };
  const auto levels = sweep_levels();
  std::vector<Run> runs(levels.size());
  const auto bits = [](const auto& v) {
    std::vector<std::uint8_t> out(v.size() * sizeof(v[0]));
    if (!v.empty()) std::memcpy(out.data(), v.data(), out.size());
    return out;
  };
  Stopwatch sw;
  for (int r = 0; r < kWaveReps; ++r) {
    for (std::size_t l = 0; l < levels.size(); ++l) {
      simd::set_level(levels[l]);
      Run& run = runs[l];
      const auto c = wave::compress(span, dims, cfg);
      const sz::LinearQuantizer q(c.header.eb_absolute, c.header.quant_bits);
      auto walk = wf;
      sw.reset();
      const auto kr = [&] {
        if constexpr (std::is_same_v<T, float>) {
          return wave::wave_pqd_2d(walk, layout, q);
        } else {
          return wave::wave_pqd_2d_64(walk, layout, q);
        }
      }();
      run.enc_s.push_back(sw.seconds());
      telemetry::Session session;
      if constexpr (std::is_same_v<T, float>) {
        (void)wave::decompress_region(c.bytes, corner);
      } else {
        (void)wave::decompress_region64(c.bytes, corner);
      }
      run.rec_s.push_back(
          span_seconds(session.stop(), telemetry::spans::kWaveReconstruct));
      if (r == 0) {
        run.codes = bits(kr.codes);
        run.verbatim = bits(kr.verbatim);
        run.writeback = bits(walk);
        run.container = c.bytes;
        if constexpr (std::is_same_v<T, float>) {
          run.decoded = bits(wave::decompress(c.bytes));
        } else {
          run.decoded = bits(wave::decompress64(c.bytes));
        }
      }
    }
  }
  simd::set_level(simd::detected());
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };

  bool all_ok = true;
  const double scalar_enc = median(runs[0].enc_s);
  const double scalar_rec = median(runs[0].rec_s);
  if (scalar_rec <= 0.0) {
    std::printf("  no wave.reconstruct span (telemetry compiled out)\n");
    return false;
  }
  for (std::size_t l = 0; l < levels.size(); ++l) {
    const Run& run = runs[l];
    const double enc = median(run.enc_s);
    const double rec = median(run.rec_s);
    const bool exact = run.codes == runs[0].codes &&
                       run.verbatim == runs[0].verbatim &&
                       run.writeback == runs[0].writeback &&
                       run.container == runs[0].container &&
                       run.decoded == runs[0].decoded;
    all_ok = all_ok && exact;
    std::printf(
        "  level=%-6s encode %7.1f MB/s (%.2fx)  reconstruct %7.1f MB/s "
        "(%.2fx)  parity %s\n",
        simd::level_name(levels[l]), mb / enc, scalar_enc / enc, mb / rec,
        scalar_rec / rec, exact ? "ok" : "FAIL");
    if (json != nullptr) {
      std::fprintf(
          json,
          "%s    {\"shape\": \"%s\", \"dtype\": \"%s\", \"level\": \"%s\", "
          "\"encode_mbps\": %.2f, \"encode_speedup_vs_scalar\": %.3f, "
          "\"reconstruct_mbps\": %.2f, "
          "\"reconstruct_speedup_vs_scalar\": %.3f, \"bit_exact\": %s}",
          *first_row ? "" : ",\n", dims.str().c_str(), dtype,
          simd::level_name(levels[l]), mb / enc, scalar_enc / enc, mb / rec,
          scalar_rec / rec, exact ? "true" : "false");
      *first_row = false;
    }
  }
  return all_ok;
}

}  // namespace

int main(int argc, char** argv) {
  (void)bench::Options::parse(argc, argv);
  bench::print_header(
      "Wavefront-parallel PQD — threads x shape x dtype sweep",
      "the paper's anti-diagonal schedule (SS3.2) on the CPU hot path");
  std::printf("hardware threads available: %d\n", hardware_threads());
  std::printf("simd: detected=%s active=%s\n\n",
              simd::level_name(simd::detected()),
              simd::level_name(simd::active()));

  // The thread rows measure raw scheduler scaling, so the small-field work
  // floor (which would silently serialize the 512x512 rows) is lifted for
  // the sweep; the production crossover it encodes is characterized in
  // EXPERIMENTS.md instead.
  const std::size_t saved_floor = sz::wavefront_min_points_per_thread();
  sz::set_wavefront_min_points_per_thread(0);

  std::FILE* json = std::fopen("BENCH_pqd.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"hardware_threads\": %d,\n"
                 "  \"simd_detected\": \"%s\",\n  \"results\": [\n",
                 hardware_threads(), simd::level_name(simd::detected()));
  }

  bool first_row = true;
  bool all_ok = true;
  all_ok &= sweep_shape<float>(Dims::d2(512, 512), "f32", json, &first_row);
  all_ok &= sweep_shape<double>(Dims::d2(512, 512), "f64", json, &first_row);
  all_ok &= sweep_shape<float>(Dims::d2(2048, 2048), "f32", json, &first_row);
  all_ok &= sweep_shape<float>(Dims::d3(64, 256, 256), "f32", json,
                               &first_row);
  all_ok &= sweep_shape<double>(Dims::d3(64, 256, 256), "f64", json,
                                &first_row);

  if (json != nullptr) {
    std::fprintf(json, "\n  ],\n  \"simd_levels\": [\n");
  }
  std::printf("\n");
  bool first_simd = true;
  all_ok &= sweep_simd_shape<float>(Dims::d2(512, 512), "f32", json,
                                    &first_simd);
  all_ok &= sweep_simd_shape<float>(Dims::d2(2048, 2048), "f32", json,
                                    &first_simd);
  all_ok &= sweep_simd_shape<double>(Dims::d2(2048, 2048), "f64", json,
                                     &first_simd);

  sz::set_wavefront_min_points_per_thread(saved_floor);

  // One CESM field (the climate2d_serial shape), and the same values as a
  // 16-row grid: the column height of a 16-plane stream chunk.
  if (json != nullptr) {
    std::fprintf(json, "\n  ],\n  \"wave_columns\": [\n");
  }
  std::printf("\n");
  const auto cesm = data::fields(data::Persona::CesmAtm, 2).front();
  const auto values = cesm.materialize();
  const Dims tall = cesm.dims;
  const Dims chunk = Dims::d2(16, tall.count() / 16);
  bool first_wave = true;
  for (const Dims& dims : {tall, chunk}) {
    all_ok &= sweep_wave_shape<float>(values, dims, "f32", json, &first_wave);
    all_ok &= sweep_wave_shape<double>(values, dims, "f64", json, &first_wave);
  }

  if (json != nullptr) {
    std::fprintf(json, "\n  ]\n}\n");
    std::fclose(json);
    std::printf("\nresults written to BENCH_pqd.json\n");
  }
  std::printf("note: speedups need physical cores; this sweep reports the "
              "machine it ran on\n(hardware_threads above) rather than an "
              "assumed topology.\n");
  return all_ok ? 0 : 1;
}
