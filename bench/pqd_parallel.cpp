// Wavefront-parallel PQD sweep: threads x shape x dtype on the Lorenzo
// prediction-quantization hot path (compress kernel) and the reconstruction
// sweep (decompress kernel). Each shape times the raster-order reference
// loop, the serial skewed row walk and the tiled anti-diagonal schedule of
// sz/wavefront_pqd.hpp, then the waveSZ column walks per SIMD level.
// Verifies that every walk and tile row matches the raster loop bit for bit
// and emits machine-readable results to BENCH_pqd.json in the working
// directory (schema in EXPERIMENTS.md).
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
#include "util/fork_join.hpp"
#include "util/simd.hpp"

namespace {

using namespace wavesz;

int hardware_threads() { return util::resolve_thread_budget(0); }

// Every sweep interleaves its variants (kernels and thread counts, or SIMD
// levels) within each of --repeat repeats, so host drift and allocator
// state hit them alike, and each row reports the median over the repeats.
double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Per-repeat seconds of one variant, and whether every repeat matched the
/// raster reference bit for bit.
struct Timings {
  std::vector<double> pqd_s, rec_s;
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

/// The raster-order PQD of `data` and the decompressor-visible (truncated)
/// unpredictable values the reconstruction kernels expect, exactly what the
/// container's decode path feeds them; the PQD output carries the raw
/// originals.
template <typename T>
struct Reference {
  sz::PqdT<T> pqd;
  std::vector<T> unpred;

  Reference(std::span<const T> data, const Dims& dims,
            const sz::LinearQuantizer& q)
      : pqd(sz::detail::lorenzo_pqd_raster_t<T>(data, dims, q)),
        unpred(pqd.unpredictable) {
    for (auto& v : unpred) {
      v = sz::truncation_roundtrip(v, q.precision());
    }
  }

  /// Whether a PQD and a reconstruction both match the reference bits.
  bool matches(const sz::PqdT<T>& got,
               const std::vector<T>& rec) const {
    const std::size_t bytes = pqd.reconstructed.size() * sizeof(T);
    return got.codes == pqd.codes &&
           std::memcmp(got.reconstructed.data(), pqd.reconstructed.data(),
                       bytes) == 0 &&
           std::memcmp(rec.data(), pqd.reconstructed.data(), bytes) == 0;
  }
};

/// One shape: the raster loop, then the skewed walk at 1 thread and the
/// tiles at 2, 4 and 8, taking turns within every repeat. Emits one
/// "raster" row and four "walk" rows of the "results" table.
template <typename T>
bool sweep_shape(const Dims& dims, const char* dtype, unsigned repeat,
                 std::FILE* json, bool* first_row) {
  const auto data = make_field<T>(dims);
  const std::span<const T> span(data);
  const sz::LinearQuantizer q(1e-3 * 2.6, 16);  // rel 1e-3 of the range
  const double mb = static_cast<double>(dims.count() * sizeof(T)) / 1e6;
  const auto kind = sz::PredictorKind::Lorenzo1Layer;

  const Reference<T> ref(span, dims, q);
  std::printf("%s %s (%.1f MB, %zu unpredictable)\n", dims.str().c_str(),
              dtype, mb, ref.pqd.unpredictable.size());

  constexpr int kThreads[] = {1, 2, 4, 8};
  Timings raster;
  std::vector<Timings> runs(std::size(kThreads));
  Stopwatch sw;
  for (unsigned r = 0; r < repeat; ++r) {
    sw.reset();
    (void)sz::detail::lorenzo_pqd_raster_t<T>(span, dims, q);
    raster.pqd_s.push_back(sw.seconds());
    sw.reset();
    (void)sz::detail::lorenzo_reconstruct_raster_t<T>(
        ref.pqd.codes, std::span<const T>(ref.unpred), dims, q);
    raster.rec_s.push_back(sw.seconds());
    for (std::size_t k = 0; k < runs.size(); ++k) {
      const int threads = kThreads[k];
      sw.reset();
      const auto pqd =
          threads == 1 ? sz::detail::lorenzo_pqd_t<T>(span, dims, q)
                       : sz::detail::lorenzo_pqd_wavefront_t<T>(
                             span, dims, q, kind, threads);
      runs[k].pqd_s.push_back(sw.seconds());
      sw.reset();
      const auto rec =
          threads == 1
              ? sz::detail::lorenzo_reconstruct_t<T>(ref.pqd.codes,
                                                     ref.unpred, dims, q)
              : sz::detail::lorenzo_reconstruct_wavefront_t<T>(
                    ref.pqd.codes, ref.unpred, dims, q, kind, threads);
      runs[k].rec_s.push_back(sw.seconds());
      runs[k].exact = runs[k].exact && ref.matches(pqd, rec);
    }
  }

  const double raster_pqd = median(raster.pqd_s);
  const double raster_rec = median(raster.rec_s);
  std::printf("  raster     pqd %7.1f MB/s                   "
              "reconstruct %7.1f MB/s\n",
              mb / raster_pqd, mb / raster_rec);
  if (json != nullptr) {
    std::fprintf(json,
                 "%s    {\"shape\": \"%s\", \"dtype\": \"%s\", "
                 "\"kernel\": \"raster\", \"threads\": 1, "
                 "\"pqd_mbps\": %.2f, \"reconstruct_mbps\": %.2f}",
                 *first_row ? "" : ",\n", dims.str().c_str(), dtype,
                 mb / raster_pqd, mb / raster_rec);
    *first_row = false;
  }
  bool all_ok = true;
  for (std::size_t k = 0; k < runs.size(); ++k) {
    const double pqd_s = median(runs[k].pqd_s);
    const double rec_s = median(runs[k].rec_s);
    const bool exact = runs[k].exact;
    all_ok = all_ok && exact;
    std::printf(
        "  threads=%d  pqd %7.1f MB/s (vs raster %4.2fx)  "
        "reconstruct %7.1f MB/s (vs raster %4.2fx)  parity %s\n",
        kThreads[k], mb / pqd_s, raster_pqd / pqd_s, mb / rec_s,
        raster_rec / rec_s, exact ? "ok" : "FAIL");
    if (json != nullptr) {
      std::fprintf(
          json,
          "%s    {\"shape\": \"%s\", \"dtype\": \"%s\", "
          "\"kernel\": \"walk\", \"threads\": %d, \"pqd_mbps\": %.2f, "
          "\"pqd_speedup_vs_raster\": %.3f, \"reconstruct_mbps\": %.2f, "
          "\"reconstruct_speedup_vs_raster\": %.3f, \"bit_exact\": %s}",
          *first_row ? "" : ",\n", dims.str().c_str(), dtype, kThreads[k],
          mb / pqd_s, raster_pqd / pqd_s, mb / rec_s, raster_rec / rec_s,
          exact ? "true" : "false");
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
                      const char* dtype, unsigned repeat, std::FILE* json,
                      bool* first_row) {
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
  for (unsigned r = 0; r < repeat; ++r) {
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
  const auto opts = bench::Options::parse(argc, argv);
  bench::print_header(
      "Wavefront-parallel PQD — threads x shape x dtype sweep",
      "the paper's anti-diagonal schedule (SS3.2) on the CPU hot path");
  std::printf("hardware threads available: %d\n", hardware_threads());
  std::printf("simd: detected=%s active=%s\n",
              simd::level_name(simd::detected()),
              simd::level_name(simd::active()));
  std::printf("timings are the median of %u interleaved repeats\n\n",
              opts.repeat);

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
                 "  \"simd_detected\": \"%s\",\n  \"repeat\": %u,\n"
                 "  \"results\": [\n",
                 hardware_threads(), simd::level_name(simd::detected()),
                 opts.repeat);
  }

  bool first_row = true;
  bool all_ok = true;
  const unsigned rep = opts.repeat;
  all_ok &= sweep_shape<float>(Dims::d2(512, 512), "f32", rep, json,
                               &first_row);
  all_ok &= sweep_shape<double>(Dims::d2(512, 512), "f64", rep, json,
                                &first_row);
  all_ok &= sweep_shape<float>(Dims::d2(2048, 2048), "f32", rep, json,
                               &first_row);
  all_ok &= sweep_shape<double>(Dims::d2(2048, 2048), "f64", rep, json,
                                &first_row);
  all_ok &= sweep_shape<float>(Dims::d3(64, 256, 256), "f32", rep, json,
                               &first_row);
  all_ok &= sweep_shape<double>(Dims::d3(64, 256, 256), "f64", rep, json,
                                &first_row);

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
    all_ok &= sweep_wave_shape<float>(values, dims, "f32", rep, json,
                                      &first_wave);
    all_ok &= sweep_wave_shape<double>(values, dims, "f64", rep, json,
                                       &first_wave);
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
