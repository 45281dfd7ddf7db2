// Shared helpers for the per-table/per-figure benchmark harnesses.
//
// Every bench accepts:
//   --scale N   global downscale divisor override (default: per-persona
//               values that preserve the paper-native border fractions)
//   --full      run at the paper-native dimensions (2-3 GB of field data;
//               slow on a laptop, exact geometry)
//   --repeat N  time each measured kernel N times and report the median
//               wall time (default 1)
//   --json F    additionally dump every per-field row to F as JSON, so the
//               BENCH_*.json fixtures regenerate without stdout copy-paste
//   --perf      sample hardware counters (perf_event_open) around the timed
//               SZ kernel and report IPC / cache misses per kilo-instruction
//               (silently skipped where counters are unavailable)
// and prints the paper's reference numbers next to the reproduced ones.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/wavesz.hpp"
#include "data/datasets.hpp"
#include "ghostsz/ghostsz.hpp"
#include "metrics/stats.hpp"
#include "sz/compressor.hpp"
#include "telemetry/perf_counters.hpp"
#include "util/dims.hpp"
#include "util/timer.hpp"

namespace wavesz::bench {

struct Options {
  unsigned scale_override = 0;  // 0 = per-persona default
  bool full = false;
  unsigned repeat = 1;          // median-of-N for reported wall times
  bool perf = false;            // hardware-counter sampling of timed kernels
  std::string json_path;        // empty = no JSON row dump

  static Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--full") {
        o.full = true;
      } else if (a == "--scale" && i + 1 < argc) {
        o.scale_override = static_cast<unsigned>(std::stoul(argv[++i]));
      } else if (a == "--repeat" && i + 1 < argc) {
        o.repeat = static_cast<unsigned>(std::stoul(argv[++i]));
        if (o.repeat == 0) o.repeat = 1;
      } else if (a == "--json" && i + 1 < argc) {
        o.json_path = argv[++i];
      } else if (a == "--perf") {
        o.perf = true;
      } else if (a == "--help" || a == "-h") {
        std::printf("usage: %s [--scale N] [--full] [--repeat N] "
                    "[--json <out.json>] [--perf]\n", argv[0]);
        std::exit(0);
      }
    }
    if (o.perf) {
      telemetry::set_perf_enabled(true);
      if (!telemetry::perf_available()) {
        std::fprintf(stderr, "perf: hardware counters unavailable "
                             "(perf_event_open denied?); IPC columns will "
                             "read 0\n");
      }
    }
    return o;
  }

  unsigned scale_for(data::Persona p) const {
    if (full) return 1;
    if (scale_override > 0) return scale_override;
    switch (p) {
      case data::Persona::CesmAtm: return 16;   // 112 x 225
      case data::Persona::Hurricane: return 2;  // 50 x 250 x 250
      case data::Persona::Nyx: return 8;        // 64^3
    }
    return 16;
  }
};

/// Per-field results of running every compressor variant.
struct FieldRow {
  std::string name;
  double ratio_sz = 0, ratio_ghost = 0, ratio_wave_g = 0, ratio_wave_hg = 0;
  double ratio_sz_g = 0;  ///< SZ-1.4 without customized Huffman (G*)
  double psnr_sz = 0, psnr_ghost = 0, psnr_wave = 0;
  double mbps_sz = 0;  ///< measured single-core SZ-1.4 compression speed
  /// Hardware-counter view of the timed SZ kernel (0 unless --perf sampled
  /// successfully): instructions per cycle and cache misses per kilo-instr.
  double ipc_sz = 0, cache_mpki_sz = 0;
};

/// Averages across a persona's fields.
struct PersonaSummary {
  std::vector<FieldRow> rows;
  double avg(double FieldRow::* member) const {
    double s = 0;
    for (const auto& r : rows) s += r.*member;
    return rows.empty() ? 0.0 : s / static_cast<double>(rows.size());
  }
};

/// Run each of `jobs` once per repeat, in turn, and return each job's
/// median wall time in seconds. Taking turns within every repeat lets host
/// drift and allocator state hit the jobs alike, so their ratios hold even
/// when the host changes speed mid-run; the median (not the first or the
/// mean) keeps each column stable under cold caches and scheduler noise.
inline std::vector<double> interleaved_median_seconds(
    unsigned repeat, const std::vector<std::function<void()>>& jobs) {
  std::vector<std::vector<double>> secs(jobs.size());
  for (unsigned r = 0; r < repeat; ++r) {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      Stopwatch sw;
      jobs[j]();
      secs[j].push_back(sw.seconds());
    }
  }
  std::vector<double> out;
  for (auto& s : secs) {
    std::sort(s.begin(), s.end());
    const std::size_t n = s.size();
    out.push_back(n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]));
  }
  return out;
}

/// Run `fn` `repeat` times and return the median wall time in seconds.
template <typename Fn>
double median_seconds(unsigned repeat, Fn&& fn) {
  return interleaved_median_seconds(repeat, {std::forward<Fn>(fn)})[0];
}

inline PersonaSummary sweep_persona(data::Persona p, const Options& opts,
                                    bool want_psnr = true) {
  PersonaSummary out;
  for (const auto& f : data::fields(p, opts.scale_for(p))) {
    const auto grid = f.materialize();
    const double raw = static_cast<double>(grid.size() * sizeof(float));
    FieldRow row;
    row.name = f.name;

    sz::Compressed c_sz;
    const telemetry::PerfReading hw0 = telemetry::perf_now();
    const double sz_secs = median_seconds(opts.repeat, [&] {
      c_sz = sz::compress(grid, f.dims, sz::Config{});
    });
    const telemetry::PerfReading hw =
        telemetry::perf_delta(hw0, telemetry::perf_now());
    if (hw.valid && hw.cycles > 0 && hw.instructions > 0) {
      row.ipc_sz = static_cast<double>(hw.instructions) /
                   static_cast<double>(hw.cycles);
      row.cache_mpki_sz = static_cast<double>(hw.cache_misses) * 1e3 /
                          static_cast<double>(hw.instructions);
    }
    row.mbps_sz =
        static_cast<double>(grid.size() * sizeof(float)) / 1e6 / sz_secs;
    row.ratio_sz = raw / static_cast<double>(c_sz.bytes.size());

    sz::Config cfg_sz_g;
    cfg_sz_g.huffman = false;
    row.ratio_sz_g = raw / static_cast<double>(
                               sz::compress(grid, f.dims, cfg_sz_g).bytes.size());

    const auto c_ghost = ghost::compress(grid, f.dims, sz::Config{});
    row.ratio_ghost = raw / static_cast<double>(c_ghost.bytes.size());

    auto cfg_wave = wave::default_config();
    const auto c_wg = wave::compress(grid, f.dims, cfg_wave);
    row.ratio_wave_g = raw / static_cast<double>(c_wg.bytes.size());

    cfg_wave.huffman = true;
    const auto c_whg = wave::compress(grid, f.dims, cfg_wave);
    row.ratio_wave_hg = raw / static_cast<double>(c_whg.bytes.size());

    if (want_psnr) {
      row.psnr_sz =
          metrics::distortion(grid, sz::decompress(c_sz.bytes)).psnr_db;
      row.psnr_ghost =
          metrics::distortion(grid, ghost::decompress(c_ghost.bytes))
              .psnr_db;
      row.psnr_wave =
          metrics::distortion(grid, wave::decompress(c_wg.bytes)).psnr_db;
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

inline void print_header(const char* title, const char* paper_anchor) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_anchor);
  std::printf("================================================================\n");
}

inline void print_scale_note(const Options& opts) {
  if (opts.full) {
    std::printf("(paper-native dimensions)\n");
  } else {
    std::printf("(synthetic personas at reduced scale; pass --full for "
                "paper-native dims)\n");
  }
  if (opts.repeat > 1) {
    std::printf("(timings are the median of %u runs)\n", opts.repeat);
  }
}

namespace detail {

inline void json_escape_to(std::FILE* f, const std::string& s) {
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      std::fputc('\\', f);
      std::fputc(ch, f);
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      std::fprintf(f, "\\u%04x", static_cast<unsigned>(ch));
    } else {
      std::fputc(ch, f);
    }
  }
}

}  // namespace detail

/// Dump every per-field row gathered by a bench to `opts.json_path` (no-op
/// when --json was not given). The schema is one object per persona with
/// the full FieldRow contents, so BENCH_*.json fixtures regenerate from a
/// single flag instead of copy-pasting stdout.
inline void write_rows_json(
    const Options& opts, const char* bench_name,
    const std::vector<std::pair<std::string, PersonaSummary>>& personas) {
  if (opts.json_path.empty()) return;
  std::FILE* f = std::fopen(opts.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", opts.json_path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"full\": %s,\n"
               "  \"scale_override\": %u,\n  \"repeat\": %u,\n"
               "  \"personas\": [",
               bench_name, opts.full ? "true" : "false", opts.scale_override,
               opts.repeat);
  bool first_p = true;
  for (const auto& [name, summary] : personas) {
    std::fprintf(f, "%s\n    {\"name\": \"", first_p ? "" : ",");
    first_p = false;
    detail::json_escape_to(f, name);
    std::fprintf(f, "\", \"rows\": [");
    bool first_r = true;
    for (const auto& r : summary.rows) {
      std::fprintf(f, "%s\n      {\"field\": \"", first_r ? "" : ",");
      first_r = false;
      detail::json_escape_to(f, r.name);
      std::fprintf(f,
                   "\", \"ratio_sz\": %.10g, \"ratio_ghost\": %.10g, "
                   "\"ratio_wave_g\": %.10g, \"ratio_wave_hg\": %.10g, "
                   "\"ratio_sz_g\": %.10g, "
                   "\"psnr_sz\": %.10g, \"psnr_ghost\": %.10g, "
                   "\"psnr_wave\": %.10g, \"mbps_sz\": %.10g",
                   r.ratio_sz, r.ratio_ghost, r.ratio_wave_g, r.ratio_wave_hg,
                   r.ratio_sz_g, r.psnr_sz, r.psnr_ghost, r.psnr_wave,
                   r.mbps_sz);
      // Hardware-counter columns appear only under --perf so the committed
      // fixtures regenerate byte-stable on machines without counter access.
      if (opts.perf) {
        std::fprintf(f, ", \"ipc_sz\": %.10g, \"cache_mpki_sz\": %.10g",
                     r.ipc_sz, r.cache_mpki_sz);
      }
      std::fputc('}', f);
    }
    std::fprintf(f, "\n    ]}");
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("\nrows dumped to %s\n", opts.json_path.c_str());
}

}  // namespace wavesz::bench
