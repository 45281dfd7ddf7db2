// Artifact-style command-line tool for raw float32 files, mirroring the
// paper artifact's `cpurun` interface:
//
//   wavesz_cli compress   <in.f32> <out.wsz> <d0> [d1 [d2]]
//              [--mode wave|ghost|sz] [--eb 1e-3] [--abs] [--base10]
//              [--huffman] [--best] [--f64] [--pqd-threads n]
//              [--codec-threads n]
//   wavesz_cli decompress <in.wsz> <out.f32>
//   wavesz_cli info       <in.wsz>
//
// Global flags (any subcommand): --trace <out.json> writes a Chrome
// trace-event file of the run (open in ui.perfetto.dev), --stats prints the
// per-stage breakdown (with p50/p99 and histogram percentiles) and pipeline
// counters to stderr, --metrics <out.prom> writes the run's metrics in
// Prometheus text exposition format, --perf samples hardware counters
// (cycles/instructions/cache/branch misses) on the coarse pipeline stages
// where perf_event_open is available.
//
// Example (artifact equivalent of `cpurun 1800 3600 1 -3 base10 F wave`):
//   wavesz_cli compress F.dat F.wsz 1800 3600 --mode wave --eb 1e-3
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/wavesz.hpp"
#include "data/io.hpp"
#include "ghostsz/ghostsz.hpp"
#include "metrics/stats.hpp"
#include "sz/compressor.hpp"
#include "sz/container.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace {

using namespace wavesz;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  wavesz_cli compress   <in.f32> <out.wsz> <d0> [d1 [d2]]\n"
               "             [--mode wave|ghost|sz|szx] [--eb 1e-3] [--abs]\n"
               "             [--base10] [--huffman] [--best] [--no-index]\n"
               "             [--ultrafast] [--f64] [--pqd-threads <n>]\n"
               "             [--codec-threads <n>]\n"
               "  wavesz_cli decompress <in.wsz> <out.f32>\n"
               "             [--decode-threads <n>] [--region "
               "lo:hi[,lo:hi[,lo:hi]]]\n"
               "  wavesz_cli info       <in.wsz>\n"
               "global flags: [--trace <out.json>] [--stats]\n"
               "              [--metrics <out.prom>] [--perf]\n"
               "\n"
               "--no-index emits the v1 container (no per-chunk offset\n"
               "table); --decode-threads n decodes v2 containers with n\n"
               "workers (0 = all cores); --region decodes only the given\n"
               "hyperslab (half-open per-axis intervals, raster order);\n"
               "--ultrafast (same as --mode szx) selects the SZx-style\n"
               "block codec: highest throughput, no entropy stage;\n"
               "--f64 reads <in> as float64; --pqd-threads and\n"
               "--codec-threads set the compress thread budgets of the\n"
               "prediction/quantization and the Huffman/DEFLATE stages\n"
               "(1 = serial, the default; 0 = all cores). Every budget\n"
               "writes the same v2 container bytes; --no-index and ghost\n"
               "containers hold one DEFLATE stream per section at\n"
               "--codec-threads 1 and chunked streams at any other budget,\n"
               "the same on every host.\n");
  return 2;
}

/// Parse "lo:hi[,lo:hi[,lo:hi]]" into a Region (unlisted axes stay 0:0,
/// which decompress_region widens to the full extent).
sz::Region parse_region(const std::string& spec) {
  sz::Region rg;
  std::size_t axis = 0;
  std::size_t at = 0;
  while (at <= spec.size()) {
    WAVESZ_REQUIRE(axis < 3, "--region takes at most three axes");
    const std::size_t comma = std::min(spec.find(',', at), spec.size());
    const std::size_t colon = spec.find(':', at);
    WAVESZ_REQUIRE(colon != std::string::npos && colon < comma,
                   "--region axis must be lo:hi");
    rg.lo[axis] = std::stoul(spec.substr(at, colon - at));
    rg.hi[axis] = std::stoul(spec.substr(colon + 1, comma - colon - 1));
    ++axis;
    at = comma + 1;
  }
  return rg;
}

int do_compress(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string in = argv[0], out = argv[1];
  std::vector<std::size_t> extents;
  int i = 2;
  for (; i < argc && argv[i][0] != '-'; ++i) {
    extents.push_back(std::stoul(argv[i]));
  }
  std::string mode = "wave";
  sz::Config cfg;
  bool base10 = false, huffman = false, best = false, f64 = false;
  for (; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--mode" && i + 1 < argc) {
      mode = argv[++i];
    } else if (a == "--eb" && i + 1 < argc) {
      cfg.error_bound = std::stod(argv[++i]);
    } else if (a == "--abs") {
      cfg.mode = sz::EbMode::Absolute;
    } else if (a == "--base10") {
      base10 = true;
    } else if (a == "--huffman") {
      huffman = true;
    } else if (a == "--best") {
      best = true;
    } else if (a == "--f64") {
      f64 = true;
    } else if (a == "--no-index") {
      cfg.chunk_index = false;
    } else if (a == "--pqd-threads" && i + 1 < argc) {
      cfg.pqd_threads = std::stoi(argv[++i]);
    } else if (a == "--codec-threads" && i + 1 < argc) {
      cfg.codec_threads = std::stoi(argv[++i]);
    } else if (a == "--ultrafast") {
      mode = "szx";
    } else {
      return usage();
    }
  }
  if (extents.empty() || extents.size() > 3) return usage();

  const Dims dims = extents.size() == 1 ? Dims::d1(extents[0])
                    : extents.size() == 2
                        ? Dims::d2(extents[0], extents[1])
                        : Dims::d3(extents[0], extents[1], extents[2]);
  if (best) cfg.gzip_level = deflate::Level::Best;

  std::vector<float> field32;
  std::vector<double> field64;
  std::size_t raw_bytes = 0;
  if (f64) {
    const auto raw = data::read_bytes(in);
    WAVESZ_REQUIRE(raw.size() == dims.count() * sizeof(double),
                   "file size disagrees with float64 dims");
    field64.resize(dims.count());
    std::memcpy(field64.data(), raw.data(), raw.size());
    raw_bytes = raw.size();
  } else {
    field32 = data::read_f32(in);
    WAVESZ_REQUIRE(field32.size() == dims.count(),
                   "file holds " + std::to_string(field32.size()) +
                       " floats but dims need " +
                       std::to_string(dims.count()));
    raw_bytes = field32.size() * sizeof(float);
  }

  Stopwatch sw;
  sz::Compressed c;
  if (mode == "wave") {
    auto wcfg = wave::default_config();
    wcfg.error_bound = cfg.error_bound;
    wcfg.mode = cfg.mode;
    wcfg.gzip_level = cfg.gzip_level;
    wcfg.chunk_index = cfg.chunk_index;
    wcfg.pqd_threads = cfg.pqd_threads;
    wcfg.codec_threads = cfg.codec_threads;
    if (base10) wcfg.base = sz::EbBase::Ten;
    wcfg.huffman = huffman;
    c = f64 ? wave::compress(std::span<const double>(field64), dims, wcfg)
            : wave::compress(std::span<const float>(field32), dims, wcfg);
  } else if (mode == "ghost") {
    WAVESZ_REQUIRE(!f64, "GhostSZ supports float32 only");
    c = ghost::compress(field32, dims, cfg);
  } else if (mode == "sz") {
    cfg.huffman = true;
    c = f64 ? sz::compress(std::span<const double>(field64), dims, cfg)
            : sz::compress(std::span<const float>(field32), dims, cfg);
  } else if (mode == "szx") {
    cfg.codec = sz::Codec::Szx;
    cfg.huffman = false;
    cfg.chunk_index = false;
    c = f64 ? sz::compress(std::span<const double>(field64), dims, cfg)
            : sz::compress(std::span<const float>(field32), dims, cfg);
  } else {
    return usage();
  }
  const double secs = sw.seconds();
  data::write_bytes(out, c.bytes);
  std::printf("%s: %s %zu -> %zu bytes (ratio %.2f:1) in %.3f s "
              "(%.1f MB/s), eb_abs %.4g, %llu unpredictable\n",
              mode.c_str(), dims.str().c_str(), raw_bytes, c.bytes.size(),
              metrics::compression_ratio(raw_bytes, c.bytes.size()), secs,
              static_cast<double>(raw_bytes) / 1e6 / secs,
              c.header.eb_absolute,
              static_cast<unsigned long long>(c.header.unpredictable_count));
  return 0;
}

int do_decompress(int argc, char** argv) {
  if (argc < 2) return usage();
  const char* in = argv[0];
  const char* out = argv[1];
  sz::DecodeOptions opts;
  sz::Region region;
  bool have_region = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--decode-threads" && i + 1 < argc) {
      opts.decode_threads = std::stoi(argv[++i]);
    } else if (a == "--region" && i + 1 < argc) {
      region = parse_region(argv[++i]);
      have_region = true;
    } else {
      return usage();
    }
  }

  const auto bytes = data::read_bytes(in);
  const auto header = sz::inspect(bytes);
  if (have_region) {
    WAVESZ_REQUIRE(header.variant == sz::Variant::Sz14 ||
                       header.variant == sz::Variant::WaveSz ||
                       header.variant == sz::Variant::SzxFast,
                   "--region supports SZ-1.4, waveSZ and SZx containers");
    const bool is_wave = header.variant == sz::Variant::WaveSz;
    std::size_t values = 0;
    std::size_t bytes_read = 0;
    Dims rdims;
    if (header.dtype == 1) {
      const auto res = is_wave ? wave::decompress_region64(bytes, region, opts)
                               : sz::decompress_region64(bytes, region, opts);
      data::write_bytes(
          out, {reinterpret_cast<const std::uint8_t*>(res.data.data()),
                res.data.size() * sizeof(double)});
      values = res.data.size();
      bytes_read = res.compressed_bytes_read;
      rdims = res.region_dims;
    } else {
      const auto res = is_wave ? wave::decompress_region(bytes, region, opts)
                               : sz::decompress_region(bytes, region, opts);
      data::write_f32(out, res.data);
      values = res.data.size();
      bytes_read = res.compressed_bytes_read;
      rdims = res.region_dims;
    }
    std::printf("decompressed region %s of %s -> %s (%zu values, read "
                "%zu of %zu compressed bytes)\n",
                rdims.str().c_str(), header.dims.str().c_str(), out, values,
                bytes_read, bytes.size());
    return 0;
  }
  if (header.dtype == 1) {
    std::vector<double> field;
    switch (header.variant) {
      case sz::Variant::Sz14: field = sz::decompress64(bytes, opts); break;
      case sz::Variant::WaveSz: field = wave::decompress64(bytes, opts); break;
      case sz::Variant::SzxFast: field = sz::decompress64(bytes, opts); break;
      default: throw Error("float64 container with unsupported variant");
    }
    data::write_bytes(
        out, {reinterpret_cast<const std::uint8_t*>(field.data()),
              field.size() * sizeof(double)});
    std::printf("decompressed %s -> %s (%s, %zu doubles)\n", in, out,
                header.dims.str().c_str(), field.size());
    return 0;
  }
  std::vector<float> field;
  switch (header.variant) {
    case sz::Variant::Sz14: field = sz::decompress(bytes, opts); break;
    case sz::Variant::GhostSz: field = ghost::decompress(bytes); break;
    case sz::Variant::WaveSz: field = wave::decompress(bytes, opts); break;
    case sz::Variant::SzxFast: field = sz::decompress(bytes, opts); break;
  }
  data::write_f32(out, field);
  std::printf("decompressed %s -> %s (%s, %zu floats)\n", in, out,
              header.dims.str().c_str(), field.size());
  return 0;
}

int do_info(const char* in) {
  const auto bytes = data::read_bytes(in);
  const auto h = sz::inspect(bytes);
  const char* names[] = {"?", "SZ-1.4", "GhostSZ", "waveSZ", "SZx-fast"};
  std::printf("variant      : %s\n", names[static_cast<int>(h.variant)]);
  std::printf("dims         : %s (%llu points)\n", h.dims.str().c_str(),
              static_cast<unsigned long long>(h.point_count));
  std::printf("bound        : %g (%s%s) -> absolute %g\n", h.eb_requested,
              h.mode == sz::EbMode::Absolute ? "absolute" : "VR-relative",
              h.base == sz::EbBase::Two ? ", base-2 tightened" : "",
              h.eb_absolute);
  std::printf("dtype        : %s\n", h.dtype == 1 ? "float64" : "float32");
  std::printf("quantizer    : %d-bit bins, %s, gzip %s\n", h.quant_bits,
              h.huffman ? "customized Huffman (H*)" : "raw codes",
              h.gzip_level == deflate::Level::Best ? "best" : "fast");
  std::printf("unpredictable: %llu points\n",
              static_cast<unsigned long long>(h.unpredictable_count));
  std::printf("container    : v%d%s\n", h.version,
              h.version >= 2 ? " (chunk-indexed)" : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Strip the global telemetry flags before subcommand dispatch.
    std::string trace_path;
    std::string metrics_path;
    bool stats = false;
    bool perf = false;
    std::vector<char*> args;
    for (int i = 0; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--trace" && i + 1 < argc) {
        trace_path = argv[++i];
      } else if (a == "--metrics" && i + 1 < argc) {
        metrics_path = argv[++i];
      } else if (a == "--stats") {
        stats = true;
      } else if (a == "--perf") {
        perf = true;
      } else {
        args.push_back(argv[i]);
      }
    }
    const int n = static_cast<int>(args.size());
    if (n < 2) return usage();

    std::unique_ptr<telemetry::Session> session;
    if (!trace_path.empty() || !metrics_path.empty() || stats || perf) {
      session = std::make_unique<telemetry::Session>();
    }
    if (perf) {
      telemetry::set_perf_enabled(true);
      if (!telemetry::perf_available()) {
        std::fprintf(stderr,
                     "perf: hardware counters unavailable "
                     "(perf_event_open denied?); continuing without\n");
      }
    }
    int rc = 2;
    const std::string cmd = args[1];
    if (cmd == "compress") {
      rc = do_compress(n - 2, args.data() + 2);
    } else if (cmd == "decompress" && n >= 4) {
      rc = do_decompress(n - 2, args.data() + 2);
    } else if (cmd == "info" && n == 3) {
      rc = do_info(args[2]);
    } else {
      return usage();
    }

    if (session) {
      const telemetry::Report report = session->stop();
      if (!trace_path.empty()) {
        const std::string json = telemetry::chrome_trace_json(report);
        data::write_bytes(trace_path,
                          {reinterpret_cast<const std::uint8_t*>(json.data()),
                           json.size()});
        std::fprintf(stderr, "trace: %zu spans -> %s\n",
                     report.events.size(), trace_path.c_str());
      }
      if (!metrics_path.empty()) {
        const std::string text = telemetry::prometheus_text(report);
        data::write_bytes(metrics_path,
                          {reinterpret_cast<const std::uint8_t*>(text.data()),
                           text.size()});
        std::fprintf(stderr, "metrics: -> %s\n", metrics_path.c_str());
      }
      if (stats) {
        std::fputs(telemetry::summary_table(report).c_str(), stderr);
      }
    }
    return rc;
  } catch (const wavesz::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
