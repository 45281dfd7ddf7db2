// Quickstart: compress a 2D field with waveSZ, decompress it, verify the
// error bound, and print the numbers you care about.
//
//   $ ./examples/quickstart
//   $ ./examples/quickstart --trace trace.json --stats   # stage telemetry
//   $ ./examples/quickstart --metrics metrics.prom       # Prometheus text
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/wavesz.hpp"
#include "data/synthetic.hpp"
#include "metrics/stats.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

int main(int argc, char** argv) {
  using namespace wavesz;

  std::string trace_path;
  std::string metrics_path;
  bool stats_flag = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (a == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (a == "--stats") {
      stats_flag = true;
    }
  }
  std::unique_ptr<telemetry::Session> session;
  if (!trace_path.empty() || !metrics_path.empty() || stats_flag) {
    session = std::make_unique<telemetry::Session>();
  }

  // 1. Get a 2D float field (here: a synthetic climate-like field; swap in
  //    data::read_f32("myfield.f32") for your own data).
  const Dims dims = Dims::d2(512, 1024);
  data::FieldRecipe recipe;
  recipe.seed = 2026;
  recipe.base_frequency = 0.8;
  const std::vector<float> field = data::generate(recipe, dims);

  // 2. Configure: value-range-relative 1e-3 bound, base-2 tightening and
  //    gzip back end (the paper's FPGA configuration).
  sz::Config cfg = wave::default_config();
  cfg.error_bound = 1e-3;

  // 3. Compress.
  const sz::Compressed compressed = wave::compress(field, dims, cfg);
  std::printf("input   : %s float32 (%zu bytes)\n", dims.str().c_str(),
              field.size() * sizeof(float));
  std::printf("output  : %zu bytes  (ratio %.1f:1)\n",
              compressed.bytes.size(),
              metrics::compression_ratio(field.size() * sizeof(float),
                                         compressed.bytes.size()));
  std::printf("bound   : requested 1e-3 VR-rel -> absolute %.3g "
              "(power-of-two tightened)\n",
              compressed.header.eb_absolute);

  // 4. Decompress and verify.
  Dims out_dims;
  const std::vector<float> restored =
      wave::decompress(compressed.bytes, {}, &out_dims);
  const auto stats = metrics::distortion(field, restored);
  const bool ok = metrics::within_bound(field, restored,
                                        compressed.header.eb_absolute);
  std::printf("restored: %s, PSNR %.1f dB, max |err| %.3g — bound %s\n",
              out_dims.str().c_str(), stats.psnr_db, stats.max_abs_error,
              ok ? "HOLDS" : "VIOLATED");

  // 5. Optional: where did the time go? (--trace opens in ui.perfetto.dev)
  if (session) {
    const telemetry::Report report = session->stop();
    if (!trace_path.empty()) {
      std::ofstream out(trace_path, std::ios::binary);
      out << telemetry::chrome_trace_json(report);
      if (!out) {
        std::fprintf(stderr, "failed to write %s\n", trace_path.c_str());
        return 1;
      }
    }
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path, std::ios::binary);
      out << telemetry::prometheus_text(report);
      if (!out) {
        std::fprintf(stderr, "failed to write %s\n", metrics_path.c_str());
        return 1;
      }
    }
    if (stats_flag) std::fputs(telemetry::summary_table(report).c_str(), stdout);
  }
  return ok ? 0 : 1;
}
