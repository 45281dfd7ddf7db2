// SZx ultra-fast codec throughput vs the entropy pipeline.
//
// For each shape, compresses the same synthetic field with the default
// entropy Config (Huffman + gzip Fast) and with Config::ultrafast()
// (Codec::Szx: fixed blocks, constant-block detection, k-bit packed
// deltas, no entropy stage), reporting compression/decompression
// throughput, ratio, and the SZx speedup over entropy. Every decompressed
// stream is re-checked against the absolute error bound before a row is
// emitted. Writes BENCH_szx.json in the working directory; the acceptance
// row is the 2048x2048 f32 szx compress speedup (>= 3x entropy).
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "data/synthetic.hpp"
#include "sz/compressor.hpp"
#include "sz/config.hpp"
#include "util/dims.hpp"
#include "util/timer.hpp"

namespace {

using namespace wavesz;

constexpr unsigned kReps = 5;  // best-of to shave scheduler noise

template <typename T>
std::vector<T> make_field(const Dims& dims) {
  data::FieldRecipe r;
  r.seed = 42;
  r.base_frequency = 0.6;
  r.noise_amplitude = 5e-4;
  const auto f32 = data::generate(r, dims);
  if constexpr (std::is_same_v<T, float>) {
    return f32;
  } else {
    return std::vector<double>(f32.begin(), f32.end());
  }
}

template <typename Fn>
double best_seconds(Fn&& fn) {
  double best = 1e300;
  for (unsigned r = 0; r < kReps; ++r) {
    Stopwatch sw;
    fn();
    best = std::min(best, sw.seconds());
  }
  return best;
}

template <typename T>
std::vector<T> roundtrip(const std::vector<std::uint8_t>& bytes);

template <>
std::vector<float> roundtrip<float>(const std::vector<std::uint8_t>& bytes) {
  return sz::decompress(bytes);
}

template <>
std::vector<double> roundtrip<double>(
    const std::vector<std::uint8_t>& bytes) {
  return sz::decompress64(bytes);
}

template <typename T>
double abs_bound(const std::vector<T>& data, const sz::Config& cfg) {
  if (cfg.mode == sz::EbMode::Absolute) return cfg.error_bound;
  double lo = static_cast<double>(data[0]);
  double hi = lo;
  for (const T v : data) {
    const auto d = static_cast<double>(v);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  return cfg.error_bound * (hi - lo);
}

template <typename T>
bool within_bound(const std::vector<T>& orig, const std::vector<T>& dec,
                  double bound) {
  if (orig.size() != dec.size()) return false;
  // Mirror the compressor's contract: non-finite inputs are carried
  // verbatim, so only finite lanes are bound-checked.
  for (std::size_t i = 0; i < orig.size(); ++i) {
    const auto o = static_cast<double>(orig[i]);
    const auto d = static_cast<double>(dec[i]);
    if (!std::isfinite(o)) continue;
    if (!(std::abs(o - d) <= bound * (1.0 + 1e-12))) return false;
  }
  return true;
}

struct CodecRow {
  double compress_mbps = 0;
  double decompress_mbps = 0;
  double ratio = 0;
  bool bound_ok = false;
};

template <typename T>
CodecRow run_codec(const std::vector<T>& field, const Dims& dims,
                   const sz::Config& cfg) {
  CodecRow row;
  const double raw = static_cast<double>(field.size() * sizeof(T));
  sz::Compressed c;
  const double c_secs = best_seconds([&] { c = sz::compress(field, dims, cfg); });
  std::vector<T> dec;
  const double d_secs = best_seconds([&] { dec = roundtrip<T>(c.bytes); });
  row.compress_mbps = raw / 1e6 / c_secs;
  row.decompress_mbps = raw / 1e6 / d_secs;
  row.ratio = raw / static_cast<double>(c.bytes.size());
  row.bound_ok = within_bound(field, dec, abs_bound(field, cfg));
  return row;
}

template <typename T>
void sweep_shape(const Dims& dims, const char* shape, const char* dtype,
                 std::FILE* json, bool* first) {
  const auto field = make_field<T>(dims);
  const CodecRow entropy = run_codec<T>(field, dims, sz::Config{});
  const CodecRow szx = run_codec<T>(field, dims, sz::Config::ultrafast());
  const double c_speedup = szx.compress_mbps / entropy.compress_mbps;
  const double d_speedup = szx.decompress_mbps / entropy.decompress_mbps;
  std::printf("%-12s %-4s entropy %8.1f / %8.1f MB/s ratio %6.2f %s\n",
              shape, dtype, entropy.compress_mbps, entropy.decompress_mbps,
              entropy.ratio, entropy.bound_ok ? "" : "BOUND-VIOLATION");
  std::printf("%-12s %-4s szx     %8.1f / %8.1f MB/s ratio %6.2f "
              "speedup %.2fx / %.2fx %s\n",
              shape, dtype, szx.compress_mbps, szx.decompress_mbps, szx.ratio,
              c_speedup, d_speedup, szx.bound_ok ? "" : "BOUND-VIOLATION");
  const struct {
    const char* codec;
    const CodecRow* row;
  } rows[] = {{"entropy_fast", &entropy}, {"szx", &szx}};
  for (const auto& r : rows) {
    std::fprintf(json,
                 "%s\n    {\"shape\": \"%s\", \"dtype\": \"%s\", "
                 "\"codec\": \"%s\", \"compress_mbps\": %.1f, "
                 "\"decompress_mbps\": %.1f, \"ratio\": %.4f, "
                 "\"bound_ok\": %s",
                 *first ? "" : ",", shape, dtype, r.codec,
                 r.row->compress_mbps, r.row->decompress_mbps, r.row->ratio,
                 r.row->bound_ok ? "true" : "false");
    if (r.row == &szx) {
      std::fprintf(json,
                   ", \"compress_speedup_vs_entropy\": %.3f, "
                   "\"decompress_speedup_vs_entropy\": %.3f",
                   c_speedup, d_speedup);
    }
    std::fputc('}', json);
    *first = false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wavesz;
  (void)bench::Options::parse(argc, argv);
  bench::print_header(
      "SZx ultra-fast codec vs entropy pipeline throughput",
      "SZx-style degraded mode (PAPERS.md); waveSZ throughput target §4.4");
  std::printf("(compress / decompress MB/s, best of %u runs)\n\n", kReps);

  std::FILE* json = std::fopen("BENCH_szx.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_szx.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"szx_throughput\",\n"
               "  \"hardware_threads\": %u,\n  \"results\": [",
               std::thread::hardware_concurrency());
  bool first = true;
  sweep_shape<float>(Dims::d2(512, 512), "512x512", "f32", json, &first);
  sweep_shape<float>(Dims::d2(2048, 2048), "2048x2048", "f32", json, &first);
  sweep_shape<double>(Dims::d2(2048, 2048), "2048x2048", "f64", json, &first);
  sweep_shape<float>(Dims::d3(64, 256, 256), "64x256x256", "f32", json,
                     &first);
  std::fprintf(json, "\n  ]\n}\n");
  std::fclose(json);
  std::printf("\nresults written to BENCH_szx.json\n");
  return 0;
}
