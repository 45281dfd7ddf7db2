// Parallel chunked DEFLATE sweep: input x threads x chunk size x level on
// the gzip stage's real inputs — the quantization codes of the Table 5
// throughput personas, H*-coded as H*G* feeds them and raw as G* feeds them.
// Reports MB/s and the compression-ratio delta versus the serial stream,
// verifies every output through the serial inflate, and emits
// machine-readable results to BENCH_deflate.json in the working directory
// (schema described in EXPERIMENTS.md).
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "deflate/parallel.hpp"
#include "sz/huffman_codec.hpp"
#include "sz/quantizer.hpp"
#include "util/bytes.hpp"
#include "util/fork_join.hpp"

namespace {

using namespace wavesz;

/// One gzip-stage input: every persona's code sections, concatenated.
struct StageInput {
  const char* name;
  std::vector<std::uint8_t> bytes;
};

/// The gzip stage's two inputs, exactly what compress_t feeds it:
/// "huffman", the H*-coded (customized Huffman) code sections of H*G*, and
/// "raw_u16", the little-endian u16 code sections of G*, the variant the
/// FPGA design ships. The second is the match-heavy stream; it takes one
/// field per persona, because at Best the matcher walks long hash chains
/// on it: over every field (40 MB) it runs at about 2 MB/s, which would
/// dominate the sweep's time.
std::vector<StageInput> gzip_stage_inputs(const bench::Options& opts) {
  StageInput huffman{"huffman", {}};
  ByteWriter raw;
  for (auto p : data::all_personas()) {
    const auto fields = data::fields(p, opts.scale_for(p));
    for (std::size_t i = 0; i < fields.size(); ++i) {
      const auto grid = fields[i].materialize();
      const double range = metrics::value_range(grid).span();
      const sz::LinearQuantizer q(1e-3 * (range > 0 ? range : 1.0), 16);
      const auto pqd = sz::lorenzo_pqd(grid, fields[i].dims, q);
      const auto coded = sz::huffman_encode(pqd.codes);
      huffman.bytes.insert(huffman.bytes.end(), coded.begin(), coded.end());
      if (i == 0) raw.u16s(pqd.codes);
    }
  }
  std::vector<StageInput> inputs;
  inputs.push_back(std::move(huffman));
  inputs.push_back({"raw_u16", raw.take()});
  return inputs;
}

int hardware_threads() { return util::resolve_thread_budget(0); }

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::Options::parse(argc, argv);
  bench::print_header(
      "Parallel chunked DEFLATE — input x threads x chunk x level sweep",
      "tentpole for the paper's throughput story (Table 5 gzip stage)");
  bench::print_scale_note(opts);
  std::printf("hardware threads available: %d\n", hardware_threads());

  const auto inputs = gzip_stage_inputs(opts);
  std::FILE* json = std::fopen("BENCH_deflate.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"input_bytes\": {");
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      std::fprintf(json, "%s\"%s\": %zu", i == 0 ? "" : ", ",
                   inputs[i].name, inputs[i].bytes.size());
    }
    std::fprintf(json,
                 "},\n  \"hardware_threads\": %d,\n  \"results\": [\n",
                 hardware_threads());
  }

  bool first_row = true;
  bool all_ok = true;
  for (const auto& in : inputs) {
    const auto& input = in.bytes;
    const double in_mb = static_cast<double>(input.size()) / 1e6;
    std::printf("\ninput=%s: %.1f MB of quantization codes\n", in.name,
                in_mb);
    for (auto level : {deflate::Level::Fast, deflate::Level::Best}) {
      const char* lvl_name = level == deflate::Level::Fast ? "fast" : "best";
      std::vector<std::uint8_t> serial;
      const double serial_s = bench::median_seconds(
          opts.repeat, [&] { serial = deflate::gzip_compress(input, level); });
      std::printf("level=%s serial: %.1f MB/s, ratio %.3f\n", lvl_name,
                  in_mb / serial_s,
                  static_cast<double>(input.size()) /
                      static_cast<double>(serial.size()));

      for (std::size_t chunk : {64u * 1024u, 256u * 1024u, 1024u * 1024u}) {
        for (int threads : {1, 2, 4, 8}) {
          deflate::ParallelOptions popts{chunk, threads};
          std::vector<std::uint8_t> par;
          const double par_s = bench::median_seconds(opts.repeat, [&] {
            par = deflate::gzip_compress_parallel(input, level, popts);
          });
          const bool ok = deflate::gzip_decompress(par) == input;
          all_ok = all_ok && ok;
          const double mbps = in_mb / par_s;
          const double delta =
              100.0 * (static_cast<double>(par.size()) /
                           static_cast<double>(serial.size()) -
                       1.0);
          std::printf(
              "  chunk=%4zuKiB threads=%d  %7.1f MB/s  speedup %4.2fx  "
              "ratio delta %+5.3f%%  roundtrip %s\n",
              chunk / 1024, threads, mbps,
              par_s > 0 ? serial_s / par_s : 0.0, delta, ok ? "ok" : "FAIL");
          if (json != nullptr) {
            std::fprintf(
                json,
                "%s    {\"input\": \"%s\", \"level\": \"%s\", "
                "\"chunk_bytes\": %zu, \"threads\": %d, \"mbps\": %.2f, "
                "\"speedup_vs_serial\": %.3f, \"compressed_bytes\": %zu, "
                "\"ratio_delta_pct\": %.4f, \"roundtrip_ok\": %s}",
                first_row ? "" : ",\n", in.name, lvl_name, chunk, threads,
                mbps, par_s > 0 ? serial_s / par_s : 0.0, par.size(), delta,
                ok ? "true" : "false");
            first_row = false;
          }
        }
      }
    }
  }
  if (json != nullptr) {
    std::fprintf(json, "\n  ]\n}\n");
    std::fclose(json);
    std::printf("\nresults written to BENCH_deflate.json\n");
  }
  std::printf("note: speedups need physical cores; this sweep reports the "
              "machine it ran on\n(hardware_threads above) rather than an "
              "assumed topology.\n");
  return all_ok ? 0 : 1;
}
