// Parallel chunked DEFLATE sweep: input x threads x chunk size x level on
// the gzip stage's real inputs — the quantization codes of the Table 5
// throughput personas, H*-coded as H*G* feeds them and raw as G* feeds them.
// The raw codes go through the code-section path (gzip_compress_codes: at
// Level::Fast the matcher steps in whole codes), with one byte-parse row
// per level for comparison. Reports MB/s, match tokens and the
// compression-ratio delta versus the serial stream, verifies every output
// through the serial inflate, and emits machine-readable results to
// BENCH_deflate.json in the working directory (schema described in
// EXPERIMENTS.md).
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
  const char* matcher;  ///< "codes" (gzip_compress_codes) or "bytes"
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint16_t> codes;  ///< set for the "codes" matcher
  /// Layouts swept, as {chunk_bytes, threads}; empty = the whole grid.
  std::vector<deflate::ParallelOptions> only;
};

/// The gzip stage's two inputs, exactly what compress_t feeds it:
/// "huffman", the H*-coded (customized Huffman) code sections of H*G*, and
/// "raw_u16", the little-endian u16 code sections of G*, the variant the
/// FPGA design ships. The second is the match-heavy stream; it takes one
/// field per persona, because at Best the matcher walks long hash chains
/// on it: over every field (40 MB) it runs at about 2 MB/s, which would
/// dominate the sweep's time. It is swept as code sections, plus the byte
/// parse of the same bytes in one serial row per level.
std::vector<StageInput> gzip_stage_inputs(const bench::Options& opts) {
  StageInput huffman{"huffman", "bytes", {}, {}, {}};
  std::vector<std::uint16_t> raw;
  for (auto p : data::all_personas()) {
    const auto fields = data::fields(p, opts.scale_for(p));
    for (std::size_t i = 0; i < fields.size(); ++i) {
      const auto grid = fields[i].materialize();
      const double range = metrics::value_range(grid).span();
      const sz::LinearQuantizer q(1e-3 * (range > 0 ? range : 1.0), 16);
      const auto pqd = sz::lorenzo_pqd(grid, fields[i].dims, q);
      const auto coded = sz::huffman_encode(pqd.codes);
      huffman.bytes.insert(huffman.bytes.end(), coded.begin(), coded.end());
      if (i == 0) raw.insert(raw.end(), pqd.codes.begin(), pqd.codes.end());
    }
  }
  const auto image = bytes_of(std::span<const std::uint16_t>(raw));
  std::vector<std::uint8_t> raw_bytes(image.begin(), image.end());
  std::vector<StageInput> inputs;
  inputs.push_back(std::move(huffman));
  inputs.push_back({"raw_u16", "codes", raw_bytes, std::move(raw), {}});
  inputs.push_back({"raw_u16", "bytes", std::move(raw_bytes), {},
                    {{64u * 1024u, 1}}});
  return inputs;
}

std::vector<std::uint8_t> gzip_stage(const StageInput& in,
                                     deflate::Level level,
                                     const deflate::ParallelOptions& o) {
  return in.codes.empty()
             ? deflate::gzip_compress_parallel(in.bytes, level, o)
             : deflate::gzip_compress_codes(in.codes, level, o);
}

/// Match tokens of the parse gzip_stage() runs at `o`: one window at one
/// thread, else each chunk primed with the window before it.
std::size_t match_tokens(const StageInput& in, deflate::Level level,
                         const deflate::ParallelOptions& o) {
  const auto stride = in.codes.empty() ? deflate::Stride::Bytes
                                       : deflate::Stride::Codes;
  const std::span<const std::uint8_t> all(in.bytes);
  const std::size_t chunk = o.threads == 1 ? all.size() : o.chunk_bytes;
  std::size_t matches = 0;
  for (std::size_t off = 0; off < all.size(); off += chunk) {
    const std::size_t dict = std::min(deflate::kWindowSize, off);
    const std::size_t len = std::min(chunk, all.size() - off);
    for (const auto& t : deflate::tokenize(all.subspan(off - dict, dict + len),
                                           level, dict, stride)) {
      matches += t.length > 0 ? 1 : 0;
    }
  }
  return matches;
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
    // The last input is the byte parse of raw_u16's bytes.
    std::fprintf(json, "{\n  \"input_bytes\": {");
    for (std::size_t i = 0; i + 1 < inputs.size(); ++i) {
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
    std::printf("\ninput=%s matcher=%s: %.1f MB of quantization codes\n",
                in.name, in.matcher, in_mb);
    for (auto level : {deflate::Level::Fast, deflate::Level::Best}) {
      const char* lvl_name = level == deflate::Level::Fast ? "fast" : "best";
      const deflate::ParallelOptions one{deflate::kDefaultChunkBytes, 1};
      std::vector<std::uint8_t> serial;
      const double serial_s = bench::median_seconds(
          opts.repeat, [&] { serial = gzip_stage(in, level, one); });
      std::printf("level=%s serial: %.1f MB/s, ratio %.3f\n", lvl_name,
                  in_mb / serial_s,
                  static_cast<double>(input.size()) /
                      static_cast<double>(serial.size()));

      std::vector<deflate::ParallelOptions> layouts = in.only;
      if (layouts.empty()) {
        for (std::size_t chunk : {64u * 1024u, 256u * 1024u, 1024u * 1024u}) {
          for (int threads : {1, 2, 4, 8}) layouts.push_back({chunk, threads});
        }
      }
      for (const auto& popts : layouts) {
        std::vector<std::uint8_t> par;
        const double par_s = bench::median_seconds(
            opts.repeat, [&] { par = gzip_stage(in, level, popts); });
        const bool ok = deflate::gzip_decompress(par) == input;
        all_ok = all_ok && ok;
        const double mbps = in_mb / par_s;
        const double delta =
            100.0 * (static_cast<double>(par.size()) /
                         static_cast<double>(serial.size()) -
                     1.0);
        const std::size_t matches = match_tokens(in, level, popts);
        std::printf(
            "  chunk=%4zuKiB threads=%d  %7.1f MB/s  speedup %4.2fx  "
            "ratio delta %+5.3f%%  matches %zu  roundtrip %s\n",
            popts.chunk_bytes / 1024, popts.threads, mbps,
            par_s > 0 ? serial_s / par_s : 0.0, delta, matches,
            ok ? "ok" : "FAIL");
        if (json != nullptr) {
          std::fprintf(
              json,
              "%s    {\"input\": \"%s\", \"matcher\": \"%s\", "
              "\"level\": \"%s\", \"chunk_bytes\": %zu, \"threads\": %d, "
              "\"mbps\": %.2f, \"speedup_vs_serial\": %.3f, "
              "\"compressed_bytes\": %zu, \"ratio_delta_pct\": %.4f, "
              "\"match_tokens\": %zu, \"roundtrip_ok\": %s}",
              first_row ? "" : ",\n", in.name, in.matcher, lvl_name,
              popts.chunk_bytes, popts.threads, mbps,
              par_s > 0 ? serial_s / par_s : 0.0, par.size(), delta, matches,
              ok ? "true" : "false");
          first_row = false;
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
