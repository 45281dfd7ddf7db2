// Parallel chunked DEFLATE sweep: input x threads x chunk size x level on
// the gzip stage's real inputs — the quantization codes of the Table 5
// throughput personas, H*-coded as H*G* feeds them and raw as G* feeds them.
// The raw codes go through the code-section path (gzip_compress_codes: at
// Level::Fast the matcher steps in whole codes), with one byte-parse row
// per level for comparison. The H* codes also go through the H* section
// path (gzip_compress_probed: each chunk on runs unless its probe shows the
// hash chains paying), reporting the chunks it put on runs, and through the
// run parse alone in one stream; both are compared with the serial
// hash-chain stream they replace. Reports MB/s, match tokens and the
// compression-ratio delta versus the serial stream, verifies every output
// through the serial inflate, and emits machine-readable results to
// BENCH_deflate.json in the working directory (schema described in
// EXPERIMENTS.md).
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
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
  /// "codes" (gzip_compress_codes), "bytes" (gzip_compress_parallel),
  /// "probed" (gzip_compress_probed) or "runs" (the run parse alone).
  const char* matcher;
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
/// parse of the same bytes in one serial row per level. "huffman" is also
/// swept as H* sections, and run-parsed in one serial row.
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
  inputs.push_back({"huffman", "probed", huffman.bytes, {}, {}});
  inputs.push_back({"huffman", "runs", huffman.bytes, {},
                    {{deflate::kDefaultChunkBytes, 1}}});
  inputs.push_back(std::move(huffman));
  inputs.push_back({"raw_u16", "codes", raw_bytes, std::move(raw), {}});
  inputs.push_back({"raw_u16", "bytes", std::move(raw_bytes), {},
                    {{64u * 1024u, 1}}});
  return inputs;
}

/// Whether `in` is one of the H* section parses, which have no Level::Best
/// and are compared with the hash-chain byte parse they replace.
bool hstar_parse(const StageInput& in) {
  const std::string_view m = in.matcher;
  return m == "probed" || m == "runs";
}

/// The run parse of `bytes` in one stream, as a gzip member.
std::vector<std::uint8_t> runs_member(std::span<const std::uint8_t> bytes) {
  BitWriterLSB bw;
  deflate::detail::deflate_parsed(
      bw, bytes,
      [&](deflate::TokenBlock& block,
          const std::function<void(deflate::TokenBlock&)>& on_full) {
        deflate::parse_runs(bytes, 0, block, on_full);
      },
      /*mark_final=*/true);
  return deflate::detail::gzip_member(bytes, deflate::Level::Fast, bw.take());
}

std::vector<std::uint8_t> gzip_stage(const StageInput& in,
                                     deflate::Level level,
                                     const deflate::ParallelOptions& o) {
  const std::string_view m = in.matcher;
  if (m == "codes") return deflate::gzip_compress_codes(in.codes, level, o);
  if (m == "probed") return deflate::gzip_compress_probed(in.bytes, o);
  if (m == "runs") return runs_member(in.bytes);
  return deflate::gzip_compress_parallel(in.bytes, level, o);
}

/// The serial stream a row is compared with: the same parse in one
/// stream, or for the H* section parses the hash-chain byte parse.
std::vector<std::uint8_t> serial_stream(const StageInput& in,
                                        deflate::Level level) {
  const deflate::ParallelOptions one{deflate::kDefaultChunkBytes, 1};
  return hstar_parse(in)
             ? deflate::gzip_compress_parallel(in.bytes, level, one)
             : gzip_stage(in, level, one);
}

/// The parse gzip_stage() runs at `o`, counted: its match tokens, its
/// chunks, and how many of those the probe put on runs.
struct ParseCount {
  std::size_t matches = 0;
  std::size_t chunks = 0;
  std::size_t on_runs = 0;
};

/// One window at one thread (and for the run parse), else each chunk
/// primed with the window before it (and H* sections at every budget).
ParseCount count_parse(const StageInput& in, deflate::Level level,
                       const deflate::ParallelOptions& o) {
  const std::string_view m = in.matcher;
  const auto stride = m == "codes" ? deflate::Stride::Codes
                                   : deflate::Stride::Bytes;
  const std::span<const std::uint8_t> all(in.bytes);
  const std::size_t chunk =
      m == "probed" || (o.threads != 1 && m != "runs") ? o.chunk_bytes
                                                       : all.size();
  ParseCount count;
  const std::function<void(deflate::TokenBlock&)> tally =
      [&](deflate::TokenBlock& b) {
        for (const auto& t : b.tokens()) count.matches += t.length > 0;
        b.clear();
      };
  for (std::size_t off = 0; off < all.size(); off += chunk) {
    const std::size_t dict = std::min(deflate::kWindowSize, off);
    const std::size_t len = std::min(chunk, all.size() - off);
    const auto window = all.subspan(off - dict, dict + len);
    deflate::TokenBlock block(len);
    if (m == "probed") {
      count.on_runs += deflate::parse_probed(window, dict, block, tally,
                                             deflate::detail::block_bits);
    } else if (m == "runs") {
      deflate::parse_runs(window, dict, block, tally);
    } else {
      deflate::parse(window, dict, level, stride, block, tally);
    }
    tally(block);
    ++count.chunks;
  }
  return count;
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
    // Each input is swept by several matchers, listed together.
    std::fprintf(json, "{\n  \"input_bytes\": {");
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (i > 0 && std::string_view(inputs[i].name) == inputs[i - 1].name) {
        continue;
      }
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
      if (hstar_parse(in) && level == deflate::Level::Best) continue;
      const char* lvl_name = level == deflate::Level::Fast ? "fast" : "best";
      std::vector<std::uint8_t> serial;
      const double serial_s = bench::median_seconds(
          opts.repeat, [&] { serial = serial_stream(in, level); });
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
        const ParseCount count = count_parse(in, level, popts);
        const bool probed = std::string_view(in.matcher) == "probed";
        std::printf(
            "  chunk=%4zuKiB threads=%d  %7.1f MB/s  speedup %4.2fx  "
            "ratio delta %+5.3f%%  matches %zu  roundtrip %s",
            popts.chunk_bytes / 1024, popts.threads, mbps,
            par_s > 0 ? serial_s / par_s : 0.0, delta, count.matches,
            ok ? "ok" : "FAIL");
        if (probed) {
          std::printf("  on runs %zu of %zu chunks", count.on_runs,
                      count.chunks);
        }
        std::printf("\n");
        if (json != nullptr) {
          std::fprintf(
              json,
              "%s    {\"input\": \"%s\", \"matcher\": \"%s\", "
              "\"level\": \"%s\", \"chunk_bytes\": %zu, \"threads\": %d, "
              "\"mbps\": %.2f, \"speedup_vs_serial\": %.3f, "
              "\"compressed_bytes\": %zu, \"ratio_delta_pct\": %.4f, "
              "\"match_tokens\": %zu, ",
              first_row ? "" : ",\n", in.name, in.matcher, lvl_name,
              popts.chunk_bytes, popts.threads, mbps,
              par_s > 0 ? serial_s / par_s : 0.0, par.size(), delta,
              count.matches);
          if (probed) {
            std::fprintf(json, "\"chunks\": %zu, \"chunks_on_runs\": %zu, ",
                         count.chunks, count.on_runs);
          }
          std::fprintf(json, "\"roundtrip_ok\": %s}", ok ? "true" : "false");
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
