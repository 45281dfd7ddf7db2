// Decompression throughput on the CPU. The paper measures only compression
// on the FPGA because "users mainly use the SZ on CPU to decompress the
// data for postanalysis and visualization" (§4.2) — this bench supplies
// that CPU-side half of the story for every variant in this repository.
//
// Three sections:
//   1. per-persona decompression throughput of every compressor variant;
//   2. the table-driven decoders on the 512x512 synthetic fixture at
//      deflate Level::Best — gzip member and full SZ-1.4 and waveSZ H*G*
//      containers — on the gzip member of raw 16-bit codes that one
//      16-plane NYX chunk writes through waveSZ G*, and on the H* code
//      stream of one 900x1800 CESM field through waveSZ H*G*, whose row
//      also times the H* encoder. The three raw-stream rows also time the
//      bit-at-a-time oracles of tests/deflate_oracle.hpp and
//      tests/huffman_oracle.hpp, asserting byte-identical output; a
//      CRC-32 row times Crc32::of on 4 MiB against the same call at
//      WAVESZ_SIMD=scalar (slice-by-8), asserting the same value;
//   3. chunk-indexed (v2) decode at 1, 2, 4 and 8 threads, and region
//      reads against the serial full decode: the top-left quarter of the
//      512x512 fixture (SZ-1.4 and waveSZ), and an interior box of a
//      64x128x128 field (SZ-1.4), whose values depend on a box a third of
//      its outer-slab prefix.
// Every section interleaves the variants it compares within each of the
// --repeat runs and reports medians. Sections 2 and 3 are the tables
// recorded in EXPERIMENTS.md and dumped via --json to BENCH_decode.json.
#include <cmath>
#include <functional>
#include <thread>

#include "common.hpp"
#include "data/synthetic.hpp"
#include "deflate/deflate.hpp"
#include "deflate_oracle.hpp"
#include "huffman_oracle.hpp"
#include "sz/container.hpp"
#include "sz/huffman_codec.hpp"
#include "sz2/sz2.hpp"
#include "util/bytes.hpp"
#include "util/checksum.hpp"
#include "util/simd.hpp"

namespace {

using namespace wavesz;

std::vector<float> make_synthetic_512() {
  std::vector<float> out(512 * 512);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto x = static_cast<double>(i % 512);
    const auto y = static_cast<double>(i / 512);
    out[i] = static_cast<float>(std::sin(0.013 * y) + std::cos(0.021 * x) +
                                0.3 * std::sin(0.41 * (x + y)));
  }
  return out;
}

struct DecodeRow {
  const char* fixture;
  std::size_t out_bytes = 0;
  double decode_s = 0;
  double oracle_s = 0;  ///< raw-stream rows only: the bit-at-a-time oracle
  double encode_s = 0;  ///< H* row only: encoding the decoded stream back
  bool identical = true;

  double mbps(double s) const {
    return static_cast<double>(out_bytes) / 1e6 / s;
  }
};

/// Time a container `decode()`, which must return the decoded values.
template <typename Decode>
DecodeRow time_decode(const char* fixture, unsigned repeat, Decode&& decode) {
  DecodeRow row;
  row.fixture = fixture;
  auto out = decode();
  row.decode_s = bench::median_seconds(repeat, [&] { out = decode(); });
  row.out_bytes = out.size() * sizeof(out[0]);
  return row;
}

/// Time a raw-stream `decode()` and its bit-at-a-time `oracle()`, taking
/// turns within each repeat; both must return the same decoded bytes (or
/// symbols).
template <typename Decode, typename Oracle>
DecodeRow time_against_oracle(const char* fixture, unsigned repeat,
                              Decode&& decode, Oracle&& oracle) {
  DecodeRow row;
  row.fixture = fixture;
  auto out = decode();
  auto want = oracle();
  const auto secs = bench::interleaved_median_seconds(
      repeat, {[&] { out = decode(); }, [&] { want = oracle(); }});
  row.decode_s = secs[0];
  row.oracle_s = secs[1];
  row.identical = out == want;
  row.out_bytes = out.size() * sizeof(out[0]);
  return row;
}

/// One chunk-indexed (container v2) decode timing at a given thread budget.
struct ScaleRow {
  const char* fixture;
  int threads = 1;
  std::size_t out_bytes = 0;
  double seconds = 0, serial_seconds = 0;
  bool identical = false;

  double mbps() const { return static_cast<double>(out_bytes) / 1e6 / seconds; }
  double speedup() const { return seconds > 0 ? serial_seconds / seconds : 0; }
};

/// One hyperslab decode via the v2 chunk index vs the full-field decode.
struct RegionRow {
  const char* fixture;
  std::size_t container_bytes = 0, bytes_read = 0, out_bytes = 0;
  double seconds = 0, full_seconds = 0;
  bool identical = false;

  double read_frac() const {
    return static_cast<double>(bytes_read) /
           static_cast<double>(container_bytes);
  }
};

void write_decode_json(const bench::Options& opts,
                       const std::vector<DecodeRow>& rows,
                       const std::vector<ScaleRow>& scale_rows,
                       const std::vector<RegionRow>& region_rows) {
  if (opts.json_path.empty()) return;
  std::FILE* f = std::fopen(opts.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", opts.json_path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"decompression_throughput\",\n"
               "  \"version\": 3,\n"
               "  \"fixture\": \"synthetic 512x512 f32, deflate "
               "Level::Best; G* codes: one 16x128x128 NYX chunk, waveSZ "
               "default config; H* codes: one 900x1800 CESM-ATM field, "
               "waveSZ H*G*; region rows: the 512x512 quarter, and an "
               "interior box of a 64x128x128 synthetic field, SZ-1.4 "
               "defaults; CRC-32: 4 MiB of LCG bytes, its oracle column "
               "at WAVESZ_SIMD=scalar\",\n  \"repeat\": %u,\n"
               "  \"hardware_threads\": %u,\n  \"rows\": [",
               opts.repeat, std::thread::hardware_concurrency());
  bool first = true;
  for (const auto& r : rows) {
    std::fprintf(f, "%s\n    {\"fixture\": \"", first ? "" : ",");
    first = false;
    bench::detail::json_escape_to(f, r.fixture);
    std::fprintf(f, "\", \"out_bytes\": %zu, ", r.out_bytes);
    if (r.encode_s > 0) {
      std::fprintf(f, "\"encode_mbps\": %.10g, ", r.mbps(r.encode_s));
    }
    std::fprintf(f, "\"mbps\": %.10g", r.mbps(r.decode_s));
    if (r.oracle_s > 0) {
      std::fprintf(f,
                   ", \"oracle_mbps\": %.10g, \"speedup\": %.10g, "
                   "\"identical\": %s",
                   r.mbps(r.oracle_s), r.oracle_s / r.decode_s,
                   r.identical ? "true" : "false");
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n  ],\n  \"parallel_rows\": [");
  first = true;
  for (const auto& r : scale_rows) {
    std::fprintf(f, "%s\n    {\"fixture\": \"", first ? "" : ",");
    first = false;
    bench::detail::json_escape_to(f, r.fixture);
    std::fprintf(f,
                 "\", \"threads\": %d, \"out_bytes\": %zu, "
                 "\"mbps\": %.10g, \"speedup_vs_serial\": %.10g, "
                 "\"identical\": %s}",
                 r.threads, r.out_bytes, r.mbps(), r.speedup(),
                 r.identical ? "true" : "false");
  }
  std::fprintf(f, "\n  ],\n  \"region_rows\": [");
  first = true;
  for (const auto& r : region_rows) {
    std::fprintf(f, "%s\n    {\"fixture\": \"", first ? "" : ",");
    first = false;
    bench::detail::json_escape_to(f, r.fixture);
    std::fprintf(f,
                 "\", \"container_bytes\": %zu, \"bytes_read\": %zu, "
                 "\"read_fraction\": %.10g, \"out_bytes\": %zu, "
                 "\"region_seconds\": %.10g, \"full_seconds\": %.10g, "
                 "\"identical\": %s}",
                 r.container_bytes, r.bytes_read, r.read_frac(), r.out_bytes,
                 r.seconds, r.full_seconds, r.identical ? "true" : "false");
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("\nrows dumped to %s\n", opts.json_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wavesz;
  const auto opts = bench::Options::parse(argc, argv);
  bench::print_header(
      "Decompression throughput on this CPU (MB/s of output data)",
      "paper §4.2 deployment note (decompression happens host-side)");
  bench::print_scale_note(opts);

  std::printf("\n%-12s %10s %10s %12s %12s %10s\n", "dataset", "SZ-1.4",
              "GhostSZ", "waveSZ G*", "waveSZ H*G*", "SZ-2.0");
  for (auto p : data::all_personas()) {
    double t_sz = 0, t_ghost = 0, t_wg = 0, t_whg = 0, t_sz2 = 0;
    double bytes = 0;
    for (const auto& f : data::fields(p, opts.scale_for(p))) {
      const auto grid = f.materialize();
      bytes += static_cast<double>(grid.size() * sizeof(float));

      const auto c_sz = sz::compress(grid, f.dims, sz::Config{});
      const auto c_ghost = ghost::compress(grid, f.dims, sz::Config{});
      auto wcfg = wave::default_config();
      const auto c_wg = wave::compress(grid, f.dims, wcfg);
      wcfg.huffman = true;
      const auto c_whg = wave::compress(grid, f.dims, wcfg);
      sz2::Config cfg2;
      const auto c_sz2 = sz2::compress(grid, f.dims, cfg2);

      const auto secs = bench::interleaved_median_seconds(
          opts.repeat, {[&] { (void)sz::decompress(c_sz.bytes); },
                        [&] { (void)ghost::decompress(c_ghost.bytes); },
                        [&] { (void)wave::decompress(c_wg.bytes); },
                        [&] { (void)wave::decompress(c_whg.bytes); },
                        [&] { (void)sz2::decompress(c_sz2.bytes); }});
      t_sz += secs[0];
      t_ghost += secs[1];
      t_wg += secs[2];
      t_whg += secs[3];
      t_sz2 += secs[4];
    }
    std::printf("%-12s %10.0f %10.0f %12.0f %12.0f %10.0f\n",
                std::string(data::persona_name(p)).c_str(),
                bytes / 1e6 / t_sz, bytes / 1e6 / t_ghost,
                bytes / 1e6 / t_wg, bytes / 1e6 / t_whg,
                bytes / 1e6 / t_sz2);
  }

  std::printf("\n----------------------------------------------------------------\n");
  std::printf("table-driven decoders, raw streams also vs the bit-at-a-time "
              "oracles\n(512x512 synthetic at Level::Best; one NYX G* "
              "chunk; one CESM H* code stream; CRC-32 vs slice-by-8)\n");
  std::printf("----------------------------------------------------------------\n");

  const auto grid = make_synthetic_512();
  const Dims dims = Dims::d2(512, 512);
  std::vector<DecodeRow> rows;

  {
    std::vector<std::uint8_t> raw(grid.size() * sizeof(float));
    std::memcpy(raw.data(), grid.data(), raw.size());
    const auto gz = deflate::gzip_compress(raw, deflate::Level::Best);
    rows.push_back(time_against_oracle(
        "gzip member (f32 bytes)", opts.repeat,
        [&] { return deflate::gzip_decompress(gz); },
        [&] { return deflate::oracle::gunzip(gz); }));
  }
  {
    sz::Config cfg;
    cfg.gzip_level = deflate::Level::Best;
    const auto c = sz::compress(grid, dims, cfg);
    rows.push_back(time_decode("SZ-1.4 container", opts.repeat,
                               [&] { return sz::decompress(c.bytes); }));
  }
  {
    auto wcfg = wave::default_config();
    wcfg.huffman = true;
    wcfg.gzip_level = deflate::Level::Best;
    const auto c = wave::compress(grid, dims, wcfg);
    rows.push_back(time_decode("waveSZ H*G* container", opts.repeat,
                               [&] { return wave::decompress(c.bytes); }));
  }
  {
    // The stream a nyx3d_stream decode inflates: one 16-plane chunk of a
    // 128^3 NYX field through waveSZ G*, whose code section is a gzip
    // member of raw 16-bit codes, coded almost entirely as short matches.
    const auto nyx = data::fields(data::Persona::Nyx, 4).front();
    const auto field = nyx.materialize();
    const Dims chunk = Dims::d3(16, nyx.dims[1], nyx.dims[2]);
    const auto c = wave::compress(
        std::span<const float>(field).first(chunk.count()), chunk,
        wave::default_config());
    ByteReader r(c.bytes);
    const auto h = sz::read_header(r);
    (void)sz::read_code_index(r, h);
    const auto codes = sz::read_section(r);
    rows.push_back(time_against_oracle(
        "gzip member (G* u16 codes)", opts.repeat,
        [&] { return deflate::gzip_decompress(codes); },
        [&] { return deflate::oracle::gunzip(codes); }));
  }
  {
    // Every gzip trailer and chunk-index check of a decode runs
    // Crc32::update; its oracle column is the same call capped at
    // WAVESZ_SIMD=scalar, which runs slice-by-8 alone.
    std::vector<std::uint8_t> buf(std::size_t{4} << 20);
    std::uint32_t lcg = 1;
    for (auto& b : buf) {
      lcg = lcg * 1664525u + 1013904223u;
      b = static_cast<std::uint8_t>(lcg >> 24);
    }
    const simd::Level level = simd::active();
    std::uint32_t crc = Crc32::of(buf);
    std::uint32_t want = crc;
    const auto secs = bench::interleaved_median_seconds(
        opts.repeat, {[&] { crc = Crc32::of(buf); },
                      [&] {
                        simd::set_level(simd::Level::Scalar);
                        want = Crc32::of(buf);
                        simd::set_level(level);
                      }});
    DecodeRow row;
    row.fixture = "CRC-32 (4 MiB)";
    row.out_bytes = buf.size();
    row.decode_s = secs[0];
    row.oracle_s = secs[1];
    row.identical = crc == want;
    rows.push_back(row);
  }

  {
    // The code stream a climate2d_serial decode runs through H*: one
    // 900x1800 CESM field through waveSZ H*G*, its Huffman blob and chunk
    // index taken from the container. The row times huffman_encode() on the
    // decoded codes as well, which must give back the container's blob.
    const auto cesm = data::fields(data::Persona::CesmAtm, 2).front();
    const auto field = cesm.materialize();
    auto wcfg = wave::default_config();
    wcfg.huffman = true;
    const auto c = wave::compress(field, cesm.dims, wcfg);
    ByteReader r(c.bytes);
    const auto h = sz::read_header(r);
    const auto idx = sz::read_code_index(r, h);
    const auto blob = deflate::gzip_decompress(sz::read_section(r));
    auto row = time_against_oracle(
        "H* code stream (CESM codes)", opts.repeat,
        [&] { return sz::huffman_decode_indexed(blob, idx, 1); },
        [&] { return oracle::huffman_decode(blob); });
    const auto codes = sz::huffman_decode_indexed(blob, idx, 1);
    auto again = sz::huffman_encode(codes, 1);
    row.encode_s = bench::median_seconds(
        opts.repeat, [&] { again = sz::huffman_encode(codes, 1); });
    row.identical = row.identical && again == blob;
    rows.push_back(row);
  }

  std::printf("\n%-27s %10s %12s %10s %10s %10s\n", "fixture", "MB/s",
              "oracle MB/s", "speedup", "identical", "enc MB/s");
  bool all_identical = true;
  for (const auto& r : rows) {
    all_identical = all_identical && r.identical;
    std::printf("%-27s %10.0f", r.fixture, r.mbps(r.decode_s));
    if (r.oracle_s > 0) {
      std::printf(" %12.0f %9.2fx %10s", r.mbps(r.oracle_s),
                  r.oracle_s / r.decode_s, r.identical ? "yes" : "NO");
    } else {
      std::printf(" %12s %10s %10s", "-", "-", "-");
    }
    if (r.encode_s > 0) std::printf(" %10.0f", r.mbps(r.encode_s));
    std::printf("\n");
  }

  std::printf("\n----------------------------------------------------------------\n");
  std::printf("chunk-indexed (v2) decode thread scaling + region decode "
              "(512x512; region also 64x128x128)\n");
  std::printf("----------------------------------------------------------------\n");

  std::vector<ScaleRow> scale_rows;
  std::vector<RegionRow> region_rows;

  // One container's decodes, taking turns within each repeat: the full
  // decode at each budget of `budgets` (serial first), and one region read,
  // checked against the same slice of the serial full decode. A region's
  // dependency closure is the box from the origin to its far corner, so
  // the top-left quarter needs no data past itself.
  const auto run_variant = [&](const char* name, const char* region_name,
                               const Dims& fdims, const sz::Region& rg,
                               const std::vector<std::uint8_t>& blob,
                               const std::vector<int>& budgets,
                               auto&& full_decode, auto&& region_decode) {
    const auto serial = full_decode(sz::DecodeOptions{1, 1});
    std::vector<decltype(full_decode(sz::DecodeOptions{}))> outs(
        budgets.size());
    auto res = region_decode(rg);
    std::vector<std::function<void()>> jobs;
    for (std::size_t k = 0; k < budgets.size(); ++k) {
      jobs.emplace_back([&, k] {
        outs[k] = full_decode(sz::DecodeOptions{budgets[k], budgets[k]});
      });
    }
    jobs.emplace_back([&] { res = region_decode(rg); });
    const auto secs = bench::interleaved_median_seconds(opts.repeat, jobs);
    for (std::size_t k = 0; k < budgets.size(); ++k) {
      ScaleRow r;
      r.fixture = name;
      r.threads = budgets[k];
      r.seconds = secs[k];
      r.serial_seconds = secs[0];
      r.identical = outs[k] == serial;
      r.out_bytes = outs[k].size() * sizeof(outs[k][0]);
      scale_rows.push_back(r);
    }
    RegionRow rr;
    rr.fixture = region_name;
    rr.seconds = secs.back();
    rr.full_seconds = secs[0];
    rr.container_bytes = blob.size();
    rr.bytes_read = res.compressed_bytes_read;
    rr.out_bytes = res.data.size() * sizeof(res.data[0]);
    std::vector<float> want;
    const std::size_t s0 = fdims[1] * fdims[2];
    for (std::size_t x = rg.lo[0]; x < rg.hi[0]; ++x) {
      for (std::size_t y = rg.lo[1]; y < rg.hi[1]; ++y) {
        const auto row = serial.begin() +
                         static_cast<std::ptrdiff_t>(x * s0 + y * fdims[2]);
        want.insert(want.end(), row + static_cast<std::ptrdiff_t>(rg.lo[2]),
                    row + static_cast<std::ptrdiff_t>(rg.hi[2]));
      }
    }
    rr.identical = res.data == want;
    region_rows.push_back(rr);
  };

  const sz::Region quarter{{0, 0, 0}, {256, 256, 1}};
  const std::vector<int> budgets = {1, 2, 4, 8};
  {
    const auto c = sz::compress(grid, dims, sz::Config{});
    run_variant(
        "SZ-1.4 v2 container", "SZ-1.4 quarter region", dims, quarter,
        c.bytes, budgets,
        [&](const sz::DecodeOptions& o) { return sz::decompress(c.bytes, o); },
        [&](const sz::Region& rg) {
          return sz::decompress_region(c.bytes, rg);
        });
  }
  {
    auto wcfg = wave::default_config();
    wcfg.huffman = true;
    const auto c = wave::compress(grid, dims, wcfg);
    run_variant(
        "waveSZ H*G* v2 container", "waveSZ quarter region", dims, quarter,
        c.bytes, budgets,
        [&](const sz::DecodeOptions& o) {
          return wave::decompress(c.bytes, o);
        },
        [&](const sz::Region& rg) {
          return wave::decompress_region(c.bytes, rg);
        });
  }
  {
    // An interior box of a 3D field, the shape of a hurricane3d_t2 read:
    // its box [0, 48) x [0, 80) x [0, 80) is 39% of its outer-slab prefix
    // [0, 48) x 128 x 128. Its container is decoded serially only.
    const Dims d3 = Dims::d3(64, 128, 128);
    data::FieldRecipe recipe;
    recipe.seed = 5;
    const auto field3 = data::generate(recipe, d3);
    const auto c = sz::compress(field3, d3, sz::Config{});
    run_variant(
        "SZ-1.4 3D v2 container", "SZ-1.4 3D interior box region", d3,
        sz::Region{{16, 24, 24}, {48, 80, 80}}, c.bytes, {1},
        [&](const sz::DecodeOptions& o) { return sz::decompress(c.bytes, o); },
        [&](const sz::Region& rg) {
          return sz::decompress_region(c.bytes, rg);
        });
  }

  std::printf("\n%-26s %8s %10s %10s %10s\n", "fixture", "threads", "MB/s",
              "speedup", "identical");
  for (const auto& r : scale_rows) {
    all_identical = all_identical && r.identical;
    std::printf("%-26s %8d %10.0f %9.2fx %10s\n", r.fixture, r.threads,
                r.mbps(), r.speedup(), r.identical ? "yes" : "NO");
  }
  std::printf("\n%-26s %12s %12s %10s %10s\n", "fixture", "read bytes",
              "of total", "vs full", "identical");
  for (const auto& r : region_rows) {
    all_identical = all_identical && r.identical;
    std::printf("%-26s %12zu %11.0f%% %9.2fx %10s\n", r.fixture, r.bytes_read,
                100.0 * r.read_frac(),
                r.seconds > 0 ? r.full_seconds / r.seconds : 0.0,
                r.identical ? "yes" : "NO");
  }
  write_decode_json(opts, rows, scale_rows, region_rows);

  std::printf("\nreading: the flat two-level Huffman tables and 64-bit "
              "bulk-refill bit\nreaders decode several bits per probe where "
              "the oracles walk one bit\nper step; output bytes are "
              "identical on every checked fixture%s.\n",
              all_identical ? "" : " — MISMATCH, decode bug");
  return all_identical ? 0 : 1;
}
