// wavesz_perfbench: the repository benchmark.
//
//   wavesz_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--commit <id>] [--source-digest <hex>] [--spans <path>]
//
// Each workload is a closed loop with one caller thread: every pass runs,
// per field, one compress, one full decompress and a fixed number of seeded
// random reads through the public sz::, wave:: and wave::StreamCompressor
// APIs. The work is fixed by the seed and by --seconds (which sets the
// number of passes, never a time box), so a seed always performs the same
// operations. Every output is verified outside the timed regions.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same loop for
// half the passes, with each library call also replayed through spans
// (trace.hpp), and prints the per-layer metrics. The second-to-last stdout line is a report with
// the environment, sample counts, the host-drift probe and the per-layer
// totals; the last line is the result object.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/stream.hpp"
#include "core/wavesz.hpp"
#include "data/datasets.hpp"
#include "metrics/stats.hpp"
#include "sz/compressor.hpp"
#include "trace.hpp"
#include "util/simd.hpp"

extern char** environ;

namespace {

namespace sz = wavesz::sz;
namespace wave = wavesz::wave;
namespace data = wavesz::data;
using perfbench::now_ms;
using perfbench::Tracer;
using wavesz::Dims;

// ---------------------------------------------------------------- workloads

enum class Codec { Wave, Sz, Stream };

struct Workload {
  const char* name;
  data::Persona persona;
  unsigned scale;
  std::size_t fields;
  Codec codec;
  int threads;                  ///< every thread budget of the workload
  std::size_t reads_per_field;  ///< random reads per field per pass
  /// Nominal seconds of one untraced pass on a 4-core x86-64 VM; --seconds
  /// divided by this, rounded, is the fixed number of passes.
  double pass_seconds;
};

constexpr std::size_t kStreamChunkPlanes = 16;
constexpr int kSetupRuns = 3;

// Why these three, and what each exercises and bypasses: README.md. The
// threaded workload uses half of the VM's four vCPUs: at budget 4 a run
// measures how many vCPUs the shared host leaves it (README.md).
constexpr Workload kWorkloads[] = {
    {"climate2d_serial", data::Persona::CesmAtm, 2, 8, Codec::Wave, 1, 5, 2.4},
    {"hurricane3d_t2", data::Persona::Hurricane, 2, 6, Codec::Sz, 2, 6, 2.9},
    {"nyx3d_stream", data::Persona::Nyx, 4, 4, Codec::Stream, 1, 10, 2.3},
};

sz::Config codec_config(const Workload& w) {
  sz::Config cfg =
      w.codec == Codec::Sz ? sz::Config{} : wave::default_config();
  if (w.codec == Codec::Wave) cfg.huffman = true;  // H*G*
  if (w.codec == Codec::Stream) cfg.pipeline_depth = 2;
  cfg.pqd_threads = w.threads;
  cfg.codec_threads = w.threads;
  cfg.decode_threads = w.threads;
  return cfg;
}

// ------------------------------------------------------------ seeded inputs

std::uint64_t mix(std::uint64_t x) {  // SplitMix64 finalizer
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

struct Rng {
  std::uint64_t state;
  std::uint64_t next() { return mix(state++); }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

/// A stretch of a field checked against one requested bound.
struct Segment {
  std::size_t begin = 0;
  std::size_t end = 0;
  double eb = 0.0;
};

struct Field {
  std::vector<float> values;
  /// Requested bounds: 1e-3 x the value range of each independently
  /// compressed stretch, computed here rather than read from a container.
  /// That stretch is the whole field, or each chunk of a stream.
  std::vector<Segment> bounds;
};

struct Inputs {
  Dims dims;
  std::vector<Field> fields;
};

/// Generates the fields concurrently: generation is set-up work, outside
/// the measured closed loop, and would otherwise dominate a run's set-up.
Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  const auto registered = data::fields(w.persona, w.scale);
  Inputs in{registered.front().dims, {}};
  std::vector<std::future<std::vector<float>>> generated;
  for (std::size_t i = 0; i < w.fields; ++i) {
    data::FieldRecipe recipe = registered[i % registered.size()].recipe;
    recipe.seed = mix(seed * 1000003u + i);
    generated.push_back(
        std::async(std::launch::async, [recipe, dims = in.dims] {
          return data::generate(recipe, dims);
        }));
  }
  for (auto& g : generated) {
    Field f;
    f.values = g.get();
    const std::size_t stretch =
        w.codec == Codec::Stream
            ? kStreamChunkPlanes * in.dims[1] * in.dims[2]
            : f.values.size();
    for (std::size_t b = 0; b < f.values.size(); b += stretch) {
      const std::size_t e = std::min(b + stretch, f.values.size());
      const auto first = f.values.begin() + static_cast<std::ptrdiff_t>(b);
      const auto last = f.values.begin() + static_cast<std::ptrdiff_t>(e);
      const auto [lo, hi] = std::minmax_element(first, last);
      f.bounds.push_back(
          {b, e, 1e-3 * (static_cast<double>(*hi) - static_cast<double>(*lo))});
    }
    in.fields.push_back(std::move(f));
  }
  return in;
}

/// A random hyperslab: each axis spans 1/16 to 1/4 of its extent. Stream
/// reads are plane slabs of 1 to one chunk's worth of whole planes.
sz::Region sample_region(Rng& rng, Codec codec, const Dims& d) {
  sz::Region rg;
  if (codec == Codec::Stream) {
    const std::size_t len = 1 + rng.below(kStreamChunkPlanes);
    const std::size_t lo = rng.below(d[0] - len + 1);
    rg.lo = {lo, 0, 0};
    rg.hi = {lo + len, d[1], d[2]};
    return rg;
  }
  for (int a = 0; a < 3; ++a) {
    const auto ax = static_cast<std::size_t>(a);
    if (a >= d.rank) {
      rg.lo[ax] = 0;
      rg.hi[ax] = 1;
      continue;
    }
    const std::size_t e = d[a];
    const std::size_t min_len = std::max<std::size_t>(1, e / 16);
    const std::size_t max_len = std::max(min_len, e / 4);
    const std::size_t len = min_len + rng.below(max_len - min_len + 1);
    const std::size_t lo = rng.below(e - len + 1);
    rg.lo[ax] = lo;
    rg.hi[ax] = lo + len;
  }
  return rg;
}

std::size_t region_points(const sz::Region& rg) {
  return (rg.hi[0] - rg.lo[0]) * (rg.hi[1] - rg.lo[1]) * (rg.hi[2] - rg.lo[2]);
}

std::vector<float> slice(std::span<const float> field, const Dims& d,
                         const sz::Region& rg) {
  std::vector<float> out;
  out.reserve(region_points(rg));
  const std::size_t s0 = d.extent[1] * d.extent[2];
  const std::size_t s1 = d.extent[2];
  for (std::size_t x = rg.lo[0]; x < rg.hi[0]; ++x) {
    for (std::size_t y = rg.lo[1]; y < rg.hi[1]; ++y) {
      const float* row = field.data() + x * s0 + y * s1;
      out.insert(out.end(), row + rg.lo[2], row + rg.hi[2]);
    }
  }
  return out;
}

// ------------------------------------------------------- library operations

std::vector<std::uint8_t> compress(Codec codec, const sz::Config& cfg,
                                   const Dims& dims,
                                   std::span<const float> values) {
  switch (codec) {
    case Codec::Wave: return wave::compress(values, dims, cfg).bytes;
    case Codec::Sz: return sz::compress(values, dims, cfg).bytes;
    case Codec::Stream: {
      wave::StreamCompressor sc(dims, cfg, kStreamChunkPlanes);
      const std::size_t plane = dims[1] * dims[2];
      for (std::size_t p = 0; p < dims[0]; ++p) {
        sc.feed(values.subspan(p * plane, plane));
      }
      return sc.finish();
    }
  }
  return {};
}

std::vector<float> decompress(Codec codec, const sz::DecodeOptions& opts,
                              std::span<const std::uint8_t> bytes) {
  switch (codec) {
    case Codec::Wave: return wave::decompress(bytes, opts);
    case Codec::Sz: return sz::decompress(bytes, opts);
    case Codec::Stream: return wave::stream_decompress(bytes, opts);
  }
  return {};
}

struct ReadResult {
  std::vector<float> values;
  double bytes_frac = 0.0;  ///< container share the read consumed
};

ReadResult read(Codec codec, const sz::DecodeOptions& opts, const Dims& dims,
                std::span<const std::uint8_t> bytes, const sz::Region& rg) {
  if (codec == Codec::Stream) {
    const std::size_t plane = dims[1] * dims[2];
    const std::size_t chunks =
        (dims[0] + kStreamChunkPlanes - 1) / kStreamChunkPlanes;
    const std::size_t first = rg.lo[0] / kStreamChunkPlanes;
    const std::size_t last = (rg.hi[0] - 1) / kStreamChunkPlanes;
    ReadResult res;
    res.values.reserve((rg.hi[0] - rg.lo[0]) * plane);
    for (std::size_t c = first; c <= last; ++c) {
      const auto chunk =
          wave::stream_decompress_chunk(bytes, c, opts.pqd_threads);
      const std::size_t p0 = std::max(rg.lo[0], chunk.first_plane);
      const std::size_t p1 =
          std::min(rg.hi[0], chunk.first_plane + chunk.plane_count);
      const auto base = chunk.data.begin();
      res.values.insert(
          res.values.end(),
          base + static_cast<std::ptrdiff_t>((p0 - chunk.first_plane) * plane),
          base + static_cast<std::ptrdiff_t>((p1 - chunk.first_plane) * plane));
    }
    res.bytes_frac = static_cast<double>(last - first + 1) /
                     static_cast<double>(chunks);
    return res;
  }
  sz::RegionResult r = codec == Codec::Wave
                           ? wave::decompress_region(bytes, rg, opts)
                           : sz::decompress_region(bytes, rg, opts);
  return {std::move(r.data), static_cast<double>(r.compressed_bytes_read) /
                                 static_cast<double>(bytes.size())};
}

// ------------------------------------------------------------ verification

struct Quality {
  bool ok = false;
  double psnr_db = 0.0;
  double max_err_over_eb = 0.0;
};

/// Checks a full decode against the requested bounds scaled by `scale`.
Quality check_decode(const Field& f, std::span<const float> decoded,
                     double scale = 1.0) {
  if (decoded.size() != f.values.size()) return {};
  Quality q{true, wavesz::metrics::distortion(f.values, decoded).psnr_db, 0.0};
  const std::span<const float> values = f.values;
  for (const Segment& s : f.bounds) {
    const auto orig = values.subspan(s.begin, s.end - s.begin);
    const auto dec = decoded.subspan(s.begin, s.end - s.begin);
    const double eb = s.eb * scale;
    q.ok = q.ok && wavesz::metrics::within_bound(orig, dec, eb);
    q.max_err_over_eb =
        std::max(q.max_err_over_eb,
                 wavesz::metrics::distortion(orig, dec).max_abs_error / eb);
  }
  return q;
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

/// Counts attempted and failed operations; an operation fails when it
/// throws or its verification returns false.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;

  bool run(const char* what, const std::function<bool()>& op) {
    ++attempted;
    std::string why = "verification failed";
    try {
      if (op()) return true;
    } catch (const std::exception& e) {
      why = e.what();
    }
    ++failed;
    if (errors.size() < 8) errors.push_back(std::string(what) + ": " + why);
    return false;
  }
};

// ------------------------------------------------------------------ output

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (const double x : v) out += (out.size() > 1 ? ", " : "") + num(x);
  return out + "]";
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (const auto& m : ms) {
    if (out.size() > 1) out += ", ";
    out += quoted(m.name) + ": {\"value\": " + num(m.value) +
           ", \"unit\": " + quoted(m.unit) + "}";
  }
  return out + "}";
}

// ------------------------------------------------------------------- stats

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile: p95 of 200 samples leaves 10 above it.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// getrusage(RUSAGE_SELF) deltas of one operation (all threads).
struct Usage {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  double vcsw = 0.0;
  double ivcsw = 0.0;
  double minflt = 0.0;

  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto ms = [](const timeval& t) {
      return static_cast<double>(t.tv_sec) * 1e3 +
             static_cast<double>(t.tv_usec) * 1e-3;
    };
    return {now_ms(), ms(ru.ru_utime) + ms(ru.ru_stime),
            static_cast<double>(ru.ru_nvcsw),
            static_cast<double>(ru.ru_nivcsw),
            static_cast<double>(ru.ru_minflt)};
  }
  Usage operator-(const Usage& o) const {
    return {wall_ms - o.wall_ms, cpu_ms - o.cpu_ms, vcsw - o.vcsw,
            ivcsw - o.ivcsw, minflt - o.minflt};
  }
};

/// Runs `op` and returns its wall time in ms, appending its rusage delta to
/// `log` when one is given.
double timed(const std::function<void()>& op,
             std::vector<Usage>* log = nullptr) {
  const Usage u0 = log != nullptr ? Usage::now() : Usage{};
  const double t0 = now_ms();
  op();
  const double dt = now_ms() - t0;
  if (log != nullptr) log->push_back(Usage::now() - u0);
  return dt;
}

/// Fixed single-thread loops that call nothing in the library: an ALU loop,
/// and sweeps over a 16 MiB buffer, larger than a core's L2, which also
/// feel other tenants' use of the shared cache and memory. Their times track
/// the host's speed, so a slow host phase can be told from a regression.
struct Probe {
  double alu_ms = 0.0;
  double mem_ms = 0.0;

  static Probe run() {
    Probe p;
    double t0 = now_ms();
    std::uint64_t x = 0x2545F4914F6CDD1Dull;
    double acc = 0.0;
    for (int i = 0; i < 20'000'000; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      acc += static_cast<double>(x >> 11) * 0x1p-53;
    }
    p.alu_ms = now_ms() - t0;
    std::vector<std::uint64_t> buf(std::size_t{2} << 20, x);
    t0 = now_ms();
    for (int sweep = 0; sweep < 8; ++sweep) {
      for (std::size_t i = 0; i < buf.size(); i += 8) {
        buf[i] += static_cast<std::uint64_t>(sweep) + buf[buf.size() - 1 - i];
      }
    }
    p.mem_ms = now_ms() - t0;
    volatile double sink = acc + static_cast<double>(buf[0]);
    (void)sink;
    return p;
  }

  std::string json() const {
    return "{\"alu_ms\": " + num(alu_ms) + ", \"mem_ms\": " + num(mem_ms) + "}";
  }
};

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ------------------------------------------------------------------ runner

/// Per-operation layer times gathered from the tracer for one operation
/// kind: each named span summed within its operation, plus wall and
/// unattributed (wall minus all spans) time.
struct LayerTimes {
  std::vector<double> wall;
  std::vector<double> unattributed;
  std::map<std::string, std::vector<double>> by_name;

  LayerTimes(const Tracer& tr, const std::string& kind) {
    std::vector<std::map<std::string, double>> per_op(tr.ops().size());
    for (const auto& s : tr.spans()) per_op[s.op][s.name] += s.t1 - s.t0;
    std::vector<std::size_t> ids;
    for (std::size_t i = 0; i < tr.ops().size(); ++i) {
      if (tr.ops()[i].kind != kind) continue;
      ids.push_back(i);
      for (const auto& [name, ms] : per_op[i]) by_name[name];
    }
    for (const std::size_t i : ids) {
      const double w = tr.ops()[i].t1 - tr.ops()[i].t0;
      double spans = 0.0;
      for (auto& [name, v] : by_name) {
        const auto it = per_op[i].find(name);
        const double ms = it == per_op[i].end() ? 0.0 : it->second;
        v.push_back(ms);
        spans += ms;
      }
      wall.push_back(w);
      unattributed.push_back(w - spans);
    }
  }

  /// Median over operations of the summed time of `names`.
  double median_of(std::initializer_list<const char*> names) const {
    std::vector<double> sum(wall.size(), 0.0);
    for (const char* n : names) {
      const auto it = by_name.find(n);
      if (it == by_name.end()) continue;
      for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += it->second[i];
    }
    return median(sum);
  }

  std::string totals_json() const {
    double w = 0.0, u = 0.0;
    for (std::size_t i = 0; i < wall.size(); ++i) {
      w += wall[i];
      u += unattributed[i];
    }
    std::string out = "{\"ops\": " + std::to_string(wall.size()) +
                      ", \"wall_ms\": " + num(w);
    for (const auto& [name, v] : by_name) {
      double t = 0.0;
      for (const double x : v) t += x;
      out += ", " + quoted(name) + ": " + num(t);
    }
    return out + ", \"unattributed_ms\": " + num(u) + "}";
  }
};

class Runner {
 public:
  Runner(const Workload& w, std::uint64_t seed, int passes)
      : w_(w), cfg_(codec_config(w)), opts_{w.threads, w.threads},
        seed_(seed), passes_(passes) {}

  /// Field generation plus one warm-up compress and decompress per field,
  /// kSetupRuns times; returns each run's seconds.
  std::vector<double> setup() {
    std::vector<double> runs;
    for (int r = 0; r < kSetupRuns; ++r) {
      in_ = {};
      const double t0 = now_ms();
      in_ = make_inputs(w_, seed_);
      for (const auto& f : in_.fields) {
        const auto bytes = compress(w_.codec, cfg_, in_.dims, f.values);
        (void)decompress(w_.codec, opts_, bytes);
      }
      runs.push_back((now_ms() - t0) * 1e-3);
    }
    return runs;
  }

  /// Corrupt one container byte, then halve the bound: each must be caught
  /// by the same checks the measured operations get. Some bytes carry
  /// nothing the decode reads: an informational header field
  /// (`eb_requested`), a chunk-index field the serial decode only
  /// range-checks, or a redundant bit of a DEFLATE block header (zlib
  /// inflates such a stream to the same bytes too). Flipping one leaves the
  /// decode bit-identical, so there is nothing to catch, and the flip moves
  /// on to the next byte.
  std::pair<bool, bool> self_check() {
    constexpr std::size_t kFlipTries = 64;
    const Field& f = in_.fields.front();
    auto bytes = compress(w_.codec, cfg_, in_.dims, f.values);
    const auto good = decompress(w_.codec, opts_, bytes);
    bool flip_caught = false;
    const std::size_t first = bytes.size() / 2;
    const std::size_t last = std::min(bytes.size(), first + kFlipTries);
    for (std::size_t at = first; at < last && !flip_caught; ++at) {
      bytes[at] ^= 0x5A;
      try {
        const auto bad = decompress(w_.codec, opts_, bytes);
        flip_caught = !check_decode(f, bad).ok || !same_bits(bad, good);
      } catch (const std::exception&) {
        flip_caught = true;
      }
      bytes[at] ^= 0x5A;
    }
    return {flip_caught, !check_decode(f, good, 0.5).ok};
  }

  /// The fixed closed loop. A traced run also records rusage per operation
  /// and replays each compress and decompress through the tracer.
  void run(bool trace) {
    Rng reads{mix(seed_ ^ 0x5EADull)};
    perfbench::EntropyCounts scratch;
    auto log = [&](const char* op) { return trace ? &usage_[op] : nullptr; };
    for (int pass = 0; pass < passes_; ++pass) {
      const double pass_t0 = now_ms();
      for (std::size_t i = 0; i < in_.fields.size(); ++i) {
        const Field& f = in_.fields[i];
        std::vector<std::uint8_t> bytes;
        if (!tally_.run("compress", [&] {
              compress_ms_.push_back(timed(
                  [&] { bytes = compress(w_.codec, cfg_, in_.dims, f.values); },
                  log("compress")));
              return same_container(pass, i, bytes);
            })) {
          continue;
        }
        if (trace) {
          tally_.run("traced compress",
                     [&] { return traced_compress(f) == bytes; });
          if (w_.codec == Codec::Stream) {
            tally_.run("chunk replay", [&] {
              return replay_chunks(f, bytes, compress_ms_.back());
            });
          }
        }
        std::vector<float> full;
        if (!tally_.run("decompress", [&] {
              decompress_ms_.push_back(timed(
                  [&] { full = decompress(w_.codec, opts_, bytes); },
                  log("decompress")));
              return record_quality(f, full);
            })) {
          continue;
        }
        if (trace) {
          tally_.run("traced decompress", [&] {
            auto& counts = pass == 0 ? entropy_ : scratch;
            return same_bits(traced_decompress(bytes, counts), full);
          });
        }
        for (std::size_t k = 0; k < w_.reads_per_field; ++k) {
          measured_read(reads, bytes, full, log("read"));
        }
      }
      pass_s_.push_back((now_ms() - pass_t0) * 1e-3);
    }
  }

  std::vector<Metric> end_to_end(double setup_s) const {
    return {
        {"compress_MBps", throughput_mbps(compress_ms_), "MB/s"},
        {"decompress_MBps", throughput_mbps(decompress_ms_), "MB/s"},
        {"read_p50_ms", percentile(read_ms_, 0.50), "ms"},
        {"read_p95_ms", percentile(read_ms_, 0.95), "ms"},
        {"read_bytes_frac", mean(read_frac_), "ratio"},
        {"ratio", ratio(field_bytes_, container_bytes_), "x"},
        {"psnr_db", mean(psnr_), "dB"},
        {"max_err_over_eb", max_err_over_eb_, "ratio"},
        {"pass_rate",
         ratio(static_cast<double>(tally_.attempted - tally_.failed),
               static_cast<double>(tally_.attempted)),
         "fraction"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_MB", peak_rss_mb(), "MB"},
    };
  }

  std::vector<Metric> per_layer() const {
    const bool stream = w_.codec == Codec::Stream;
    const LayerTimes comp(tracer_, "compress");
    const LayerTimes dec(tracer_, "decompress");
    // Stream workloads replay each chunk's staged job; its phases are the
    // compress layers there.
    const LayerTimes phases(tracer_, stream ? "chunk" : "compress");
    auto stream_only = [&](double v) { return stream ? v : 0.0; };
    const auto& e = entropy_;
    std::vector<Metric> m = {
        {"sz.pqd_ms", phases.median_of({"sz.pqd_ms"}), "ms"},
        {"core.pqd_ms", phases.median_of({"core.pqd_ms"}), "ms"},
        {"sz.encode_codes_ms", phases.median_of({"sz.encode_codes_ms"}), "ms"},
        {"sz.encode_unpred_ms", phases.median_of({"sz.encode_unpred_ms"}),
         "ms"},
        {"deflate.compress_ms", phases.median_of({"deflate.compress_ms"}),
         "ms"},
        {"sz.assemble_ms", phases.median_of({"sz.assemble_ms"}), "ms"},
        {"compress.unattributed_ms", median(comp.unattributed), "ms"},
        {"sz.parse_ms", dec.median_of({"sz.parse_ms"}), "ms"},
        {"deflate.inflate_ms", dec.median_of({"deflate.inflate_ms"}), "ms"},
        {"sz.huffman_decode_ms", dec.median_of({"sz.huffman_decode_ms"}),
         "ms"},
        {"sz.unpred_decode_ms", dec.median_of({"sz.unpred_decode_ms"}), "ms"},
        {"sz.reconstruct_ms", dec.median_of({"sz.reconstruct_ms"}), "ms"},
        {"core.reconstruct_ms", dec.median_of({"core.reconstruct_ms"}), "ms"},
        {"decompress.unattributed_ms", median(dec.unattributed), "ms"},
        {"core.stream_feed_ms", comp.median_of({"core.stream_feed_ms"}), "ms"},
        {"core.stream_finish_ms", comp.median_of({"core.stream_finish_ms"}),
         "ms"},
        {"core.stage_pqd_ms", stream_only(phases.median_of({"core.pqd_ms"})),
         "ms"},
        {"core.stage_entropy_ms",
         stream_only(phases.median_of(
             {"sz.encode_codes_ms", "sz.encode_unpred_ms"})),
         "ms"},
        {"core.stage_frame_ms",
         stream_only(
             phases.median_of({"deflate.compress_ms", "sz.assemble_ms"})),
         "ms"},
        {"core.pipeline_overlap", median(overlap_), "ratio"},
        {"core.arena_fresh", median(arena_fresh_), "count"},
        {"read.amplification", ratio(mean(read_frac_), mean(read_req_frac_)),
         "ratio"},
        {"read.cost_vs_full",
         ratio(median(read_ms_), median(decompress_ms_)), "ratio"},
        {"sz.code_bits_per_value",
         ratio(8.0 * static_cast<double>(e.code_plain),
               static_cast<double>(e.points)),
         "bits/value"},
        {"deflate.gain_codes",
         ratio(static_cast<double>(e.code_plain),
               static_cast<double>(e.code_blob)),
         "x"},
        {"deflate.gain_unpred",
         ratio(static_cast<double>(e.unpred_plain),
               static_cast<double>(e.unpred_blob)),
         "x"},
        {"sz.unpredictable_frac",
         ratio(static_cast<double>(e.unpredictable),
               static_cast<double>(e.points)),
         "fraction"},
    };
    for (const char* op : {"compress", "decompress", "read"}) {
      const auto it = usage_.find(op);
      const std::vector<Usage> none;
      const auto& u = it == usage_.end() ? none : it->second;
      std::vector<double> cpw, vcsw, ivcsw, minflt;
      for (const auto& x : u) {
        cpw.push_back(ratio(x.cpu_ms, x.wall_ms));
        vcsw.push_back(x.vcsw);
        ivcsw.push_back(x.ivcsw);
        minflt.push_back(x.minflt);
      }
      const std::string p = op;
      m.push_back({p + ".cpu_per_wall", median(cpw), "ratio"});
      m.push_back({p + ".vcsw", median(vcsw), "count"});
      m.push_back({p + ".ivcsw", median(ivcsw), "count"});
      m.push_back({p + ".minflt", median(minflt), "count"});
    }
    m.push_back({"compress.traced_ms", median(comp.wall), "ms"});
    m.push_back({"decompress.traced_ms", median(dec.wall), "ms"});
    m.push_back({"compress.trace_overhead_ms",
                 median(comp.wall) - median(compress_ms_), "ms"});
    m.push_back({"decompress.trace_overhead_ms",
                 median(dec.wall) - median(decompress_ms_), "ms"});
    return m;
  }

  std::string layer_totals_json() const {
    std::string out = "{";
    for (const char* kind : {"compress", "chunk", "decompress"}) {
      const LayerTimes lt(tracer_, kind);
      if (lt.wall.empty()) continue;
      if (out.size() > 1) out += ", ";
      out += quoted(kind) + ": " + lt.totals_json();
    }
    return out + "}";
  }

  void write_spans(const std::string& path) const {
    std::ofstream os(path);
    const auto& ops = tracer_.ops();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      os << "{\"op\": " << i << ", \"name\": " << quoted(ops[i].kind)
         << ", \"parent\": null, \"t0_ms\": " << num(ops[i].t0)
         << ", \"t1_ms\": " << num(ops[i].t1) << "}\n";
    }
    for (const auto& s : tracer_.spans()) {
      os << "{\"op\": " << s.op << ", \"name\": " << quoted(s.name)
         << ", \"parent\": " << s.op << ", \"t0_ms\": " << num(s.t0)
         << ", \"t1_ms\": " << num(s.t1) << "}\n";
    }
  }

  const Tally& tally() const { return tally_; }
  const Inputs& inputs() const { return in_; }
  std::size_t compress_samples() const { return compress_ms_.size(); }
  std::size_t decompress_samples() const { return decompress_ms_.size(); }
  std::size_t read_samples() const { return read_ms_.size(); }
  const std::vector<double>& pass_seconds() const { return pass_s_; }

 private:
  /// Every pass must reproduce the first pass's container bit for bit.
  bool same_container(int pass, std::size_t i,
                      const std::vector<std::uint8_t>& bytes) {
    if (pass == 0) {
      first_.push_back(bytes);
      field_bytes_ += static_cast<double>(in_.fields[i].values.size() *
                                          sizeof(float));
      container_bytes_ += static_cast<double>(bytes.size());
      return true;
    }
    return bytes == first_[i];
  }

  /// Field bytes over the summed call time; all fields have one size.
  double throughput_mbps(const std::vector<double>& call_ms) const {
    double total_ms = 0.0;
    for (const double ms : call_ms) total_ms += ms;
    const double bytes = static_cast<double>(call_ms.size() *
                                             in_.dims.count() * sizeof(float));
    return ratio(bytes * 1e-6, total_ms * 1e-3);
  }

  bool record_quality(const Field& f, const std::vector<float>& full) {
    const Quality q = check_decode(f, full);
    psnr_.push_back(q.psnr_db);
    max_err_over_eb_ = std::max(max_err_over_eb_, q.max_err_over_eb);
    return q.ok;
  }

  void measured_read(Rng& rng, const std::vector<std::uint8_t>& bytes,
                     const std::vector<float>& full, std::vector<Usage>* log) {
    const sz::Region rg = sample_region(rng, w_.codec, in_.dims);
    // Reads run on the caller thread alone (decode budget 1) in every
    // workload. A read lasts tens of ms, and one that forks a team waits for
    // any vCPU the shared host holds back: at budget 2, read_p95_ms spread
    // 21% over ten runs, against 5% for serial reads (README.md).
    const sz::DecodeOptions serial;
    tally_.run("read", [&] {
      ReadResult r;
      read_ms_.push_back(
          timed([&] { r = read(w_.codec, serial, in_.dims, bytes, rg); }, log));
      read_frac_.push_back(r.bytes_frac);
      read_req_frac_.push_back(static_cast<double>(region_points(rg)) /
                               static_cast<double>(in_.dims.count()));
      return same_bits(r.values, slice(full, in_.dims, rg));
    });
  }

  std::vector<std::uint8_t> traced_compress(const Field& f) {
    tracer_.begin("compress");
    std::vector<std::uint8_t> out;
    if (w_.codec == Codec::Stream) {
      wave::StreamCompressor sc(in_.dims, cfg_, kStreamChunkPlanes);
      const std::size_t plane = in_.dims[1] * in_.dims[2];
      const std::span<const float> values = f.values;
      for (std::size_t p = 0; p < in_.dims[0]; ++p) {
        tracer_.span("core.stream_feed_ms",
                     [&] { sc.feed(values.subspan(p * plane, plane)); });
      }
      tracer_.span("core.stream_finish_ms", [&] { out = sc.finish(); });
      tracer_.end();
      arena_fresh_.push_back(static_cast<double>(sc.arena_stats().fresh));
      return out;
    }
    auto job = w_.codec == Codec::Sz
                   ? sz::make_staged(f.values, in_.dims, cfg_)
                   : wave::make_staged(f.values, in_.dims, cfg_);
    out = perfbench::traced_compress(tracer_, *job, w_.codec == Codec::Wave)
              .bytes;
    tracer_.end();
    return out;
  }

  /// Replay each chunk of a stream write as a barrier staged job; every
  /// chunk must match the archive's, and the summed phase time over the
  /// pipelined write's wall time is the pipeline overlap.
  bool replay_chunks(const Field& f, std::span<const std::uint8_t> archive,
                     double write_ms) {
    const auto chunks = perfbench::stream_chunks(archive);
    const std::size_t plane = in_.dims[1] * in_.dims[2];
    const std::span<const float> values = f.values;
    bool ok = true;
    double busy = 0.0;
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      const std::size_t p0 = c * kStreamChunkPlanes;
      const std::size_t planes =
          std::min(kStreamChunkPlanes, in_.dims[0] - p0);
      const Dims cdims = Dims::d3(planes, in_.dims[1], in_.dims[2]);
      tracer_.begin("chunk");
      const std::size_t op = tracer_.ops().size() - 1;
      const std::size_t first_span = tracer_.spans().size();
      auto job = wave::make_staged(values.subspan(p0 * plane, planes * plane),
                                   cdims, cfg_);
      const auto out = perfbench::traced_compress(tracer_, *job, true);
      tracer_.end();
      for (std::size_t s = first_span; s < tracer_.spans().size(); ++s) {
        const auto& sp = tracer_.spans()[s];
        if (sp.op == op) busy += sp.t1 - sp.t0;
      }
      ok = ok && std::equal(out.bytes.begin(), out.bytes.end(),
                            chunks[c].begin(), chunks[c].end());
    }
    overlap_.push_back(ratio(busy, write_ms));
    return ok;
  }

  std::vector<float> traced_decompress(std::span<const std::uint8_t> bytes,
                                       perfbench::EntropyCounts& counts) {
    tracer_.begin("decompress");
    std::vector<float> out;
    if (w_.codec == Codec::Stream) {
      std::vector<std::span<const std::uint8_t>> chunks;
      tracer_.span("sz.parse_ms",
                   [&] { chunks = perfbench::stream_chunks(bytes); });
      out.reserve(in_.dims.count());
      for (const auto chunk : chunks) {
        const auto part =
            perfbench::traced_decompress(tracer_, chunk, opts_, counts);
        out.insert(out.end(), part.begin(), part.end());
      }
    } else {
      out = perfbench::traced_decompress(tracer_, bytes, opts_, counts);
    }
    tracer_.end();
    return out;
  }

  const Workload& w_;
  sz::Config cfg_;
  sz::DecodeOptions opts_;
  std::uint64_t seed_;
  int passes_;
  Inputs in_;
  Tally tally_;
  Tracer tracer_;

  std::vector<std::vector<std::uint8_t>> first_;
  std::vector<double> compress_ms_, decompress_ms_;  ///< per library call
  double field_bytes_ = 0.0, container_bytes_ = 0.0;
  std::vector<double> read_ms_, read_frac_, read_req_frac_, psnr_;
  std::vector<double> pass_s_;
  double max_err_over_eb_ = 0.0;

  std::vector<double> overlap_, arena_fresh_;
  std::map<std::string, std::vector<Usage>> usage_;
  perfbench::EntropyCounts entropy_;
};

/// OMP_*, GOMP_* and WAVESZ_* variables each select another code path
/// (thread counts, wait policy, SIMD level, reference decoders).
std::vector<std::string> path_selecting_env() {
  std::vector<std::string> found;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view kv(*e);
    for (const std::string_view p : {"OMP_", "GOMP_", "WAVESZ_"}) {
      if (kv.substr(0, p.size()) == p) {
        found.emplace_back(kv.substr(0, kv.find('=')));
      }
    }
  }
  return found;
}

int usage_error(const std::string& msg) {
  std::fprintf(stderr, "wavesz_perfbench: %s\n", msg.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage_error("bad argument " + key);
    args[key.substr(2)] = argv[i + 1];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (args.count(required) == 0) {
      return usage_error(std::string("missing --") + required);
    }
  }
  const auto env = path_selecting_env();
  if (!env.empty()) {
    std::string names;
    for (const auto& n : env) names += " " + n;
    return usage_error("refusing to run with path-selecting variables set:" +
                       names);
  }
  const Workload* w = nullptr;
  for (const auto& cand : kWorkloads) {
    if (args["workload"] == cand.name) w = &cand;
  }
  if (w == nullptr) return usage_error("unknown workload " + args["workload"]);
  const std::uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds = std::strtod(args["seconds"].c_str(), nullptr);
  const bool trace = args["trace"] == "1";
  // A traced run also replays every call through the tracer, roughly
  // doubling the work of a pass, so it makes half the passes.
  const int passes = std::max(
      1, static_cast<int>(std::lround(seconds / w->pass_seconds / (trace ? 2 : 1))));

  const Probe probe_before = Probe::run();
  Runner runner(*w, seed, passes);
  std::vector<double> setup_runs;
  std::pair<bool, bool> caught{false, false};
  try {
    setup_runs = runner.setup();
    caught = runner.self_check();
  } catch (const std::exception& e) {
    return usage_error(std::string("setup failed: ") + e.what());
  }
  runner.run(trace);
  // Peak RSS is read before the closing probe allocates its buffer.
  const auto metrics =
      trace ? runner.per_layer() : runner.end_to_end(median(setup_runs));
  const Probe probe_after = Probe::run();

  const Tally& t = runner.tally();
  const bool correct = t.failed == 0 && caught.first && caught.second;
  if (!correct) {
    std::fprintf(stderr,
                 "wavesz_perfbench: %s seed %s: %zu of %zu operations failed; "
                 "flipped byte %s, halved bound %s\n",
                 w->name, args["seed"].c_str(), t.failed, t.attempted,
                 caught.first ? "caught" : "NOT caught",
                 caught.second ? "caught" : "NOT caught");
    for (const auto& e : t.errors) std::fprintf(stderr, "  %s\n", e.c_str());
  }
  if (trace && args.count("spans") != 0) runner.write_spans(args["spans"]);

  std::string errors = "[";
  for (const auto& e : t.errors) {
    errors += (errors.size() > 1 ? ", " : "") + quoted(e);
  }
  errors += "]";
  const Dims& d = runner.inputs().dims;
  std::string report =
      "{\"report\": {\"workload\": " + quoted(w->name) +
      ", \"seed\": " + std::to_string(seed) + ", \"seconds\": " + num(seconds) +
      ", \"trace\": " + (trace ? "1" : "0") +
      ", \"passes\": " + std::to_string(passes) +
      ", \"fields\": " + std::to_string(runner.inputs().fields.size()) +
      ", \"dims\": " + quoted(d.str()) + ", \"threads\": " +
      std::to_string(w->threads) + ", \"env\": {\"nproc\": " +
      std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) + ", \"simd\": " +
      quoted(wavesz::simd::level_name(wavesz::simd::active())) +
      ", \"compiler\": " + quoted(std::string("gcc ") + __VERSION__) +
      ", \"build_type\": " + quoted(WAVESZ_PERFBENCH_BUILD_TYPE) +
      ", \"commit\": " + quoted(args.count("commit") ? args["commit"] : "") +
      ", \"source_digest\": " +
      quoted(args.count("source-digest") ? args["source-digest"] : "") +
      "}, \"samples\": {\"compress\": " +
      std::to_string(runner.compress_samples()) +
      ", \"decompress\": " + std::to_string(runner.decompress_samples()) +
      ", \"read\": " + std::to_string(runner.read_samples()) +
      "}, \"drift_probe\": {\"before\": " + probe_before.json() +
      ", \"after\": " + probe_after.json() +
      "}, \"setup_runs_s\": " + json_array(setup_runs) +
      ", \"pass_s\": " + json_array(runner.pass_seconds()) +
      ", \"self_check\": {\"flipped_byte_caught\": " +
      (caught.first ? "true" : "false") + ", \"halved_bound_caught\": " +
      (caught.second ? "true" : "false") + "}, \"errors\": " + errors;
  if (trace) report += ", \"layer_totals_ms\": " + runner.layer_totals_json();
  report += "}}";
  std::printf("%s\n", report.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false", t.attempted, t.failed,
      metrics_json(metrics).c_str());
  return correct ? 0 : 1;
}
