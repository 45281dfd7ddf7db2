// google-benchmark microbenchmarks of the hot kernels: quantization (at a
// base-10 and a base-2 bound), Lorenzo PQD, wavefront transform, customized Huffman, DEFLATE,
// truncation coding, and the telemetry enabled/disabled overhead pair.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "core/wavefront.hpp"
#include "core/wavesz.hpp"
#include "data/synthetic.hpp"
#include "deflate/deflate.hpp"
#include "deflate/parallel.hpp"
#include "sz/compressor.hpp"
#include "sz/huffman_codec.hpp"
#include "sz/quantizer.hpp"
#include "sz/unpredictable.hpp"
#include "telemetry/telemetry.hpp"
#include "util/simd.hpp"

namespace {

using namespace wavesz;

// SIMD-level sweep plumbing: benchmarks below take the level as
// state.range and pin the dispatcher with simd::set_level for the run.
// Levels the host lacks are skipped, not failed, so the same binary
// sweeps cleanly everywhere.
constexpr simd::Level kLevels[] = {simd::Level::Scalar, simd::Level::Sse2,
                                   simd::Level::Avx2};

bool enter_level(benchmark::State& state, std::int64_t arg) {
  const simd::Level lvl = kLevels[arg];
  if (static_cast<int>(lvl) > static_cast<int>(simd::detected())) {
    state.SkipWithError("level not supported on this host");
    return false;
  }
  simd::set_level(lvl);
  state.SetLabel(simd::level_name(lvl));
  return true;
}

void leave_level() { simd::set_level(simd::detected()); }

std::vector<float> test_field(std::size_t d0, std::size_t d1) {
  data::FieldRecipe r;
  r.seed = 7;
  r.base_frequency = 0.4;
  r.noise_amplitude = 1e-4;
  return data::generate(r, Dims::d2(d0, d1));
}

void BM_QuantizeBase10(benchmark::State& state) {
  const sz::LinearQuantizer q(1e-3, 16);
  std::vector<float> vals(8192);
  for (std::size_t i = 0; i < vals.size(); ++i) {
    vals[i] = static_cast<float>(i % 131) * 1e-4f;
  }
  for (auto _ : state) {
    std::uint32_t acc = 0;
    for (std::size_t i = 1; i < vals.size(); ++i) {
      acc += q.quantize(vals[i - 1], vals[i]).code;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          8191);
}
BENCHMARK(BM_QuantizeBase10);

void BM_QuantizeBase2(benchmark::State& state) {
  const sz::LinearQuantizer q(std::ldexp(1.0, -10), 16);  // EbBase::Two
  std::vector<float> vals(8192);
  for (std::size_t i = 0; i < vals.size(); ++i) {
    vals[i] = static_cast<float>(i % 131) * 1e-4f;
  }
  for (auto _ : state) {
    std::uint32_t acc = 0;
    for (std::size_t i = 1; i < vals.size(); ++i) {
      acc += q.quantize(vals[i - 1], vals[i]).code;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          8191);
}
BENCHMARK(BM_QuantizeBase2);

void BM_LorenzoPqd2D(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto field = test_field(n, n);
  const sz::LinearQuantizer q(1e-3, 16);
  for (auto _ : state) {
    auto pqd = sz::lorenzo_pqd(field, Dims::d2(n, n), q);
    benchmark::DoNotOptimize(pqd.codes.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * 4));
}
BENCHMARK(BM_LorenzoPqd2D)->Arg(64)->Arg(256);

void BM_WavefrontTransform(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto field = test_field(n, n);
  const wave::WavefrontLayout layout(n, n);
  for (auto _ : state) {
    auto wf = wave::to_wavefront(field, layout);
    benchmark::DoNotOptimize(wf.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * 4));
}
BENCHMARK(BM_WavefrontTransform)->Arg(256);

void BM_WaveKernel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto field = test_field(n, n);
  const wave::WavefrontLayout layout(n, n);
  const auto wf0 = wave::to_wavefront(field, layout);
  const sz::LinearQuantizer q(1e-3, 16);
  for (auto _ : state) {
    auto wf = wf0;
    auto kr = wave::wave_pqd_2d(wf, layout, q);
    benchmark::DoNotOptimize(kr.codes.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * 4));
}
BENCHMARK(BM_WaveKernel)->Arg(256);

void BM_HuffmanEncode(benchmark::State& state) {
  std::mt19937 rng(3);
  std::vector<std::uint16_t> codes(1 << 16);
  for (auto& c : codes) {
    c = static_cast<std::uint16_t>(32768 + static_cast<int>(rng() % 9) - 4);
  }
  for (auto _ : state) {
    auto blob = sz::huffman_encode(codes);
    benchmark::DoNotOptimize(blob.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(codes.size() * 2));
}
BENCHMARK(BM_HuffmanEncode);

void BM_DeflateFast(benchmark::State& state) {
  std::vector<std::uint8_t> input(1 << 18);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<std::uint8_t>((i / 64) % 23);
  }
  for (auto _ : state) {
    auto out = deflate::compress(input, deflate::Level::Fast);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
}
BENCHMARK(BM_DeflateFast);

// Isolates the LZ77 hash-chain matcher (the memory-traffic-bound stage the
// uint32 head/prev shrink targets; run before/after to size the win).
void BM_Lz77TokenizeBest(benchmark::State& state) {
  std::vector<std::uint8_t> input(1 << 18);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<std::uint8_t>((i / 64) % 23 + (i % 7 == 0));
  }
  for (auto _ : state) {
    auto tokens = deflate::tokenize(input, deflate::Level::Best);
    benchmark::DoNotOptimize(tokens.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
}
BENCHMARK(BM_Lz77TokenizeBest);

void BM_DeflateParallel(benchmark::State& state) {
  std::vector<std::uint8_t> input(4 << 20);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<std::uint8_t>((i / 64) % 23);
  }
  const deflate::ParallelOptions opts{256 * 1024,
                                     static_cast<int>(state.range(0))};
  for (auto _ : state) {
    auto out = deflate::compress_parallel(input, deflate::Level::Fast, opts);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
}
BENCHMARK(BM_DeflateParallel)->Arg(1)->Arg(2)->Arg(4);

void BM_Inflate(benchmark::State& state) {
  std::vector<std::uint8_t> input(1 << 18);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<std::uint8_t>((i / 64) % 23);
  }
  const auto compressed = deflate::compress(input, deflate::Level::Best);
  for (auto _ : state) {
    auto out = deflate::decompress(compressed);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
}
BENCHMARK(BM_Inflate);

// The telemetry overhead pair: a full sz::compress with collection off
// (the default — one relaxed atomic load per stage) and with a live
// Session, which now also records the duration/ratio histograms.
// EXPERIMENTS.md quotes the delta; the budget is <= 3%.
void BM_SzCompressTelemetryOff(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto field = test_field(n, n);
  for (auto _ : state) {
    auto c = sz::compress(field, Dims::d2(n, n), sz::Config{});
    benchmark::DoNotOptimize(c.bytes.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * 4));
}
BENCHMARK(BM_SzCompressTelemetryOff)->Arg(256)->Arg(512);

void BM_SzCompressTelemetryOn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto field = test_field(n, n);
  telemetry::Session session;
  for (auto _ : state) {
    auto c = sz::compress(field, Dims::d2(n, n), sz::Config{});
    benchmark::DoNotOptimize(c.bytes.data());
  }
  (void)session.stop();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * 4));
}
BENCHMARK(BM_SzCompressTelemetryOn)->Arg(256)->Arg(512);

// As above but with hardware-counter sampling requested: adds two
// perf_event_open group reads (syscalls) per coarse stage span. Skipped
// silently where counters are unavailable — the rows then read the same as
// TelemetryOn.
void BM_SzCompressTelemetryPerf(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto field = test_field(n, n);
  telemetry::Session session;
  telemetry::set_perf_enabled(true);
  for (auto _ : state) {
    auto c = sz::compress(field, Dims::d2(n, n), sz::Config{});
    benchmark::DoNotOptimize(c.bytes.data());
  }
  telemetry::set_perf_enabled(false);
  (void)session.stop();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * 4));
}
BENCHMARK(BM_SzCompressTelemetryPerf)->Arg(256)->Arg(512);

// Raw hot-path cost of one histogram recording (bucket index + relaxed
// shard increments), measured against a live Session.
void BM_HistogramRecord(benchmark::State& state) {
  telemetry::Session session;
  std::uint64_t v = 1;
  for (auto _ : state) {
    telemetry::observe(telemetry::Histo::DeflateChunkBytes, v);
    v = v * 2862933555777941757ull + 3037000493ull;  // cheap LCG walk
    benchmark::DoNotOptimize(v);
  }
  (void)session.stop();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HistogramRecord);

void BM_TruncationEncode(benchmark::State& state) {
  std::vector<float> values(1 << 15);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<float>(i % 977) * 0.37f - 100.0f;
  }
  for (auto _ : state) {
    auto blob = sz::truncation_encode(values, 1e-3);
    benchmark::DoNotOptimize(blob.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_TruncationEncode);

// --- SIMD dispatch sweep -------------------------------------------------
// One benchmark per level-dispatched scan, parameterized on the dispatch
// level (0=scalar, 1=sse2, 2=avx2). Compare rows of the same benchmark to
// read the per-ISA speedup.

void BM_SimdMinmax(benchmark::State& state) {
  if (!enter_level(state, state.range(0))) return;
  const auto field = test_field(1024, 1024);
  for (auto _ : state) {
    double lo = static_cast<double>(field[0]);
    double hi = lo;
    simd::minmax(field.data(), field.size(), &lo, &hi);
    benchmark::DoNotOptimize(lo);
    benchmark::DoNotOptimize(hi);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(field.size() * 4));
  leave_level();
}
BENCHMARK(BM_SimdMinmax)->Arg(0)->Arg(1)->Arg(2);

void BM_SimdBoundScan(benchmark::State& state) {
  if (!enter_level(state, state.range(0))) return;
  const auto orig = test_field(1024, 1024);
  auto dec = orig;
  for (std::size_t i = 0; i < dec.size(); ++i) {
    dec[i] += (i % 2 == 0 ? 1.0f : -1.0f) * 5e-4f;
  }
  for (auto _ : state) {
    const auto idx = simd::bound_scan(orig.data(), dec.data(), orig.size(),
                                      1e-3);
    benchmark::DoNotOptimize(idx);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(orig.size() * 8));
  leave_level();
}
BENCHMARK(BM_SimdBoundScan)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

BENCHMARK_MAIN();
