// Tests for the stage-level telemetry subsystem: span nesting, counter
// aggregation, multithreaded ring-buffer collection, the JSON exporters,
// and — most importantly — that a disabled session really collects nothing.
//
// Under -DWAVESZ_TELEMETRY=OFF (WAVESZ_TELEMETRY_DISABLED) the enabled-path
// assertions are gated out, but every test still runs: the API must stay
// callable and inert.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/wavesz.hpp"
#include "data/synthetic.hpp"
#include "deflate/parallel.hpp"
#include "sz/compressor.hpp"
#include "sz/huffman_codec.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace wavesz::telemetry {
namespace {

// ---------------------------------------------------------------------------
// A minimal strict JSON validator (no values kept, structure only), so the
// exporter tests do not depend on an external parser being installed.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    pos_ = 0;
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() ||
                std::isxdigit(static_cast<unsigned char>(s_[pos_])) == 0) {
              return false;
            }
          }
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                   e != 'f' && e != 'n' && e != 'r' && e != 't') {
          return false;
        }
      } else if (static_cast<unsigned char>(s_[pos_]) < 0x20) {
        return false;  // raw control characters are invalid inside strings
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    }
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------

TEST(Telemetry, DisabledByDefaultAndCollectsNothing) {
  EXPECT_FALSE(enabled());
  {
    Span s("never.recorded");
    counter_add(Counter::DeflateChunks, 42);
  }
  Session session;
  const Report r = session.stop();
  EXPECT_TRUE(r.events.empty());
  EXPECT_EQ(r.counter(Counter::DeflateChunks), 0u);
  EXPECT_EQ(r.dropped_events, 0u);
}

TEST(Telemetry, OnlyOneLiveSession) {
#ifdef WAVESZ_TELEMETRY_DISABLED
  GTEST_SKIP() << "sessions are inert when compiled out";
#else
  Session first;
  EXPECT_THROW(Session second, std::logic_error);
  (void)first.stop();
  Session third;  // fine again after stop()
  (void)third.stop();
#endif
}

TEST(Telemetry, SpanNestingDepthAndOrdering) {
  Session session;
  {
    Span outer("test.outer");
    {
      Span inner("test.inner");
    }
    {
      Span inner2("test.inner");
    }
  }
  const Report r = session.stop();
#ifdef WAVESZ_TELEMETRY_DISABLED
  EXPECT_TRUE(r.events.empty());
#else
  ASSERT_EQ(r.events.size(), 3u);
  // Sorted by start time: outer opens first even though it closes last.
  EXPECT_STREQ(r.events[0].name, "test.outer");
  EXPECT_EQ(r.events[0].depth, 0u);
  EXPECT_STREQ(r.events[1].name, "test.inner");
  EXPECT_EQ(r.events[1].depth, 1u);
  EXPECT_EQ(r.events[2].depth, 1u);
  // All on the calling thread, nested inside the outer span's window.
  EXPECT_EQ(r.events[0].tid, r.events[1].tid);
  EXPECT_LE(r.events[1].start_ns + r.events[1].duration_ns,
            r.events[0].start_ns + r.events[0].duration_ns);
  EXPECT_LE(r.events[0].duration_ns, r.wall_ns);
#endif
}

TEST(Telemetry, CounterAggregation) {
  Session session;
  counter_add(Counter::DeflateChunks, 3);
  counter_add(Counter::DeflateChunks, 4);
  counter_add(Counter::QuantPredictable, 100);
  const Report r = session.stop();
  ASSERT_EQ(r.counters.size(),
            static_cast<std::size_t>(Counter::kCount));
  for (const auto& c : r.counters) {
    EXPECT_NE(c.name, nullptr);
  }
#ifndef WAVESZ_TELEMETRY_DISABLED
  EXPECT_EQ(r.counter(Counter::DeflateChunks), 7u);
  EXPECT_EQ(r.counter(Counter::QuantPredictable), 100u);
#endif
  // A new session starts from zero, not from the previous totals.
  Session again;
  EXPECT_EQ(again.stop().counter(Counter::DeflateChunks), 0u);
}

TEST(Telemetry, MultithreadedCollectionKeepsPerThreadIdentity) {
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 50;
  Session session;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        Span s("test.worker");
        counter_add(Counter::StreamChunks, 1);
      }
    });
  }
  for (auto& th : pool) th.join();
  const Report r = session.stop();
#ifdef WAVESZ_TELEMETRY_DISABLED
  EXPECT_TRUE(r.events.empty());
#else
  EXPECT_EQ(r.events.size(),
            static_cast<std::size_t>(kThreads * kSpansPerThread));
  EXPECT_EQ(r.counter(Counter::StreamChunks),
            static_cast<std::uint64_t>(kThreads * kSpansPerThread));
  std::vector<std::uint32_t> tids;
  for (const auto& e : r.events) {
    EXPECT_STREQ(e.name, "test.worker");
    if (std::find(tids.begin(), tids.end(), e.tid) == tids.end()) {
      tids.push_back(e.tid);
    }
  }
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
  // Events are globally sorted by start time across threads.
  for (std::size_t i = 1; i < r.events.size(); ++i) {
    EXPECT_LE(r.events[i - 1].start_ns, r.events[i].start_ns);
  }
#endif
}

TEST(Telemetry, RingOverflowCountsDrops) {
  Session session;
  for (int i = 0; i < (1 << 15); ++i) {
    Span s("test.flood");
  }
  const Report r = session.stop();
#ifdef WAVESZ_TELEMETRY_DISABLED
  EXPECT_TRUE(r.events.empty());
#else
  // Ring capacity is 1<<14 per thread; flooding 1<<15 must drop, not grow.
  EXPECT_EQ(r.events.size(), static_cast<std::size_t>(1 << 14));
  EXPECT_EQ(r.dropped_events, static_cast<std::uint64_t>(1 << 14));
#endif
}

TEST(Telemetry, CompressPipelineEmitsStageSpans) {
  const Dims dims = Dims::d2(64, 96);
  data::FieldRecipe recipe;
  recipe.seed = 7;
  const auto field = data::generate(recipe, dims);

  Session session;
  const auto c = sz::compress(field, dims, sz::Config{});
  (void)sz::decompress(c.bytes);
  const auto cw = wave::compress(field, dims, wave::default_config());
  (void)wave::decompress(cw.bytes);
  const Report r = session.stop();
#ifdef WAVESZ_TELEMETRY_DISABLED
  EXPECT_TRUE(r.events.empty());
#else
  auto has = [&](const char* name) {
    for (const auto& e : r.events) {
      if (std::string(e.name) == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("sz::compress"));
  EXPECT_TRUE(has("sz::decompress"));
  EXPECT_TRUE(has("wave::compress"));
  EXPECT_TRUE(has("wave::decompress"));
  EXPECT_TRUE(has("deflate.chunk"));
  EXPECT_GT(r.counter(Counter::CodeBytesIn), 0u);
  EXPECT_GT(r.counter(Counter::CodeBytesOut), 0u);
  EXPECT_GT(r.counter(Counter::DeflateChunks), 0u);
  EXPECT_GT(r.counter(Counter::QuantPredictable), 0u);
  // Compressing under telemetry must not change the output bytes.
  const auto c2 = sz::compress(field, dims, sz::Config{});
  EXPECT_EQ(c.bytes, c2.bytes);
#endif
}

TEST(Telemetry, SzxDecodeRecordsOneDecompressSpan) {
  // The stage table counts spans as calls: one SZx decode through each
  // entry point is one decompress call, not an sz::decompress span nested
  // in the caller's.
  const Dims dims = Dims::d2(64, 64);
  data::FieldRecipe recipe;
  recipe.seed = 5;
  const auto field = data::generate(recipe, dims);
  const auto c = sz::compress(field, dims, sz::Config::ultrafast());

  Session session;
  (void)sz::decompress(c.bytes);
  (void)wave::decompress(c.bytes);
  const Report r = session.stop();
#ifdef WAVESZ_TELEMETRY_DISABLED
  EXPECT_TRUE(r.events.empty());
#else
  auto calls = [&](const char* name) {
    return std::count_if(r.events.begin(), r.events.end(), [&](const auto& e) {
      return std::string(e.name) == name;
    });
  };
  EXPECT_EQ(calls("sz::decompress"), 1);
  EXPECT_EQ(calls("wave::decompress"), 1);
  EXPECT_EQ(r.histogram(Histo::DecompressNs).count, 2u);
#endif
}

TEST(Telemetry, OmpDriverSpansCarryWorkerThreads) {
  // Chunked DEFLATE on four OpenMP threads: every chunk records one
  // deflate.chunk span on the worker that encoded it.
  std::vector<std::uint8_t> input(64 * 1024);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<std::uint8_t>((i / 64) % 23);
  }
  const deflate::ParallelOptions opts{4096, 4};

  Session session;
  const auto gz =
      deflate::gzip_compress_parallel(input, deflate::Level::Fast, opts);
  const Report r = session.stop();
  EXPECT_EQ(deflate::gzip_decompress(gz), input);
#ifdef WAVESZ_TELEMETRY_DISABLED
  EXPECT_TRUE(r.events.empty());
#else
  std::size_t chunk_spans = 0;
  for (const auto& e : r.events) {
    if (std::string(e.name) == "deflate.chunk") ++chunk_spans;
  }
  EXPECT_EQ(chunk_spans, input.size() / opts.chunk_bytes);
  EXPECT_EQ(r.counter(Counter::DeflateChunks), chunk_spans);
#endif
}

TEST(Telemetry, ExportersEmitValidJson) {
  const Dims dims = Dims::d2(48, 64);
  data::FieldRecipe recipe;
  const auto field = data::generate(recipe, dims);

  Session session;
  (void)wave::compress(field, dims, wave::default_config());
  const Report r = session.stop();

  const std::string trace = chrome_trace_json(r);
  const std::string stats = stats_json(r);
  const std::string table = summary_table(r);
  EXPECT_TRUE(JsonChecker(trace).valid()) << trace.substr(0, 400);
  EXPECT_TRUE(JsonChecker(stats).valid()) << stats.substr(0, 400);
  EXPECT_FALSE(table.empty());

  // Chrome trace-event schema essentials.
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
#ifndef WAVESZ_TELEMETRY_DISABLED
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"ts\":"), std::string::npos);
  EXPECT_NE(trace.find("\"dur\":"), std::string::npos);
  EXPECT_NE(trace.find("\"pid\":"), std::string::npos);
  EXPECT_NE(trace.find("\"tid\":"), std::string::npos);
  EXPECT_NE(trace.find("thread_name"), std::string::npos);
  EXPECT_NE(stats.find("\"stages\""), std::string::npos);
  EXPECT_NE(stats.find("code_bytes_in"), std::string::npos);
  EXPECT_NE(table.find("wave::compress"), std::string::npos);
#endif
}

TEST(Telemetry, ExportersHandleEmptyReport) {
  const Report r;
  EXPECT_TRUE(JsonChecker(chrome_trace_json(r)).valid());
  EXPECT_TRUE(JsonChecker(stats_json(r)).valid());
  EXPECT_NE(prometheus_text(r).find("wavesz_wall_seconds"),
            std::string::npos);
  EXPECT_FALSE(summary_table(r).empty());
}

// ---------------------------------------------------------------------------
// Histograms

TEST(Histogram, BucketMathRoundTrips) {
  // Exact unit buckets below kHistoSub.
  for (std::uint64_t v = 0; v < kHistoSub; ++v) {
    EXPECT_EQ(histo_bucket(v), v);
    EXPECT_EQ(histo_bucket_lower(static_cast<std::uint32_t>(v)), v);
    EXPECT_EQ(histo_bucket_upper(static_cast<std::uint32_t>(v)), v);
  }
  // Every value maps into a bucket whose [lower, upper] contains it, and
  // bucket bounds round-trip through the index function.
  std::uint64_t v = 1;
  for (int i = 0; i < 64; ++i, v = (v << 1) | (v >> 60) | 1) {
    const std::uint32_t b = histo_bucket(v);
    ASSERT_LT(b, kHistoBuckets) << v;
    EXPECT_GE(v, histo_bucket_lower(b)) << v;
    EXPECT_LE(v, histo_bucket_upper(b)) << v;
    EXPECT_EQ(histo_bucket(histo_bucket_lower(b)), b);
    EXPECT_EQ(histo_bucket(histo_bucket_upper(b)), b);
  }
  // Relative bucket width is bounded by 1/kHistoSub above the unit range.
  for (std::uint32_t b = kHistoSub; b + 1 < kHistoBuckets; b += 37) {
    const double lo = static_cast<double>(histo_bucket_lower(b));
    const double hi = static_cast<double>(histo_bucket_upper(b));
    EXPECT_LE((hi - lo + 1.0) / lo, 1.0 / kHistoSub + 1e-9) << b;
  }
  // Monotone at every bucket boundary, and the top bucket covers uint64 max.
  EXPECT_EQ(histo_bucket(std::numeric_limits<std::uint64_t>::max()),
            kHistoBuckets - 1);
  EXPECT_EQ(histo_bucket_upper(kHistoBuckets - 1),
            std::numeric_limits<std::uint64_t>::max());
}

/// Deterministic value stream shared by the recording tests and their
/// serial oracles (an LCG walk hits many octaves).
std::uint64_t oracle_value(std::uint64_t i) {
  return (i * 2862933555777941757ull + 3037000493ull) >> (i % 40);
}

TEST(Histogram, SerialRecordingMatchesOracle) {
  constexpr std::uint64_t kN = 4096;
  Session session;
  for (std::uint64_t i = 0; i < kN; ++i) {
    observe(Histo::DeflateChunkBytes, oracle_value(i));
  }
  const Report r = session.stop();
  const HistogramSnapshot& h = r.histogram(Histo::DeflateChunkBytes);
#ifdef WAVESZ_TELEMETRY_DISABLED
  EXPECT_EQ(h.count, 0u);
#else
  std::vector<std::uint64_t> expect(kHistoBuckets, 0);
  std::uint64_t sum = 0, mn = ~0ull, mx = 0;
  for (std::uint64_t i = 0; i < kN; ++i) {
    const std::uint64_t v = oracle_value(i);
    ++expect[histo_bucket(v)];
    sum += v;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  EXPECT_EQ(h.count, kN);
  EXPECT_EQ(h.sum, sum);
  EXPECT_EQ(h.min, mn);
  EXPECT_EQ(h.max, mx);
  ASSERT_EQ(h.buckets.size(), static_cast<std::size_t>(kHistoBuckets));
  for (std::uint32_t b = 0; b < kHistoBuckets; ++b) {
    ASSERT_EQ(h.buckets[b], expect[b]) << "bucket " << b;
  }
#endif
}

TEST(Histogram, ConcurrentShardsMergeBitExact) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 2000;
  Session session;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        observe(Histo::StreamChunkBytes,
                oracle_value(static_cast<std::uint64_t>(t) * kPerThread + i));
      }
    });
  }
  for (auto& th : pool) th.join();
  const Report r = session.stop();
  const HistogramSnapshot& h = r.histogram(Histo::StreamChunkBytes);
#ifdef WAVESZ_TELEMETRY_DISABLED
  EXPECT_EQ(h.count, 0u);
#else
  // The merged bucket counts must equal the serial oracle bit-for-bit —
  // per-thread shards may interleave arbitrarily, but nothing is sampled
  // or lost.
  std::vector<std::uint64_t> expect(kHistoBuckets, 0);
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < kThreads * kPerThread; ++i) {
    const std::uint64_t v = oracle_value(i);
    ++expect[histo_bucket(v)];
    sum += v;
  }
  EXPECT_EQ(h.count, kThreads * kPerThread);
  EXPECT_EQ(h.sum, sum);
  ASSERT_EQ(h.buckets.size(), static_cast<std::size_t>(kHistoBuckets));
  for (std::uint32_t b = 0; b < kHistoBuckets; ++b) {
    ASSERT_EQ(h.buckets[b], expect[b]) << "bucket " << b;
  }
#endif
}

TEST(Histogram, PercentilesWithinBucketError) {
  Session session;
  // 1..1000 uniformly: p50 = 500, p90 = 900, p99 = 990.
  for (std::uint64_t v = 1; v <= 1000; ++v) {
    observe(Histo::CompressNs, v);
  }
  const Report r = session.stop();
  const HistogramSnapshot& h = r.histogram(Histo::CompressNs);
#ifdef WAVESZ_TELEMETRY_DISABLED
  EXPECT_EQ(h.percentile(0.5), 0u);
#else
  ASSERT_EQ(h.count, 1000u);
  const struct { double q; double exact; } cases[] = {
      {0.50, 500.0}, {0.90, 900.0}, {0.99, 990.0}};
  for (const auto& c : cases) {
    const double got = static_cast<double>(h.percentile(c.q));
    EXPECT_NEAR(got, c.exact, c.exact / kHistoSub + 1.0)
        << "q=" << c.q;
  }
  EXPECT_EQ(h.percentile(0.0), h.min);
  EXPECT_EQ(h.percentile(1.0), h.max);
#endif
  // Empty histograms answer 0, never divide by zero.
  const HistogramSnapshot empty;
  EXPECT_EQ(empty.percentile(0.5), 0u);
}

TEST(Histogram, CompressCallsFeedDurationAndRatioHistograms) {
  const Dims dims = Dims::d2(64, 96);
  data::FieldRecipe recipe;
  recipe.seed = 3;
  const auto field = data::generate(recipe, dims);

  Session session;
  const auto c = sz::compress(field, dims, sz::Config{});
  (void)sz::decompress(c.bytes);
  const Report r = session.stop();
#ifdef WAVESZ_TELEMETRY_DISABLED
  EXPECT_EQ(r.histogram(Histo::CompressNs).count, 0u);
#else
  EXPECT_EQ(r.histogram(Histo::CompressNs).count, 1u);
  EXPECT_EQ(r.histogram(Histo::DecompressNs).count, 1u);
  const HistogramSnapshot& ratio = r.histogram(Histo::CompressRatioMilli);
  ASSERT_EQ(ratio.count, 1u);
  // milli-ratio of the call we just made, bucketing error aside.
  const std::uint64_t expect_milli =
      field.size() * sizeof(float) * 1000 / c.bytes.size();
  EXPECT_EQ(ratio.sum, expect_milli);
  EXPECT_GT(r.histogram(Histo::DeflateChunkBytes).count, 0u);
#endif
}

// ---------------------------------------------------------------------------
// Exporters: percentiles, histograms, Prometheus text

/// Minimal Prometheus text-format checker: every line is a comment or
/// `name{labels} value`, histogram buckets are cumulative and finish with
/// le="+Inf" equal to _count.
bool prometheus_format_ok(const std::string& text, std::string* why) {
  std::size_t start = 0;
  auto fail = [&](const std::string& message) {
    if (why != nullptr) *why = message;
    return false;
  };
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) return fail("missing trailing newline");
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    std::size_t i = 0;
    auto name_char = [](char ch, bool first) {
      return (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
             ch == '_' || (!first && ch >= '0' && ch <= '9');
    };
    if (i >= line.size() || !name_char(line[i], true)) {
      return fail("bad metric name: " + line);
    }
    while (i < line.size() && name_char(line[i], false)) ++i;
    if (i < line.size() && line[i] == '{') {
      const std::size_t close = line.find('}', i);
      if (close == std::string::npos) return fail("unclosed labels: " + line);
      i = close + 1;
    }
    if (i >= line.size() || line[i] != ' ') {
      return fail("no value separator: " + line);
    }
    ++i;
    if (i >= line.size()) return fail("no value: " + line);
    // Value: a decimal (possibly scientific) or +Inf.
    const std::string value = line.substr(i);
    if (value != "+Inf" && value != "-Inf" && value != "NaN") {
      char* parse_end = nullptr;
      (void)std::strtod(value.c_str(), &parse_end);
      if (parse_end == value.c_str() || *parse_end != '\0') {
        return fail("bad value: " + line);
      }
    }
  }
  return true;
}

TEST(Telemetry, PrometheusTextParsesAndCarriesSeries) {
  const Dims dims = Dims::d2(48, 64);
  data::FieldRecipe recipe;
  const auto field = data::generate(recipe, dims);

  Session session;
  const auto c = sz::compress(field, dims, sz::Config{});
  (void)sz::decompress(c.bytes);
  const Report r = session.stop();

  const std::string text = prometheus_text(r);
  std::string why;
  EXPECT_TRUE(prometheus_format_ok(text, &why)) << why;
  // Every counter appears, prefixed, with HELP/TYPE metadata.
  for (const auto& counter : r.counters) {
    const std::string series =
        std::string(kMetricPrefix) + counter.name + "_total";
    EXPECT_NE(text.find("# TYPE " + series + " counter"), std::string::npos)
        << series;
    EXPECT_NE(text.find("\n" + series + " "), std::string::npos) << series;
  }
#ifndef WAVESZ_TELEMETRY_DISABLED
  // Histogram series: cumulative buckets ending in le="+Inf" == _count.
  EXPECT_NE(text.find("# TYPE wavesz_compress_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("wavesz_compress_ns_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("wavesz_compress_ns_count 1\n"), std::string::npos);
  EXPECT_NE(text.find("wavesz_stage_seconds_total{stage=\"sz::compress\"}"),
            std::string::npos);
  EXPECT_NE(text.find("wavesz_stage_calls_total{stage=\"sz::compress\"}"),
            std::string::npos);
#endif
}

TEST(Telemetry, HuffmanCountersGiveBitsPerSymbol) {
  // The encoder counts symbols in and payload bits out, so achieved
  // bits/symbol reads off the exported series; a decode counts its table
  // build in huffman_table_ns.
  std::vector<std::uint16_t> codes(50000);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    codes[i] = static_cast<std::uint16_t>(32768 + (i * i % 7 == 0 ? i % 5 : 0));
  }
  Session encode;
  const auto blob = sz::huffman_encode(codes, 1);
  const Report r = encode.stop();
  // The blob records its payload bits just ahead of the payload.
  ByteReader br(blob);
  const std::uint32_t distinct = br.u32();
  (void)br.u64();
  for (std::uint32_t k = 0; k < distinct; ++k) {
    (void)br.u16();
    (void)br.u8();
  }
  [[maybe_unused]] const std::uint64_t payload_bits = br.u64();
  const std::string text = prometheus_text(r);
  std::string why;
  EXPECT_TRUE(prometheus_format_ok(text, &why)) << why;
  EXPECT_NE(text.find("# TYPE wavesz_huffman_symbols_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE wavesz_huffman_payload_bits_total counter"),
            std::string::npos);
#ifndef WAVESZ_TELEMETRY_DISABLED
  EXPECT_EQ(r.counter(Counter::HuffmanSymbols), codes.size());
  EXPECT_EQ(r.counter(Counter::HuffmanPayloadBits), payload_bits);
  EXPECT_NE(text.find("\nwavesz_huffman_symbols_total " +
                      std::to_string(codes.size()) + "\n"),
            std::string::npos);
  EXPECT_NE(text.find("\nwavesz_huffman_payload_bits_total " +
                      std::to_string(payload_bits) + "\n"),
            std::string::npos);
  EXPECT_NEAR(static_cast<double>(payload_bits) /
                  static_cast<double>(codes.size()),
              sz::huffman_mean_bits(codes), 1e-12);
#endif

  Session decode;
  EXPECT_EQ(sz::huffman_decode(blob), codes);
  const Report d = decode.stop();
  EXPECT_EQ(d.counter(Counter::HuffmanSymbols), 0u);
#ifndef WAVESZ_TELEMETRY_DISABLED
  EXPECT_GT(d.counter(Counter::HuffmanTableBuildNs), 0u);
#endif
}

TEST(Telemetry, StatsJsonCarriesPercentilesAndHistograms) {
  const Dims dims = Dims::d2(48, 64);
  data::FieldRecipe recipe;
  const auto field = data::generate(recipe, dims);

  Session session;
  (void)sz::compress(field, dims, sz::Config{});
  const Report r = session.stop();
  const std::string stats = stats_json(r);
  EXPECT_TRUE(JsonChecker(stats).valid()) << stats.substr(0, 400);
  EXPECT_NE(stats.find("\"histograms\":"), std::string::npos);
#ifndef WAVESZ_TELEMETRY_DISABLED
  EXPECT_NE(stats.find("\"p50_us\":"), std::string::npos);
  EXPECT_NE(stats.find("\"p99_us\":"), std::string::npos);
  EXPECT_NE(stats.find("\"max_us\":"), std::string::npos);
  EXPECT_NE(stats.find("\"name\":\"compress_ns\""), std::string::npos);
  EXPECT_NE(stats.find("\"spans_dropped\":0"), std::string::npos);
#endif
}

TEST(Telemetry, DroppedSpansSurfaceAsCounter) {
  Session session;
  for (int i = 0; i < (1 << 15); ++i) {
    Span s("test.flood");
  }
  const Report r = session.stop();
#ifdef WAVESZ_TELEMETRY_DISABLED
  EXPECT_EQ(r.counter(Counter::SpansDropped), 0u);
#else
  EXPECT_EQ(r.counter(Counter::SpansDropped), r.dropped_events);
  EXPECT_GT(r.counter(Counter::SpansDropped), 0u);
  // All three exporters surface the loss without special-casing.
  EXPECT_NE(stats_json(r).find("\"spans_dropped\":"), std::string::npos);
  EXPECT_NE(summary_table(r).find("dropped"), std::string::npos);
  EXPECT_NE(prometheus_text(r).find("wavesz_spans_dropped_total "),
            std::string::npos);
#endif
}

// ---------------------------------------------------------------------------
// Hardware-counter sampler

TEST(PerfCounters, ForcedUnavailableFallsBackToPlainSpans) {
  detail::force_perf_unavailable_for_test(true);
  EXPECT_FALSE(perf_available());
  set_perf_enabled(true);
  EXPECT_FALSE(perf_enabled());
  EXPECT_FALSE(perf_now().valid);

  Session session;
  {
    Span s("test.hw", kSampleHw);
  }
  const Report r = session.stop();
#ifndef WAVESZ_TELEMETRY_DISABLED
  ASSERT_EQ(r.events.size(), 1u);
  EXPECT_FALSE(r.events[0].has_perf);
  EXPECT_FALSE(r.events[0].hw.valid);
#endif
  set_perf_enabled(false);
  detail::force_perf_unavailable_for_test(false);
}

TEST(PerfCounters, SamplingWhenAvailableAttachesDeltas) {
  set_perf_enabled(true);
  if (!perf_available()) {
    set_perf_enabled(false);
    GTEST_SKIP() << "perf_event_open unavailable (container/CI) — "
                    "fallback covered by ForcedUnavailable test";
  }
  Session session;
  {
    Span s("test.hw", kSampleHw);
    // Burn a few instructions so the deltas are nonzero.
    volatile std::uint64_t acc = 0;
    for (int i = 0; i < 10000; ++i) {
      acc = acc + static_cast<std::uint64_t>(i);
    }
  }
  const Report r = session.stop();
  set_perf_enabled(false);
#ifndef WAVESZ_TELEMETRY_DISABLED
  ASSERT_EQ(r.events.size(), 1u);
  EXPECT_TRUE(r.events[0].has_perf);
  EXPECT_GT(r.events[0].hw.instructions, 0u);
  EXPECT_GT(r.events[0].hw.cycles, 0u);
  // The aggregated view carries IPC for the sampled stage.
  EXPECT_NE(stats_json(r).find("\"ipc\":"), std::string::npos);
  EXPECT_NE(prometheus_text(r).find("stage_instructions_total"),
            std::string::npos);
#endif
}

TEST(PerfCounters, DeltaSaturatesInsteadOfWrapping) {
  PerfReading a, b;
  a.valid = b.valid = true;
  a.cycles = 100;
  b.cycles = 50;  // counter moved backwards (multiplexing artifact)
  a.instructions = 10;
  b.instructions = 30;
  const PerfReading d = perf_delta(a, b);
  EXPECT_TRUE(d.valid);
  EXPECT_EQ(d.cycles, 0u);
  EXPECT_EQ(d.instructions, 20u);
}

}  // namespace
}  // namespace wavesz::telemetry
