// Outside-in tracing for the benchmark: spans are recorded here, in the
// benchmark's own code, around each call into a library layer's public
// functions. The library's telemetry stays off.
//
// An operation (one compress, decompress, read, or stream chunk replay) is
// the parent of the spans recorded while it is open. Spans never nest
// inside one another, so a span's self time is its duration and the
// operation's unattributed time is its wall time minus the sum of its
// spans.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sz/compressor.hpp"
#include "sz/config.hpp"

namespace perfbench {

inline double now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Op {
    std::string kind;
    double t0 = 0.0;
    double t1 = 0.0;
  };
  struct Span {
    const char* name;
    std::size_t op;
    double t0;
    double t1;
  };

  void begin(const std::string& kind) { ops_.push_back({kind, now_ms(), 0.0}); }
  void end() { ops_.back().t1 = now_ms(); }

  template <typename F>
  void span(const char* name, F&& f) {
    const double t0 = now_ms();
    f();
    spans_.push_back({name, ops_.size() - 1, t0, now_ms()});
  }

  const std::vector<Op>& ops() const { return ops_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Op> ops_;
  std::vector<Span> spans_;
};

/// Section sizes seen by a traced decode; they give the entropy counts.
struct EntropyCounts {
  std::uint64_t points = 0;
  std::uint64_t unpredictable = 0;
  std::uint64_t code_plain = 0;
  std::uint64_t code_blob = 0;
  std::uint64_t unpred_plain = 0;
  std::uint64_t unpred_blob = 0;
};

/// compress() replayed through the public phases of a staged job, each
/// phase a span. `core_pqd` names the PQD span after the layer whose kernel
/// runs (core for waveSZ, sz for SZ-1.4).
wavesz::sz::Compressed traced_compress(Tracer& tr,
                                       wavesz::sz::StagedCompressor& job,
                                       bool core_pqd);

/// decompress() of one SZ-1.4 or waveSZ (Flatten2D) float32 container,
/// composed from the public header, section, inflate, code-decode,
/// unpredictable-value and reconstruction calls.
std::vector<float> traced_decompress(Tracer& tr,
                                     std::span<const std::uint8_t> bytes,
                                     const wavesz::sz::DecodeOptions& opts,
                                     EntropyCounts& counts);

/// Chunk payloads of a stream archive (the WZSS index written by
/// StreamCompressor::finish()), as views into `archive`.
std::vector<std::span<const std::uint8_t>> stream_chunks(
    std::span<const std::uint8_t> archive);

}  // namespace perfbench
