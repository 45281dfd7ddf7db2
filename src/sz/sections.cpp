#include "sz/sections.hpp"

#include "deflate/deflate.hpp"
#include "deflate/parallel.hpp"
#include "sz/huffman_codec.hpp"
#include "telemetry/span_names.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace wavesz::sz {

SectionStaged::SectionStaged(const Config& cfg, Variant variant,
                             std::uint8_t aux, std::uint8_t dtype,
                             const Dims& dims, std::size_t points)
    : cfg_(cfg) {
  head_.variant = variant;
  head_.dims = dims;
  head_.mode = cfg.mode;
  head_.base = cfg.base;
  head_.eb_requested = cfg.error_bound;
  head_.quant_bits = cfg.quant_bits;
  head_.huffman = cfg.huffman;
  head_.gzip_level = cfg.gzip_level;
  head_.aux = aux;
  head_.dtype = dtype;
  head_.point_count = points;
  head_.version = cfg.chunk_index ? 2 : 1;
}

void SectionStaged::encode_section(std::size_t s) {
  if (s != 0) {
    plain_[1] = encode_unpredictable();
    return;
  }
  // Code section: H* (customized Huffman) then G* (gzip), or raw codes
  // straight into gzip when Huffman is disabled (deflate_section reads
  // codes_ itself then). With cfg.chunk_index the encoder also records the
  // v2 offset table at its flush points.
  telemetry::Span span(telemetry::spans::kEncodeCodes);
  if (cfg_.huffman) {
    plain_[0] = cfg_.chunk_index
                    ? huffman_encode_indexed(codes_, pqd_nt_,
                                             cfg_.index_chunk_symbols, idx_)
                    : huffman_encode(codes_, pqd_nt_);
    return;
  }
  if (cfg_.chunk_index) {
    idx_ = build_raw_code_index(codes_, cfg_.index_chunk_symbols);
  }
}

void SectionStaged::deflate_section(std::size_t s) {
  // Per-section gzip through the chunked engine: each section's chunking,
  // dictionary priming and stitching depend only on that section's plain
  // bytes. Raw G* codes of SZ-1.4 and waveSZ go in as codes, so the
  // matcher steps in whole codes. GhostSZ's raw codes keep the byte parse:
  // matched in whole codes, its Table 7 ratio fell on 10 of 18 fields, by
  // up to 2.6% (EXPERIMENTS.md, Table 7). H* bytes at Level::Fast take the
  // probed chunk mode, runs unless the hash chains pay (DESIGN.md, "Runs
  // for H* sections"); at Level::Best, and for unpredictable values, the
  // byte parse.
  telemetry::Span span(telemetry::spans::kDeflateSerialize);
  const deflate::ParallelOptions opts = cfg_.chunk_index
                                            ? cfg_.indexed_deflate_options()
                                            : cfg_.deflate_options();
  const bool raw_codes = s == 0 && !cfg_.huffman;
  const std::span<const std::uint8_t> plain =
      raw_codes ? bytes_of(std::span<const std::uint16_t>(codes_))
                : std::span<const std::uint8_t>(plain_[s]);
  if (raw_codes && head_.variant != Variant::GhostSz) {
    blobs_[s] = deflate::gzip_compress_codes(codes_, cfg_.gzip_level, opts);
  } else if (s == 0 && cfg_.huffman &&
             cfg_.gzip_level == deflate::Level::Fast) {
    blobs_[s] = deflate::gzip_compress_probed(plain, opts);
  } else {
    blobs_[s] = deflate::gzip_compress_parallel(plain, cfg_.gzip_level, opts);
  }
  telemetry::counter_add(s == 0 ? telemetry::Counter::CodeBytesIn
                                : telemetry::Counter::UnpredBytesIn,
                         plain.size());
  telemetry::counter_add(s == 0 ? telemetry::Counter::CodeBytesOut
                                : telemetry::Counter::UnpredBytesOut,
                         blobs_[s].size());
}

Compressed SectionStaged::assemble() {
  Compressed out;
  out.header = head_;
  out.code_blob_bytes = blobs_[0].size();
  out.unpred_blob_bytes = blobs_[1].size();
  ByteWriter w;
  write_header(w, head_);
  if (cfg_.chunk_index) write_code_index(w, idx_);
  write_section(w, blobs_[0]);
  write_section(w, blobs_[1]);
  out.bytes = w.take();
  // Ratio is dimensionless; the histogram stores milli-ratio so a 4.2x
  // call lands in bucket ~4200 with the usual 3% bucketing error.
  if (!out.bytes.empty()) {
    const std::size_t raw_bytes =
        head_.point_count * (head_.dtype == 1 ? sizeof(double) : sizeof(float));
    telemetry::observe(telemetry::Histo::CompressRatioMilli,
                       raw_bytes * 1000 / out.bytes.size());
  }
  return out;
}

void expect_variant(const ContainerHeader& h, Variant variant,
                    std::uint8_t dtype, const char* not_variant) {
  WAVESZ_REQUIRE(h.variant == variant, not_variant);
  WAVESZ_REQUIRE(h.dtype == dtype,
                 "container value type mismatch (float32 vs float64)");
}

Sections read_sections(ByteReader& r, const ContainerHeader& h) {
  Sections s;
  s.h = h;
  s.idx = read_code_index(r, h);
  s.meta_bytes = r.position();
  s.codes = r.bytes(r.u64());
  s.unpred = r.bytes(r.u64());
  return s;
}

SectionsDecoded decode_sections(const Sections& s, const DecodeOptions& opts) {
  const ContainerHeader& h = s.h;
  SectionsDecoded d;
  // v1 streams and stripped-index v2 streams take the serial
  // section-by-section path; decode_threads only has purchase with the
  // index (concurrent inflates + chunk-parallel Huffman).
  d.threads =
      s.idx.present() ? resolve_thread_budget(opts.decode_threads) : 1;
  std::vector<std::uint8_t> code_plain;
  if (d.threads > 1) {
    telemetry::Span span(telemetry::spans::kDecodeParallel);
    const std::span<const std::uint8_t> blobs[] = {s.codes, s.unpred};
    auto plains = deflate::gzip_decompress_batch(blobs, d.threads);
    code_plain = std::move(plains[0]);
    d.unpred = std::move(plains[1]);
  } else {
    {
      telemetry::Span span(telemetry::spans::kDecodeCodes);
      code_plain = deflate::gzip_decompress(s.codes);
    }
    telemetry::Span span(telemetry::spans::kDecodeUnpred);
    d.unpred = deflate::gzip_decompress(s.unpred);
  }

  telemetry::Span span(telemetry::spans::kDecodeCodes);
  if (h.huffman) {
    d.codes = s.idx.present()
                  ? huffman_decode_indexed(code_plain, s.idx, d.threads)
                  : huffman_decode(code_plain);
  } else {
    ByteReader cr(code_plain);
    d.codes = cr.u16s(h.point_count);
    if (s.idx.present()) {
      verify_code_index_crcs(d.codes, s.idx, d.codes.size());
    }
  }
  WAVESZ_REQUIRE(d.codes.size() == h.point_count, "code count mismatch");
  d.unpred_count = h.unpredictable_count;
  return d;
}

SectionsDecoded decode_section_prefix(const Sections& s,
                                      std::uint64_t symbols,
                                      const DecodeOptions& opts,
                                      std::uint64_t unpred_bits) {
  const ContainerHeader& h = s.h;
  SectionsDecoded d;
  d.threads = resolve_thread_budget(opts.decode_threads);
  const std::size_t chunks = chunks_covering(s.idx, symbols);
  const ChunkEntry& last = s.idx.entries[chunks - 1];

  // Inflate the code section only until the needed chunks' payload exists.
  const std::uint64_t code_plain_need =
      h.huffman ? s.idx.payload_byte_offset + (last.end_bit + 7) / 8
                : 2 * last.end_element;
  std::size_t consumed = 0;
  {
    telemetry::Span span(telemetry::spans::kDecodeCodes);
    auto run = deflate::gzip_decompress_prefix(s.codes, code_plain_need);
    WAVESZ_REQUIRE(run.bytes.size() >= code_plain_need,
                   "code stream shorter than its chunk index claims");
    consumed = run.compressed_consumed;
    if (h.huffman) {
      d.codes =
          huffman_decode_prefix(run.bytes, s.idx, last.end_element, d.threads);
    } else {
      ByteReader cr(run.bytes);
      d.codes = cr.u16s(last.end_element);
      verify_code_index_crcs(d.codes, s.idx, d.codes.size());
    }
  }
  d.codes.resize(symbols);

  // Unpredictable values consumed by the prefix, in stream order; a plain
  // prefix of unpred_bits per value is sure to hold them.
  d.unpred_count = count_unpredictable(d.codes);
  if (d.unpred_count > 0) {
    telemetry::Span span(telemetry::spans::kDecodeUnpred);
    auto run = deflate::gzip_decompress_prefix(
        s.unpred, (unpred_bits * d.unpred_count + 7) / 8);
    d.unpred = std::move(run.bytes);
    consumed += run.compressed_consumed;
  }
  d.bytes_read = s.meta_bytes + 8 + 8 + consumed;
  return d;
}

}  // namespace wavesz::sz
