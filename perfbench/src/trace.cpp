#include "trace.hpp"

#include <algorithm>

#include "core/wavefront.hpp"
#include "core/wavesz.hpp"
#include "deflate/deflate.hpp"
#include "deflate/parallel.hpp"
#include "sz/container.hpp"
#include "sz/huffman_codec.hpp"
#include "sz/quantizer.hpp"
#include "sz/unpredictable.hpp"
#include "sz/wavefront_pqd.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace perfbench {

namespace sz = wavesz::sz;
namespace wave = wavesz::wave;
namespace deflate = wavesz::deflate;

sz::Compressed traced_compress(Tracer& tr, sz::StagedCompressor& job,
                               bool core_pqd) {
  WAVESZ_REQUIRE(job.sections() == 2, "expected a two-section container");
  sz::Compressed out;
  tr.span(core_pqd ? "core.pqd_ms" : "sz.pqd_ms", [&] { job.pqd(); });
  tr.span("sz.encode_codes_ms", [&] { job.encode_section(0); });
  tr.span("sz.encode_unpred_ms", [&] { job.encode_section(1); });
  tr.span("deflate.compress_ms", [&] {
    job.deflate_section(0);
    job.deflate_section(1);
  });
  tr.span("sz.assemble_ms", [&] { out = job.assemble(); });
  return out;
}

std::vector<float> traced_decompress(Tracer& tr,
                                     std::span<const std::uint8_t> bytes,
                                     const sz::DecodeOptions& opts,
                                     EntropyCounts& counts) {
  sz::ContainerHeader h;
  sz::CodeChunkIndex idx;
  std::vector<std::uint8_t> code_blob;
  std::vector<std::uint8_t> unpred_blob;
  tr.span("sz.parse_ms", [&] {
    wavesz::ByteReader r(bytes);
    h = sz::read_header(r);
    idx = sz::read_code_index(r, h);
    code_blob = sz::read_section(r);
    unpred_blob = sz::read_section(r);
  });
  WAVESZ_REQUIRE(h.variant == sz::Variant::Sz14 ||
                     (h.variant == sz::Variant::WaveSz && h.aux == 0),
                 "traced decode covers SZ-1.4 and Flatten2D waveSZ only");
  WAVESZ_REQUIRE(h.dtype == 0, "traced decode covers float32 only");

  const int nt =
      idx.present() ? sz::resolve_thread_budget(opts.decode_threads) : 1;
  std::vector<std::uint8_t> code_plain;
  std::vector<std::uint8_t> unpred_plain;
  tr.span("deflate.inflate_ms", [&] {
    if (nt > 1) {
      const std::span<const std::uint8_t> sections[] = {code_blob,
                                                        unpred_blob};
      auto plains = deflate::gzip_decompress_batch(sections, nt);
      code_plain = std::move(plains[0]);
      unpred_plain = std::move(plains[1]);
    } else {
      code_plain = deflate::gzip_decompress(code_blob);
      unpred_plain = deflate::gzip_decompress(unpred_blob);
    }
  });

  // Containers without Huffman carry raw 16-bit codes; their unpack and
  // chunk-CRC check stand in for the Huffman decode.
  std::vector<std::uint16_t> codes;
  tr.span("sz.huffman_decode_ms", [&] {
    if (h.huffman) {
      codes = idx.present() ? sz::huffman_decode_indexed(code_plain, idx, nt)
                            : sz::huffman_decode(code_plain);
    } else {
      wavesz::ByteReader cr(code_plain);
      codes = cr.u16s(h.point_count);
      if (idx.present()) sz::verify_code_index_crcs(codes, idx, codes.size());
    }
  });
  WAVESZ_REQUIRE(codes.size() == h.point_count, "code count mismatch");

  const sz::LinearQuantizer q(h.eb_absolute, h.quant_bits);
  const int recon_nt = std::max(sz::resolve_thread_budget(opts.pqd_threads), nt);
  std::vector<float> out;
  if (h.variant == sz::Variant::Sz14) {
    std::vector<float> unpred;
    tr.span("sz.unpred_decode_ms", [&] {
      unpred = sz::truncation_decode(unpred_plain, h.unpredictable_count,
                                     h.eb_absolute);
    });
    const auto kind = static_cast<sz::PredictorKind>(h.aux);
    tr.span("sz.reconstruct_ms", [&] {
      out = recon_nt > 1 && h.dims.rank >= 2
                ? sz::lorenzo_reconstruct_wavefront(codes, unpred, h.dims, q,
                                                    kind, recon_nt)
                : sz::lorenzo_reconstruct(codes, unpred, h.dims, q, kind);
    });
  } else {
    std::vector<float> verbatim;
    tr.span("sz.unpred_decode_ms", [&] {
      wavesz::ByteReader vr(unpred_plain);
      verbatim = vr.floats(h.unpredictable_count);
    });
    tr.span("core.reconstruct_ms", [&] {
      const wavesz::Dims flat = h.dims.flatten2d();
      const wave::WavefrontLayout layout(flat[0], flat[1]);
      std::size_t next = 0;
      const auto wf = wave::wave_reconstruct_2d(codes, verbatim, &next, layout,
                                                q, recon_nt);
      WAVESZ_REQUIRE(next == verbatim.size(), "verbatim values left over");
      out = wave::from_wavefront(wf, layout);
    });
  }

  counts.points += h.point_count;
  counts.unpredictable += h.unpredictable_count;
  counts.code_plain += code_plain.size();
  counts.code_blob += code_blob.size();
  counts.unpred_plain += unpred_plain.size();
  counts.unpred_blob += unpred_blob.size();
  return out;
}

std::vector<std::span<const std::uint8_t>> stream_chunks(
    std::span<const std::uint8_t> archive) {
  constexpr std::uint32_t kStreamMagic = 0x53535a57u;  // "WZSS"
  wavesz::ByteReader r(archive);
  WAVESZ_REQUIRE(r.u32() == kStreamMagic, "not a stream archive");
  r.u8();  // rank
  for (int i = 0; i < 3; ++i) r.u64();  // extents
  r.u64();  // planes per chunk
  const std::uint64_t count = r.u64();
  WAVESZ_REQUIRE(count <= archive.size() / 8, "chunk count exceeds archive");
  std::vector<std::uint64_t> sizes(count);
  for (auto& s : sizes) s = r.u64();
  std::vector<std::span<const std::uint8_t>> chunks;
  std::size_t offset = r.position();
  for (const std::uint64_t s : sizes) {
    WAVESZ_REQUIRE(s <= archive.size() - offset, "archive truncated");
    chunks.push_back(archive.subspan(offset, s));
    offset += s;
  }
  return chunks;
}

}  // namespace perfbench
