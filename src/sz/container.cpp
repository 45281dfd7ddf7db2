#include "sz/container.hpp"

#include <algorithm>

#include "util/checksum.hpp"
#include "util/decode_guard.hpp"
#include "util/error.hpp"

namespace wavesz::sz {
namespace {

constexpr std::uint32_t kMagic = 0x315a5357u;    // "WSZ1"
constexpr std::uint32_t kMagicV2 = 0x495a5357u;  // "WSZI" (indexed)
constexpr std::size_t kEntryBytes = 8 + 8 + 8 + 4;

}  // namespace

void write_header(ByteWriter& w, const ContainerHeader& h) {
  WAVESZ_ASSERT(h.version == 1 || h.version == 2, "unknown container version");
  w.u32(h.version == 2 ? kMagicV2 : kMagic);
  w.u8(static_cast<std::uint8_t>(h.variant));
  w.u8(static_cast<std::uint8_t>(h.dims.rank));
  w.u8(static_cast<std::uint8_t>(h.mode));
  w.u8(static_cast<std::uint8_t>(h.base));
  for (int i = 0; i < 3; ++i) w.u64(h.dims.extent[static_cast<std::size_t>(i)]);
  w.f64(h.eb_requested);
  w.f64(h.eb_absolute);
  w.u8(static_cast<std::uint8_t>(h.quant_bits));
  w.u8(h.huffman ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(h.gzip_level));
  w.u8(h.aux);
  w.u8(h.dtype);
  w.u64(h.point_count);
  w.u64(h.unpredictable_count);
}

ContainerHeader read_header(ByteReader& r) {
  const std::uint32_t magic = r.u32();
  WAVESZ_REQUIRE(magic == kMagic || magic == kMagicV2,
                 "not a waveSZ container (bad magic)");
  ContainerHeader h;
  h.version = magic == kMagicV2 ? 2 : 1;
  const std::uint8_t variant = r.u8();
  WAVESZ_REQUIRE(variant >= 1 && variant <= 4, "unknown container variant");
  h.variant = static_cast<Variant>(variant);
  const std::uint8_t rank = r.u8();
  WAVESZ_REQUIRE(rank >= 1 && rank <= 3, "invalid rank");
  const std::uint8_t mode = r.u8();
  WAVESZ_REQUIRE(mode <= 1, "invalid error-bound mode");
  h.mode = static_cast<EbMode>(mode);
  const std::uint8_t base = r.u8();
  WAVESZ_REQUIRE(base <= 1, "invalid error-bound base");
  h.base = static_cast<EbBase>(base);
  std::array<std::size_t, 3> ext{};
  for (std::size_t i = 0; i < ext.size(); ++i) {
    ext[i] = static_cast<std::size_t>(r.u64());
    WAVESZ_REQUIRE(ext[i] > 0, "zero extent in container");
    // Writers pad unused axes with 1; anything else is a forged header
    // whose count()/slab arithmetic would disagree with its rank.
    WAVESZ_REQUIRE(i < static_cast<std::size_t>(rank) || ext[i] == 1,
                   "nontrivial extent beyond container rank");
  }
  h.dims = Dims{ext, rank};
  h.eb_requested = r.f64();
  h.eb_absolute = r.f64();
  WAVESZ_REQUIRE(h.eb_absolute > 0.0, "non-positive absolute bound");
  h.quant_bits = r.u8();
  WAVESZ_REQUIRE(h.quant_bits >= 2 && h.quant_bits <= 16,
                 "invalid quantization width");
  h.huffman = r.u8() != 0;
  const std::uint8_t level = r.u8();
  WAVESZ_REQUIRE(level <= 1, "invalid gzip level");
  h.gzip_level = static_cast<deflate::Level>(level);
  h.aux = r.u8();
  h.dtype = r.u8();
  WAVESZ_REQUIRE(h.dtype <= 1, "unknown value dtype");
  h.point_count = r.u64();
  h.unpredictable_count = r.u64();
  // Overflow-checked product, capped by the process decode guard: forged
  // extents must be rejected here, before any decoder sizes an output
  // buffer from them (see util/decode_guard.hpp).
  const std::size_t elem = h.dtype == 1 ? sizeof(double) : sizeof(float);
  WAVESZ_REQUIRE(h.point_count == guarded_count(h.dims, elem),
                 "point count disagrees with dims");
  WAVESZ_REQUIRE(h.unpredictable_count <= h.point_count,
                 "unpredictable count exceeds point count");
  return h;
}

void write_code_index(ByteWriter& w, const CodeChunkIndex& idx) {
  if (!idx.present()) {
    // Stripped-index marker: three zero fields, decoders fall back to the
    // serial full decode.
    w.u32(0);
    w.u64(0);
    w.u64(0);
    return;
  }
  w.u32(idx.chunk_symbols);
  w.u64(idx.entries.size());
  w.u64(idx.payload_byte_offset);
  for (const ChunkEntry& e : idx.entries) {
    w.u64(e.end_bit);
    w.u64(e.end_element);
    w.u64(e.end_unpred);
    w.u32(e.running_crc);
  }
}

CodeChunkIndex read_code_index(ByteReader& r, const ContainerHeader& h) {
  CodeChunkIndex idx;
  if (h.version < 2) return idx;
  idx.chunk_symbols = r.u32();
  const std::uint64_t count = r.u64();
  idx.payload_byte_offset = r.u64();
  if (count == 0) {
    WAVESZ_REQUIRE(idx.chunk_symbols == 0 && idx.payload_byte_offset == 0,
                   "stripped chunk index has nonzero fields");
    return idx;
  }
  // Every structural invariant is enforced here, before any decoder sizes a
  // buffer or spawns a worker from the table: forged counts, overlapping or
  // non-monotonic offsets, and truncated tables all die as wavesz::Error.
  WAVESZ_REQUIRE(idx.chunk_symbols > 0, "chunk index with zero chunk size");
  const std::uint64_t expected =
      (h.point_count + idx.chunk_symbols - 1) / idx.chunk_symbols;
  WAVESZ_REQUIRE(count == expected, "chunk count disagrees with point count");
  WAVESZ_REQUIRE(count <= r.remaining() / kEntryBytes,
                 "chunk index truncated");
  WAVESZ_REQUIRE(h.huffman || idx.payload_byte_offset == 0,
                 "payload offset on a raw code stream");
  const std::uint64_t min_bits = h.huffman ? 1 : 16;  // degenerate H* vs u16
  const std::uint64_t max_bits = h.huffman ? 24 : 16;  // kMaxCodeLength
  idx.entries.reserve(count);
  std::uint64_t prev_bit = 0;
  std::uint64_t prev_elem = 0;
  std::uint64_t prev_unpred = 0;
  for (std::uint64_t k = 0; k < count; ++k) {
    ChunkEntry e;
    e.end_bit = r.u64();
    e.end_element = r.u64();
    e.end_unpred = r.u64();
    e.running_crc = r.u32();
    const std::uint64_t want_elem = std::min<std::uint64_t>(
        (k + 1) * idx.chunk_symbols, h.point_count);
    WAVESZ_REQUIRE(e.end_element == want_elem,
                   "chunk element offsets break the fixed stride");
    const std::uint64_t syms = want_elem - prev_elem;
    WAVESZ_REQUIRE(e.end_bit > prev_bit &&
                       e.end_bit - prev_bit >= syms * min_bits &&
                       e.end_bit - prev_bit <= syms * max_bits,
                   "chunk bit offsets out of range");
    WAVESZ_REQUIRE(e.end_unpred >= prev_unpred &&
                       e.end_unpred - prev_unpred <= syms,
                   "chunk unpredictable counts not monotonic");
    prev_bit = e.end_bit;
    prev_elem = e.end_element;
    prev_unpred = e.end_unpred;
    idx.entries.push_back(e);
  }
  WAVESZ_REQUIRE(prev_unpred == h.unpredictable_count,
                 "chunk unpredictable total disagrees with header");
  return idx;
}

CodeChunkIndex build_raw_code_index(std::span<const std::uint16_t> codes,
                                    std::uint32_t chunk_symbols) {
  WAVESZ_ASSERT(chunk_symbols > 0, "chunk size must be positive");
  CodeChunkIndex idx;
  idx.chunk_symbols = chunk_symbols;
  idx.payload_byte_offset = 0;
  Crc32 crc;
  std::uint64_t unpred = 0;
  for (std::size_t at = 0; at < codes.size(); at += chunk_symbols) {
    const std::size_t n = std::min<std::size_t>(chunk_symbols,
                                                codes.size() - at);
    const auto chunk = codes.subspan(at, n);
    unpred += count_unpredictable(chunk);
    crc.update(bytes_of(chunk));
    ChunkEntry e;
    e.end_element = at + n;
    e.end_bit = e.end_element * 16;
    e.end_unpred = unpred;
    e.running_crc = crc.value();
    idx.entries.push_back(e);
  }
  return idx;
}

std::uint64_t count_unpredictable(std::span<const std::uint16_t> codes) {
  // Fixed 64-code blocks with a 16-bit tally: a loop shape the compiler
  // vectorizes at -O2, several times faster than std::count per chunk.
  std::uint64_t n = 0;
  std::size_t i = 0;
  for (; i + 64 <= codes.size(); i += 64) {
    const std::uint16_t* block = codes.data() + i;
    std::uint16_t zeros = 0;
    for (std::size_t j = 0; j < 64; ++j) {
      zeros = static_cast<std::uint16_t>(zeros + (block[j] == 0 ? 1 : 0));
    }
    n += zeros;
  }
  for (; i < codes.size(); ++i) n += codes[i] == 0 ? 1u : 0u;
  return n;
}

void verify_code_index_crcs(std::span<const std::uint16_t> codes,
                            const CodeChunkIndex& idx,
                            std::uint64_t element_count) {
  std::uint64_t prev_elem = 0;
  std::uint64_t prev_unpred = 0;
  std::uint32_t prev_crc = 0;
  for (const ChunkEntry& e : idx.entries) {
    if (e.end_element > element_count) break;
    const auto chunk = codes.subspan(prev_elem, e.end_element - prev_elem);
    Crc32 crc = prev_elem == 0 ? Crc32{} : Crc32::resume(prev_crc);
    crc.update(bytes_of(chunk));
    WAVESZ_REQUIRE(crc.value() == e.running_crc, "chunk CRC mismatch");
    // read_code_index() bounds each delta; only the codes can confirm it.
    WAVESZ_REQUIRE(count_unpredictable(chunk) == e.end_unpred - prev_unpred,
                   "chunk unpredictable count mismatch");
    prev_elem = e.end_element;
    prev_unpred = e.end_unpred;
    prev_crc = e.running_crc;
  }
}

std::size_t chunks_covering(const CodeChunkIndex& idx, std::uint64_t symbols) {
  std::size_t k = 0;
  while (k < idx.entries.size() && idx.entries[k].end_element < symbols) ++k;
  return symbols == 0 ? 0 : std::min(k + 1, idx.entries.size());
}

Dims normalize_region(Region& rg, const Dims& dims) {
  std::array<std::size_t, 3> ext{1, 1, 1};
  for (std::size_t i = 0; i < 3; ++i) {
    if (rg.lo[i] == 0 && rg.hi[i] == 0) rg.hi[i] = dims.extent[i];
    WAVESZ_REQUIRE(i < static_cast<std::size_t>(dims.rank) ||
                       (rg.lo[i] == 0 && rg.hi[i] == 1),
                   "region axis beyond field rank");
    WAVESZ_REQUIRE(rg.lo[i] < rg.hi[i] && rg.hi[i] <= dims.extent[i],
                   "region outside field bounds");
    ext[i] = rg.hi[i] - rg.lo[i];
  }
  return Dims{ext, dims.rank};
}

void write_section(ByteWriter& w, std::span<const std::uint8_t> blob) {
  w.u64(blob.size());
  w.bytes(blob);
}

std::vector<std::uint8_t> read_section(ByteReader& r) {
  const std::uint64_t size = r.u64();
  auto view = r.bytes(size);
  return {view.begin(), view.end()};
}

ContainerHeader inspect(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  return read_header(r);
}

}  // namespace wavesz::sz
