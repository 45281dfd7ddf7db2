// Self-describing compressed container shared by SZ-1.4, GhostSZ and waveSZ.
//
// v1 layout (little-endian):
//   u32 magic 'WSZ1' | u8 variant | u8 rank | u8 mode | u8 base
//   u64 dims[3]
//   f64 eb_requested | f64 eb_absolute
//   u8 quant_bits | u8 huffman | u8 gzip_level | u8 aux | u8 dtype
//   u64 point_count | u64 unpredictable_count
//   u64 code_blob_size   | bytes  (gzip of Huffman bits or of raw u16 codes)
//   u64 unpred_blob_size | bytes  (gzip of truncation bits or raw floats)
//
// v2 ('WSZI') keeps the header and sections byte-identical and inserts a
// per-chunk offset table between them, so independent workers can seek into
// the code payload and a region decoder can stop inflating early:
//   u32 chunk_symbols | u64 chunk_count | u64 payload_byte_offset
//   chunk_count x { u64 end_bit | u64 end_element | u64 end_unpred
//                 | u32 running_crc }
// Entries record cumulative END-of-chunk state: end_bit is the absolute bit
// offset consumed from the (Huffman or raw-u16) code payload, end_element
// the number of quantization codes produced, end_unpred the number of
// unpredictable values consumed, running_crc the CRC-32 of the little-endian
// bytes of codes [0, end_element). chunk_count == 0 (with the other two
// fields zero) marks a v2 stream whose index was stripped; decoders must
// fall back to the serial path. v1 streams parse byte-identically.
//
// The code stream marks unpredictable positions with symbol 0; their values
// are consumed from the unpredictable section in stream order.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "sz/config.hpp"
#include "util/bytes.hpp"
#include "util/dims.hpp"

namespace wavesz::sz {

enum class Variant : std::uint8_t {
  Sz14 = 1,
  GhostSz = 2,
  WaveSz = 3,
  /// SZx-style ultra-fast block codec (src/sz/szx.hpp): a single 'SZXB'
  /// section follows the header instead of the code/unpredictable pair.
  /// Always written as a v1 (index-less) container.
  SzxFast = 4,
};

struct ContainerHeader {
  Variant variant = Variant::Sz14;
  Dims dims = Dims::d1(1);
  EbMode mode = EbMode::ValueRangeRelative;
  EbBase base = EbBase::Ten;
  double eb_requested = 1e-3;
  double eb_absolute = 0.0;
  int quant_bits = 16;
  bool huffman = true;
  deflate::Level gzip_level = deflate::Level::Fast;
  std::uint8_t aux = 0;  ///< variant-specific (waveSZ: layout mode)
  std::uint8_t dtype = 0;  ///< 0 = float32, 1 = float64
  std::uint64_t point_count = 0;
  std::uint64_t unpredictable_count = 0;
  int version = 1;  ///< 1 = index-less, 2 = per-chunk offset table follows
};

/// The header's dtype byte for T values.
template <typename T>
inline constexpr std::uint8_t kDtype = std::is_same_v<T, double> ? 1 : 0;

/// Cumulative end-of-chunk record of the v2 offset table.
struct ChunkEntry {
  std::uint64_t end_bit = 0;      ///< code payload bits consumed
  std::uint64_t end_element = 0;  ///< quantization codes produced
  std::uint64_t end_unpred = 0;   ///< unpredictable values consumed
  std::uint32_t running_crc = 0;  ///< CRC-32 of LE bytes of codes [0, end)
};

struct CodeChunkIndex {
  std::uint32_t chunk_symbols = 0;
  /// Byte offset of the Huffman payload inside the plain code stream (0 for
  /// raw-u16 code streams, where end_bit counts from the stream start).
  std::uint64_t payload_byte_offset = 0;
  std::vector<ChunkEntry> entries;

  bool present() const { return !entries.empty(); }
};

void write_header(ByteWriter& w, const ContainerHeader& h);
ContainerHeader read_header(ByteReader& r);

/// Serialize the offset table (or the three-zero "stripped" marker when
/// `idx.present()` is false). Only called for version-2 headers.
void write_code_index(ByteWriter& w, const CodeChunkIndex& idx);

/// Parse the offset table of a v2 container; returns an absent index for v1
/// headers without consuming bytes. Every structural invariant is validated
/// here — exact chunk stride, strictly increasing bit offsets, per-chunk bit
/// widths within the code-length bounds, monotonic unpredictable counts —
/// before any decoder allocates output from the table. The per-chunk CRCs
/// and unpredictable counts need the decoded codes; decoders check them with
/// verify_code_index_crcs() or chunk by chunk as they decode.
CodeChunkIndex read_code_index(ByteReader& r, const ContainerHeader& h);

/// Build the offset table for a raw-u16 code stream (huffman == false):
/// every symbol occupies exactly 16 payload bits.
CodeChunkIndex build_raw_code_index(std::span<const std::uint16_t> codes,
                                    std::uint32_t chunk_symbols);

/// Number of unpredictable markers (symbol 0) among `codes`.
std::uint64_t count_unpredictable(std::span<const std::uint16_t> codes);

/// Verify the running CRC and the unpredictable count of every complete
/// chunk among the first `element_count` decoded codes. Throws
/// wavesz::Error on mismatch.
void verify_code_index_crcs(std::span<const std::uint16_t> codes,
                            const CodeChunkIndex& idx,
                            std::uint64_t element_count);

/// Number of leading chunks needed to produce the first `symbols` codes.
std::size_t chunks_covering(const CodeChunkIndex& idx, std::uint64_t symbols);

void write_section(ByteWriter& w, std::span<const std::uint8_t> blob);
std::vector<std::uint8_t> read_section(ByteReader& r);

/// Peek at the variant/dims of a serialized container without decoding it.
ContainerHeader inspect(std::span<const std::uint8_t> bytes);

/// Hyperslab request for the region decoders: half-open [lo, hi) per axis in
/// the field's row-major coordinates. Axes beyond the container's rank must
/// be left at {0, 1} (or 0/0, which normalize() widens to the full axis).
struct Region {
  std::array<std::size_t, 3> lo{0, 0, 0};
  std::array<std::size_t, 3> hi{0, 0, 0};
};

/// Partial-field decode result: `data` holds the region in row-major order
/// over `region_dims`; `compressed_bytes_read` counts the container bytes
/// actually parsed or inflated (header + index + consumed section prefixes),
/// the quantity the seekable format exists to shrink.
template <typename T>
struct RegionResultT {
  std::vector<T> data;
  Dims region_dims = Dims::d1(1);
  Dims field_dims = Dims::d1(1);
  std::size_t compressed_bytes_read = 0;
};
using RegionResult = RegionResultT<float>;
using RegionResult64 = RegionResultT<double>;

/// Validate `rg` against `dims`, widening all-zero axes to the full extent
/// and pinning axes beyond the rank to {0, 1}. Returns the region extents.
Dims normalize_region(Region& rg, const Dims& dims);

}  // namespace wavesz::sz
