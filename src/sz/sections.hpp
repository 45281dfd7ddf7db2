// The two-section back end of the container (sz/container.hpp), written
// once for SZ-1.4, waveSZ and GhostSZ. The codecs differ only in
// prediction and layout (paper §2.1, §3): each ships its quantization
// codes, H*-coded or raw, and its unpredictable values as two gzip
// sections (Table 7's H*G* and G* rows). SectionStaged encodes, gzips and
// frames them; read_sections(), decode_sections() and
// decode_section_prefix() parse, inflate and decode them, the last for
// only the index chunks a region read needs. A codec supplies its PQD and
// reconstruct, its header's variant and aux, and its unpredictable-value
// codec: encode_unpredictable(), the decoder it runs on the plain bytes
// returned here, and the most plain bits one value takes, which bounds a
// region read's unpredictable inflate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sz/compressor.hpp"
#include "sz/config.hpp"
#include "sz/container.hpp"
#include "util/bytes.hpp"
#include "util/dims.hpp"

namespace wavesz::sz {

/// The compress phases after PQD. A codec derives from this, runs its PQD
/// in pqd() (filling codes_ in stream order and setting head_.eb_absolute,
/// head_.unpredictable_count and pqd_nt_), and supplies its
/// unpredictable-section encoder; every later phase is the same for all
/// three codecs.
class SectionStaged : public StagedCompressor {
 public:
  std::size_t sections() const final { return 2; }
  /// Section 0 is the code section, section 1 encode_unpredictable().
  void encode_section(std::size_t s) final;
  void deflate_section(std::size_t s) final;
  Compressed assemble() final;

 protected:
  /// The header takes the bound mode, quantizer width, entropy stages and
  /// version from `cfg`, and the rest from the codec and its field.
  SectionStaged(const Config& cfg, Variant variant, std::uint8_t aux,
                std::uint8_t dtype, const Dims& dims, std::size_t points);

  /// Plain bytes of the unpredictable section, called after pqd().
  virtual std::vector<std::uint8_t> encode_unpredictable() = 0;

  const Config cfg_;
  ContainerHeader head_;
  std::vector<std::uint16_t> codes_;
  int pqd_nt_ = 1;  ///< resolved Config::pqd_threads; H* encodes at it

 private:
  CodeChunkIndex idx_;
  /// Plain section bytes: H* bytes (raw codes are deflated from codes_)
  /// and the unpredictable values.
  std::vector<std::uint8_t> plain_[2];
  std::vector<std::uint8_t> blobs_[2];
};

/// Throws unless `h` is a `variant` container of `dtype` values.
void expect_variant(const ContainerHeader& h, Variant variant,
                    std::uint8_t dtype, const char* not_variant);

/// A container opened for decode: its header, its v2 index and views of
/// both gzip sections in the caller's bytes.
struct Sections {
  ContainerHeader h;
  CodeChunkIndex idx;
  std::size_t meta_bytes = 0;  ///< header and index
  std::span<const std::uint8_t> codes;
  std::span<const std::uint8_t> unpred;
};

/// Read the index and both sections that follow header `h` in `r`.
Sections read_sections(ByteReader& r, const ContainerHeader& h);

/// Decoded sections: quantization codes, and the plain unpredictable bytes
/// that hold the `unpred_count` values those codes consume.
struct SectionsDecoded {
  std::vector<std::uint16_t> codes;
  std::vector<std::uint8_t> unpred;
  std::uint64_t unpred_count = 0;
  int threads = 1;  ///< the resolved decode budget
  /// Prefix decodes: header, index, both section sizes and the gzip bytes
  /// inflated, the quantity a region read exists to shrink.
  std::size_t bytes_read = 0;
};

/// Full decode: both sections inflated, concurrently when the index is
/// present and opts.decode_threads > 1, and every code decoded and checked
/// against the header's point count. Serial without an index.
SectionsDecoded decode_sections(const Sections& s, const DecodeOptions& opts);

/// The first `symbols` codes, decoded from only the index chunks covering
/// them (prefix inflate included), and the unpredictable values they
/// consume, inflated from a plain prefix of `unpred_bits` bits per value.
/// Needs the index; `symbols` must be positive.
SectionsDecoded decode_section_prefix(const Sections& s,
                                      std::uint64_t symbols,
                                      const DecodeOptions& opts,
                                      std::uint64_t unpred_bits);

/// Copy the hyperslab `rg` out of a row-major (partial or full) field
/// whose axis-1/axis-2 extents match `fdims`.
template <typename T>
std::vector<T> gather_region(std::span<const T> field, const Dims& fdims,
                             const Region& rg, const Dims& rdims) {
  std::vector<T> out;
  out.reserve(rdims.count());
  const std::size_t s0 = fdims.extent[1] * fdims.extent[2];
  const std::size_t s1 = fdims.extent[2];
  for (std::size_t x = rg.lo[0]; x < rg.hi[0]; ++x) {
    for (std::size_t y = rg.lo[1]; y < rg.hi[1]; ++y) {
      for (std::size_t z = rg.lo[2]; z < rg.hi[2]; ++z) {
        out.push_back(field[x * s0 + y * s1 + z]);
      }
    }
  }
  return out;
}

}  // namespace wavesz::sz
