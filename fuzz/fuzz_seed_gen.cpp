// Seed-corpus generator for the fuzz harnesses.
//
// Emits small, VALID artifacts of every format under test into
// <outdir>/<harness>/seed_*.bin. Starting libFuzzer (or the standalone
// driver) from well-formed inputs matters: random bytes die at the magic
// check, but a mutated valid container reaches the deep parser states —
// Huffman tables, section framing, wavefront layout math — where the
// real bugs live. Deterministic by construction (fixed recipes), so the
// corpus is reproducible and diffs are meaningful.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/wavesz.hpp"
#include "data/synthetic.hpp"
#include "deflate/deflate.hpp"
#include "deflate_vectors.hpp"
#include "huffman_vectors.hpp"
#include "sz/compressor.hpp"
#include "sz/huffman_codec.hpp"
#include "wave_vectors.hpp"

namespace fs = std::filesystem;

namespace {

void write_seed(const fs::path& dir, int n,
                const std::vector<std::uint8_t>& bytes) {
  fs::create_directories(dir);
  const auto path = dir / ("seed_" + std::to_string(n) + ".bin");
  std::ofstream out(path, std::ios::binary);
  // wavesz-lint: allow(raw-memory) iostream write() contract; tool code.
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out.good()) {
    std::fprintf(stderr, "cannot write %s\n", path.string().c_str());
    std::exit(2);
  }
}

std::vector<float> field(const wavesz::Dims& dims, std::uint64_t seed) {
  wavesz::data::FieldRecipe r;
  r.seed = seed;
  return wavesz::data::generate(r, dims);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wavesz;
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-dir>\n", argv[0]);
    return 2;
  }
  const fs::path root(argv[1]);

  // Raw bytes with LZ77-friendly structure: a synthetic field reused as
  // the plaintext for the DEFLATE/gzip seeds.
  const Dims d2 = Dims::d2(48, 48);
  const auto f32 = field(d2, 11);
  std::vector<std::uint8_t> plain(f32.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    plain[i] = static_cast<std::uint8_t>(static_cast<int>(f32[i] * 8.0f) & 0xff);
  }

  write_seed(root / "inflate", 0, deflate::compress(plain,
                                                    deflate::Level::Fast));
  write_seed(root / "inflate", 1, deflate::compress(plain,
                                                    deflate::Level::Best));
  write_seed(root / "inflate", 2,
             deflate::compress(std::vector<std::uint8_t>{},
                               deflate::Level::Best));

  write_seed(root / "gzip", 0, deflate::gzip_compress(plain,
                                                      deflate::Level::Fast));
  write_seed(root / "gzip", 1,
             deflate::gzip_compress(std::vector<std::uint8_t>{},
                                    deflate::Level::Best));

  // Little-endian 16-bit codes walking around the radius, longer than the
  // 32 KiB window: fuzz_gzip recompresses what they decode to as a code
  // section, so mutants that keep the CRC wrap the matcher's window ring.
  {
    std::vector<std::uint8_t> codes;
    std::uint32_t lcg = 1;
    int offset = 0;
    for (int i = 0; i < 24000; ++i) {
      lcg = lcg * 1664525u + 1013904223u;
      offset = std::clamp(offset + static_cast<int>(lcg >> 29) % 5 - 2, -24,
                          24);
      const auto code = static_cast<std::uint16_t>(32768 + offset);
      codes.push_back(static_cast<std::uint8_t>(code & 0xff));
      codes.push_back(static_cast<std::uint8_t>(code >> 8));
    }
    write_seed(root / "gzip", 4,
               deflate::gzip_compress(codes, deflate::Level::Fast));
  }

  // An H* payload, the customized-Huffman coding of such codes, past the
  // window and the 8 KiB probe: fuzz_gzip sends what it decodes to through
  // the H* section encoder, whose chunks each probe runs against the hash
  // chains.
  {
    std::vector<std::uint16_t> codes;
    std::uint32_t lcg = 7;
    int offset = 0;
    for (int i = 0; i < 90000; ++i) {
      lcg = lcg * 1664525u + 1013904223u;
      offset = std::clamp(offset + static_cast<int>(lcg >> 29) % 5 - 2, -24,
                          24);
      codes.push_back(static_cast<std::uint16_t>(
          32768 + (lcg >> 26 == 0 ? offset : offset / 8)));
    }
    write_seed(root / "gzip", 9,
               deflate::gzip_compress(sz::huffman_encode(codes),
                                      deflate::Level::Fast));
  }

  // Malformed on purpose, next to the decoder checks that reject them: a
  // dynamic header declaring 287 lit/len code lengths (RFC 1951 allows
  // 286), and a member with 3 bytes between its DEFLATE stream and trailer.
  const auto hlit_287 = deflate::vectors::dynamic_block_with_hlit(287);
  write_seed(root / "inflate", 3, hlit_287);
  write_seed(root / "gzip", 2,
             deflate::vectors::with_gap_before_trailer(
                 deflate::gzip_compress(plain, deflate::Level::Fast), 3));
  write_seed(root / "gzip", 3,
             deflate::vectors::gzip_member(hlit_287,
                                           std::vector<std::uint8_t>{'A'}));

  // The admission vectors: a literal-only block under an empty distance
  // code (decodes), a match under that code, and over-subscribed lit/len
  // and code-length codes (rejected at the table build).
  {
    std::vector<std::uint8_t> literals(plain.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
      literals[i] = static_cast<std::uint8_t>(plain[i] % 255);
    }
    using namespace deflate::vectors;
    write_seed(root / "inflate", 4, literal_only_block(literals));
    write_seed(root / "inflate", 5, match_without_distance_code());
    write_seed(root / "inflate", 6, oversubscribed_litlen_block());
    write_seed(root / "inflate", 7, oversubscribed_clc_block());
    // zlib's rule on incomplete codes: an incomplete lit/len code and an
    // incomplete code-length code are rejected, a lone 1-bit lit/len code
    // decodes.
    write_seed(root / "inflate", 8, incomplete_litlen_block());
    write_seed(root / "inflate", 9, incomplete_clc_block());
    write_seed(root / "inflate", 10, lone_end_of_block_block());
    // Fixed-code blocks that send a reserved length symbol (286, 287) or
    // distance code (30, 31), raw and as gzip members.
    const std::string_view prefix(kReservedFixedPrefix);
    const std::vector<std::uint8_t> abc(prefix.begin(), prefix.end());
    int n = 0;
    for (const auto& [length_symbol, dist_code] : kReservedFixedSymbols) {
      const auto block = reserved_fixed_symbol_block(length_symbol, dist_code);
      write_seed(root / "inflate", 11 + n, block);
      write_seed(root / "gzip", 5 + n, gzip_member(block, abc));
      ++n;
    }
  }

  {
    sz::Config cfg;
    write_seed(root / "sz14", 0, sz::compress(f32, d2, cfg).bytes);
    const Dims d1 = Dims::d1(512);
    write_seed(root / "sz14", 1, sz::compress(field(d1, 13), d1, cfg).bytes);
    const Dims d3 = Dims::d3(8, 16, 16);
    write_seed(root / "sz14", 2, sz::compress(field(d3, 17), d3, cfg).bytes);
    const auto narrow = field(d2, 19);
    std::vector<double> wide(narrow.begin(), narrow.end());
    write_seed(root / "sz14", 3, sz::compress(wide, d2, cfg).bytes);
  }

  {
    sz::Config cfg;
    write_seed(root / "wavesz", 0, wave::compress(f32, d2, cfg).bytes);
    const Dims d3 = Dims::d3(8, 16, 16);
    write_seed(root / "wavesz", 1,
               wave::compress(field(d3, 23), d3, cfg).bytes);
    // Malformed on purpose: v1 G* containers whose only defect is a nonzero
    // code at one border point, which the decoder's border check rejects.
    // One Flatten2D float32 field (top row), one True3D float64 field
    // (left column of plane 2, the 3D slice kernel).
    sz::Config gstar = wave::default_config();
    gstar.chunk_index = false;
    write_seed(root / "wavesz", 2,
               wave::vectors::with_border_code(
                   wave::compress(f32, d2, gstar).bytes, 0, 0, 9));
    const auto narrow = field(d3, 43);
    const std::vector<double> wide(narrow.begin(), narrow.end());
    write_seed(root / "wavesz", 3,
               wave::vectors::with_border_code(
                   wave::compress(wide, d3, gstar, wave::LayoutMode::True3D)
                       .bytes,
                   2, 6, 0));
  }

  {
    // Chunk-index seeds: v2 containers whose index actually has several
    // entries (tiny chunk granularity), so mutations land on entry fields
    // and not just the header. Both variants, Huffman and raw codes, plus
    // a float64 stream and a v1 opt-out for the fallback path.
    sz::Config cfg;
    cfg.index_chunk_symbols = 256;
    write_seed(root / "chunk_index", 0, sz::compress(f32, d2, cfg).bytes);
    write_seed(root / "chunk_index", 1, wave::compress(f32, d2, cfg).bytes);
    cfg.huffman = false;
    write_seed(root / "chunk_index", 2, sz::compress(f32, d2, cfg).bytes);
    cfg.huffman = true;
    const auto narrow = field(d2, 29);
    std::vector<double> wide(narrow.begin(), narrow.end());
    write_seed(root / "chunk_index", 3, sz::compress(wide, d2, cfg).bytes);
    cfg.chunk_index = false;
    write_seed(root / "chunk_index", 4, sz::compress(f32, d2, cfg).bytes);
    // Window-edge code streams (tests/huffman_vectors.hpp) in v2
    // containers: an all-1-bit code, codes at 10, 11 and 12 bits around the
    // decoder's 11-bit window, and 24-bit codes.
    using namespace huffman_vectors;
    write_seed(root / "chunk_index", 5,
               container_with_codes(two_symbol_stream(), 256));
    write_seed(root / "chunk_index", 6,
               container_with_codes(geometric_stream(), 256));
    write_seed(root / "chunk_index", 7,
               container_with_codes(fibonacci_stream(), 4096));
    // A 3D field of white noise 100x its scale under an absolute bound of
    // 1e-3: most codes are 0, so a box read must step the unpredictable
    // cursor over every row tail and plane tail outside the box.
    data::FieldRecipe rough;
    rough.seed = 47;
    rough.noise_amplitude = 1.0;
    rough.amplitude = 100.0;
    const Dims d3 = Dims::d3(6, 12, 16);
    sz::Config abs_cfg;
    abs_cfg.mode = sz::EbMode::Absolute;
    abs_cfg.error_bound = 1e-3;
    abs_cfg.index_chunk_symbols = 64;
    write_seed(root / "chunk_index", 8,
               sz::compress(data::generate(rough, d3), d3, abs_cfg).bytes);
  }

  {
    // SZx seeds covering every block kind: a smooth field (packed k-bit
    // blocks), a constant field (const blocks), a field with non-finite
    // spikes (raw fallback blocks), a float64 stream and a tiny-block
    // layout so mutations land on block tags, not just the preamble.
    sz::Config cfg = sz::Config::ultrafast();
    write_seed(root / "szx", 0, sz::compress(f32, d2, cfg).bytes);
    std::vector<float> constant(d2.count(), 3.25f);
    write_seed(root / "szx", 1, sz::compress(constant, d2, cfg).bytes);
    auto spiky = field(d2, 31);
    spiky[7] = std::numeric_limits<float>::quiet_NaN();
    spiky[900] = std::numeric_limits<float>::infinity();
    sz::Config abs_cfg = cfg;
    abs_cfg.mode = sz::EbMode::Absolute;
    abs_cfg.error_bound = 1e-3;
    write_seed(root / "szx", 2, sz::compress(spiky, d2, abs_cfg).bytes);
    const auto narrow = field(d2, 37);
    std::vector<double> wide(narrow.begin(), narrow.end());
    write_seed(root / "szx", 3, sz::compress(wide, d2, cfg).bytes);
    sz::Config tiny = cfg;
    tiny.szx_block_elems = 8;
    write_seed(root / "szx", 4, sz::compress(f32, d2, tiny).bytes);
  }

  {
    // Pipeline-equivalence recipes (fuzz_pipeline): 6 header bytes (depth,
    // variant, rows, cols, bound selector, chunk knob) followed by raw
    // field bytes. One seed per variant family so the mutator starts inside
    // every codec/container arm of the differential.
    const auto f = field(Dims::d2(32, 32), 41);
    std::vector<std::uint8_t> payload;
    for (float v : f) {
      const auto u = std::bit_cast<std::uint32_t>(v);
      for (int b = 24; b >= 0; b -= 8) {
        payload.push_back(static_cast<std::uint8_t>((u >> b) & 0xffu));
      }
    }
    for (std::uint8_t variant = 0; variant < 9; ++variant) {
      std::vector<std::uint8_t> seed = {2, variant, 28, 28, 3, 1};
      seed.insert(seed.end(), payload.begin(), payload.end());
      write_seed(root / "pipeline", variant, seed);
    }
  }

  {
    // Skewed symbol stream shaped like real quantization codes: a heavy
    // center symbol with a geometric tail, plus a degenerate one-symbol
    // stream and an empty one.
    std::vector<std::uint16_t> codes;
    for (std::size_t i = 0; i < 4096; ++i) {
      const auto wobble = static_cast<std::uint16_t>((i * i * 31) % 97);
      codes.push_back(static_cast<std::uint16_t>(
          wobble < 80 ? 1024 : 1024 + (wobble % 13) - 6));
    }
    write_seed(root / "huffman", 0, sz::huffman_encode(codes, 1));
    write_seed(root / "huffman", 1,
               sz::huffman_encode(std::vector<std::uint16_t>(64, 7), 1));
    write_seed(root / "huffman", 2,
               sz::huffman_encode(std::vector<std::uint16_t>{}, 1));
    // The same window-edge streams as the chunk_index seeds, as bare blobs.
    using namespace huffman_vectors;
    write_seed(root / "huffman", 3, sz::huffman_encode(two_symbol_stream(), 1));
    write_seed(root / "huffman", 4, sz::huffman_encode(geometric_stream(), 1));
    write_seed(root / "huffman", 5, sz::huffman_encode(fibonacci_stream(), 1));
    // The hand-built blob whose two-level table has a subtable of every
    // depth, 1 to 14 bits.
    write_seed(root / "huffman", 6, deep_blob().blob);
  }

  std::printf("seed corpus written under %s\n", root.string().c_str());
  return 0;
}
