// Fuzz target: gzip member parse (RFC 1952 header + DEFLATE + CRC/ISIZE).
//
// Contract: gzip_decompress is contained — wavesz::Error or success, never
// a crash. On success the recovered bytes must survive a gzip round trip:
// recompressing and decompressing them reproduces the same payload, which
// exercises the CRC-32 and ISIZE trailer checks from the producing side.
// The input and the bytes it decodes to, read as 16-bit codes, must also
// survive the code-section encoder, in one stream and in sync-flushed
// chunks of an odd requested size (rounded up to even), so the matcher's
// window ring sees arbitrary input. Both also round-trip through the H*
// section encoder, gzip_compress_probed(), in one chunk and in 16 KiB
// chunks, so the probe, the run parse and the resumed hash chains see it.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

#include "deflate/deflate.hpp"
#include "deflate/parallel.hpp"
#include "fuzz_common.hpp"
#include "util/error.hpp"

namespace {

void code_section_round_trip(std::span<const std::uint8_t> bytes) {
  using namespace wavesz;
  std::vector<std::uint16_t> codes(bytes.size() / 2);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    codes[i] = static_cast<std::uint16_t>(bytes[2 * i] |
                                          (bytes[2 * i + 1] << 8));
  }
  const deflate::ParallelOptions serial{deflate::kDefaultChunkBytes, 1};
  deflate::ParallelOptions chunked{4097, 1};
  chunked.force_chunking = true;
  for (const auto& opts : {serial, chunked}) {
    const auto image = deflate::gzip_decompress(
        deflate::gzip_compress_codes(codes, deflate::Level::Fast, opts));
    if (image.size() != 2 * codes.size() ||
        !std::equal(image.begin(), image.end(), bytes.begin())) {
      std::abort();
    }
  }
}

void probed_round_trip(std::span<const std::uint8_t> bytes) {
  using namespace wavesz;
  for (const std::size_t chunk : {deflate::kDefaultChunkBytes,
                                  std::size_t{16384}}) {
    const auto back = deflate::gzip_decompress(
        deflate::gzip_compress_probed(bytes, {chunk, 1}));
    if (!std::equal(back.begin(), back.end(), bytes.begin(), bytes.end())) {
      std::abort();
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace wavesz;
  if (size > fuzz::kMaxInput) return 0;
  const std::span<const std::uint8_t> input(data, size);
  code_section_round_trip(input);
  probed_round_trip(input);

  std::vector<std::uint8_t> plain;
  try {
    plain = deflate::gzip_decompress(input);
  } catch (const Error&) {
    return 0;
  }
  const auto again = deflate::gzip_compress(plain, deflate::Level::Fast);
  const auto back = deflate::gzip_decompress(again);
  if (back != plain) std::abort();

  code_section_round_trip(plain);
  probed_round_trip(plain);
  return 0;
}
