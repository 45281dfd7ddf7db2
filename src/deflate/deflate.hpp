// DEFLATE (RFC 1951) and gzip (RFC 1952) implemented from scratch.
//
// This is the lossless back end of every compressor in this repository: the
// paper's FPGA designs (waveSZ, GhostSZ) push their quantization codes
// through the Xilinx gzip core, and the SZ-1.4 CPU baseline runs gzip in
// best_speed mode. Block types stored/fixed/dynamic are all implemented and
// chosen per block by estimated cost.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "deflate/lz77.hpp"
#include "util/bitio.hpp"

namespace wavesz::deflate {

/// Raw DEFLATE stream (no framing).
std::vector<std::uint8_t> compress(std::span<const std::uint8_t> input,
                                   Level level = Level::Fast);

/// Inverse of compress(); throws wavesz::Error on malformed input. Every
/// Huffman-coded block decodes through flat lookup tables; a block whose
/// code lengths are over-subscribed is rejected as its header is read, as
/// zlib rejects it.
std::vector<std::uint8_t> decompress(std::span<const std::uint8_t> input);

/// gzip member (RFC 1952): 10-byte header + DEFLATE + CRC-32 + ISIZE.
std::vector<std::uint8_t> gzip_compress(std::span<const std::uint8_t> input,
                                        Level level = Level::Fast);

/// Inverse of gzip_compress(); validates magic, CRC-32 and ISIZE.
std::vector<std::uint8_t> gzip_decompress(std::span<const std::uint8_t> input);

/// Result of a bounded inflate: the decoded prefix, how many compressed
/// input bytes were consumed producing it (the partial-read figure region
/// decoders report), and whether the stream actually ended.
struct PrefixResult {
  std::vector<std::uint8_t> bytes;
  std::size_t compressed_consumed = 0;
  bool complete = false;
};

/// Inflate only until at least `min_output_bytes` of output exist (checked
/// at DEFLATE block granularity, so the result may overshoot) or the stream
/// ends, whichever is first. The decoded prefix is bit-identical to the
/// leading bytes of a full decompress().
PrefixResult decompress_prefix(std::span<const std::uint8_t> input,
                               std::size_t min_output_bytes);

/// gzip framing over decompress_prefix(). When the stop condition fires
/// before the final block, the member's CRC-32/ISIZE trailer is NOT
/// verified — it covers the whole stream, which was deliberately not
/// decoded; callers (the container region decoders) carry their own
/// per-chunk CRCs. A run that does reach the end verifies the trailer
/// exactly like gzip_decompress().
PrefixResult gzip_decompress_prefix(std::span<const std::uint8_t> input,
                                    std::size_t min_output_bytes);

namespace detail {

/// A parse of some live bytes into `block`, handing each full block to
/// `on_full` and leaving the last tokens in `block` (lz77.hpp's parse()
/// contract).
using Parser = std::function<void(
    TokenBlock& block, const std::function<void(TokenBlock&)>& on_full)>;

/// Emit the DEFLATE blocks of `live` as `parser` tokenizes it, in one
/// pass. Each block holds at most kTokensPerBlock tokens and picks
/// stored/fixed/dynamic by estimated cost. When `mark_final` is set the
/// last block carries BFINAL=1 (empty input then emits one empty fixed
/// block); otherwise the stream is left open for further blocks.
void deflate_parsed(BitWriterLSB& bw, std::span<const std::uint8_t> live,
                    const Parser& parser, bool mark_final);

/// deflate_parsed() over lz77.hpp's parse() of `window[dict_len..]`,
/// `window[..dict_len]` priming the matcher. Shared by the serial
/// compress() and the parallel chunked engine (parallel.hpp).
void deflate_window(BitWriterLSB& bw, std::span<const std::uint8_t> window,
                    std::size_t dict_len, Level level, Stride stride,
                    bool mark_final);

/// Bits of `block` written as one block: the least of its stored, fixed
/// and dynamic forms, header included, as the block coder picks them. The
/// price parse_probed() compares its probes by.
std::uint64_t block_bits(const TokenBlock& block);

/// Emit the blocks coding a given token stream, which must expand exactly
/// to `covered` (needed for the stored-block fallback), split every
/// kTokensPerBlock tokens as deflate_window() splits a byte parse. For
/// tests and reference encoders that bring their own tokens.
void deflate_blocks(BitWriterLSB& bw, std::span<const std::uint8_t> covered,
                    std::span<const Token> tokens, bool mark_final);

/// Z_SYNC_FLUSH marker: a non-final empty stored block. Pads the stream to
/// a byte boundary, so whatever is appended next starts byte-aligned — the
/// property the chunk stitcher relies on for interior stored blocks.
void sync_flush(BitWriterLSB& bw);

/// A gzip member around the raw DEFLATE `body` of `input`.
std::vector<std::uint8_t> gzip_member(std::span<const std::uint8_t> input,
                                      Level level,
                                      std::span<const std::uint8_t> body);

}  // namespace detail

}  // namespace wavesz::deflate
