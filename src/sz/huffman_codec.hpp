// Customized variable-length encoding of quantization codes (H*, paper
// §2.1 step 4): a canonical Huffman code built over the 16-bit symbol
// alphabet, serialized as (symbol, length) pairs plus an MSB-first payload.
//
// This is the coder whose absence on the FPGA limits waveSZ's ratio in
// Table 7; applying it (H* followed by G*) recovers SZ-1.4-level ratios.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sz/container.hpp"

namespace wavesz::sz {

/// Self-contained encoding: [u32 distinct][u64 count][(u16 sym, u8 len)...]
/// [u64 payload bits][payload bytes]. `threads` is a budget with
/// Config::pqd_threads semantics (0 = all OpenMP threads, 1 = serial): the
/// symbol histogram is built as a per-thread reduction; the payload is
/// packed in one serial pass, so the bytes are the same at every budget.
/// Empty inputs skip the 512 KiB frequency table entirely.
std::vector<std::uint8_t> huffman_encode(std::span<const std::uint16_t> codes,
                                         int threads = 1);

/// huffman_encode() that additionally records the container-v2 offset table:
/// after every `chunk_symbols` output elements, `idx` gets the cumulative
/// payload bit offset, element offset, unpredictable (symbol 0) count and
/// running CRC-32 of the code stream's little-endian bytes, in the same
/// pass that packs the payload. The returned blob is byte-identical to
/// huffman_encode() on the same input.
std::vector<std::uint8_t> huffman_encode_indexed(
    std::span<const std::uint16_t> codes, int threads,
    std::uint32_t chunk_symbols, CodeChunkIndex& idx);

/// Inverse of huffman_encode(); throws wavesz::Error on malformed input.
/// Decodes through an 11-bit multi-symbol table (up to four symbols per
/// lookup, one bit-buffer refill each) with the flat two-level table behind
/// it for longer codes. This entry point is serial: without a chunk index,
/// finding chunk boundaries costs a full serial table walk, which makes any
/// two-pass parallel scheme slower than one pass through the table.
/// Containers that do carry the v2 index decode through
/// huffman_decode_indexed() instead.
std::vector<std::uint16_t> huffman_decode(std::span<const std::uint8_t> blob);

/// Index-driven decode: every chunk is checked against its recorded end bit
/// offset and running CRC-32; with `threads > 1` (Config::decode_threads
/// semantics) chunks decode on an OpenMP worker pool, each seeking the
/// table-driven fast path to its recorded start bit. The output is
/// bit-identical to huffman_decode() — any divergence trips the per-chunk
/// checks and throws wavesz::Error.
std::vector<std::uint16_t> huffman_decode_indexed(
    std::span<const std::uint8_t> blob, const CodeChunkIndex& idx,
    int threads);

/// Decode only the first `symbols` codes by running the leading index
/// chunks. `blob` may be a truncated plain code stream (the product of a
/// prefix inflate) as long as it covers those chunks' payload bits; the
/// chunks decoded in full are CRC-verified before the result is trimmed.
std::vector<std::uint16_t> huffman_decode_prefix(
    std::span<const std::uint8_t> blob, const CodeChunkIndex& idx,
    std::uint64_t symbols, int threads);

/// Mean code length in bits for the given stream (diagnostics/benches).
double huffman_mean_bits(std::span<const std::uint16_t> codes);

/// The symbol histogram behind huffman_encode(): 65,536 counts, entry c
/// holding the number of c in `codes`. Each encode thread counts its own
/// contiguous share through this.
std::vector<std::uint64_t> count_symbols(std::span<const std::uint16_t> codes);

}  // namespace wavesz::sz
