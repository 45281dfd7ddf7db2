// SZx-inspired ultra-fast block codec (PAPERS.md: "SZx: an Ultra-fast Error-
// bounded Lossy Compressor"): fixed-size blocks of error-bound quantized
// values with constant-block detection and per-block bit-plane truncation of
// the quantized integers — no prediction, no Huffman, no DEFLATE. Roughly
// 3-5x the compression throughput of the SZ-1.4 pipeline at a modest ratio
// cost; selected with Config::codec = Codec::Szx (the Config::ultrafast()
// profile) and dispatched through sz::compress/decompress on the container
// variant.
//
// Wire format (container variant SzxFast, always a v1 index-less container;
// one section follows the header, laid out little-endian):
//   u32 tag 'SZXB' | u32 block_elems | u64 block_count
//   then per block (m = elements in this block, <= block_elems):
//     u8 0x00: constant block — i64 q; every value decodes to q * 2eb
//     u8 0xFF: raw block — m IEEE values verbatim (lossless fallback for
//              NaN/Inf values and blocks whose quantization misses the
//              bound)
//     u8 k (1..52): i64 q_min, then ceil(m*k/8) bytes of LSB-first packed
//              k-bit deltas; value i decodes to (q_min + delta_i) * 2eb
// where 2eb = 2 * eb_absolute from the header. Every quantized value is
// verified against the bound at encode time (|decoded - v| <= eb_absolute);
// any miss demotes the whole block to raw, so the error bound holds for
// every input, NaN/Inf payloads included (raw blocks are bit-exact).
// header.unpredictable_count records the number of raw-block values.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sz/compressor.hpp"
#include "sz/config.hpp"
#include "util/dims.hpp"

namespace wavesz::sz::detail {

/// SZx-mode compress/decompress, instantiated for float and double in
/// szx.cpp. Reached through sz::compress and wave::compress (cfg.codec ==
/// Codec::Szx) and their decompress entries (container variant SzxFast)
/// rather than called directly.
template <typename T>
Compressed szx_compress_t(std::span<const T> data, const Dims& dims,
                          const Config& cfg);

template <typename T>
std::vector<T> szx_decompress_t(std::span<const std::uint8_t> bytes,
                                Dims* dims_out);

}  // namespace wavesz::sz::detail
