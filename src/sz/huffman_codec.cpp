#include "sz/huffman_codec.hpp"

#include <algorithm>
#include <array>

#include "sz/config.hpp"
#include "telemetry/span_names.hpp"
#include "telemetry/telemetry.hpp"
#include "util/bitio.hpp"
#include "util/bytes.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/fork_join.hpp"
#include "util/huffman.hpp"

namespace wavesz::sz {
namespace {

constexpr int kMaxCodeLength = 24;
constexpr std::size_t kAlphabet = 65536;
/// Below this many symbols per worker the table/merge overhead wins.
constexpr std::size_t kMinSymbolsPerThread = 1u << 15;

/// Below this many symbols the plain counting loop wins.
constexpr std::size_t kStripedCutoff = std::size_t{1} << 14;

std::vector<std::uint64_t> frequencies(std::span<const std::uint16_t> codes,
                                       int threads) {
  const auto parts = static_cast<std::size_t>(
      util::team_size(threads, codes.size(), kMinSymbolsPerThread));
  if (parts <= 1) return count_symbols(codes);
  // One histogram per contiguous part, reduced serially: 65536 * parts
  // adds, trivial next to the counting pass itself.
  std::vector<std::vector<std::uint64_t>> local(parts);
  util::parallel_for(parts, static_cast<int>(parts), [&](std::size_t t) {
    const std::size_t lo = codes.size() * t / parts;
    const std::size_t hi = codes.size() * (t + 1) / parts;
    local[t] = count_symbols(codes.subspan(lo, hi - lo));
  });
  std::vector<std::uint64_t> freq(kAlphabet, 0);
  for (const auto& mine : local) {
    for (std::size_t s = 0; s < kAlphabet; ++s) freq[s] += mine[s];
  }
  return freq;
}

/// MSB-first packer over a 64-bit accumulator into a pre-sized buffer: each
/// code shifts in whole, and once 32 bits are pending they leave as one
/// big-endian word. The pending `fill` (< 32) bits sit at the bottom of
/// `acc`; the bits above them were already written and only shift out.
struct WordPacker {
  std::uint8_t* out;
  std::uint64_t acc = 0;
  int fill = 0;

  /// Append `code`'s low `len` (at most 24) bits.
  [[gnu::always_inline]] void put(std::uint32_t code, int len) {
    acc = (acc << len) | code;
    fill += len;
    if (fill >= 32) {
      fill -= 32;
      store_word(static_cast<std::uint32_t>(acc >> fill));
    }
  }

  /// Store the pending bits, zero-padded, as one more word: the buffer
  /// holds 4 bytes past the last payload byte for it.
  void flush() {
    if (fill > 0) store_word(static_cast<std::uint32_t>(acc << (32 - fill)));
  }

  /// Big-endian store; gcc and clang merge the four byte stores into one
  /// byte swap and one 32-bit store.
  void store_word(std::uint32_t w) {
    out[0] = static_cast<std::uint8_t>(w >> 24);
    out[1] = static_cast<std::uint8_t>(w >> 16);
    out[2] = static_cast<std::uint8_t>(w >> 8);
    out[3] = static_cast<std::uint8_t>(w);
    out += 4;
  }

  /// Bits written since `begin`, the packer's first byte.
  std::uint64_t bit_position(const std::uint8_t* begin) const {
    return static_cast<std::uint64_t>(out - begin) * 8 +
           static_cast<std::uint64_t>(fill);
  }
};

/// Pack `codes` into `payload`; `enc[c]` holds `(code << 8) | len` for
/// symbol c. With `idx`, the chunk index is recorded in the same pass: at
/// every `chunk_symbols` boundary an entry takes the packer's bit position,
/// the unpredictable (symbol 0) count so far and the running CRC-32 of the
/// codes' little-endian bytes, hashed while the chunk is still in cache.
void pack_payload(std::span<const std::uint16_t> codes,
                  const std::uint32_t* enc, std::uint32_t chunk_symbols,
                  CodeChunkIndex* idx, std::uint8_t* payload) {
  WordPacker pk{payload};
  const std::size_t step = idx != nullptr ? chunk_symbols : codes.size();
  Crc32 crc;
  std::uint64_t unpred = 0;
  for (std::size_t at = 0; at < codes.size(); at += step) {
    const auto chunk = codes.subspan(at, std::min(step, codes.size() - at));
    for (const std::uint16_t c : chunk) {
      unpred += c == 0 ? 1 : 0;
      pk.put(enc[c] >> 8, static_cast<int>(enc[c] & 0xffu));
    }
    if (idx == nullptr) continue;
    crc.update(bytes_of(chunk));
    ChunkEntry e;
    e.end_bit = pk.bit_position(payload);
    e.end_element = at + chunk.size();
    e.end_unpred = unpred;
    e.running_crc = crc.value();
    idx->entries.push_back(e);
  }
  pk.flush();
}

/// Byte offset of the payload within a serialized blob with `distinct`
/// table entries: u32 distinct + u64 count + (u16, u8) pairs + u64 bits.
std::uint64_t payload_offset_for(std::uint32_t distinct) {
  return 4 + 8 + 3ull * distinct + 8;
}

std::vector<std::uint8_t> huffman_encode_impl(
    std::span<const std::uint16_t> codes, int threads,
    std::uint32_t chunk_symbols, CodeChunkIndex* idx) {
  ByteWriter w;
  if (codes.empty()) {
    // Bit-identical to the general path on an empty stream (no table
    // entries, zero counts) without ever allocating the frequency table.
    w.u32(0);
    w.u64(0);
    w.u64(0);
    return w.take();
  }
  std::vector<std::uint64_t> freq;
  std::vector<std::uint8_t> lengths;
  std::vector<std::uint32_t> enc;  // (canonical code << 8) | length
  {
    telemetry::Span span(telemetry::spans::kHuffmanTable);
    const std::uint64_t t0 =
        telemetry::enabled() ? telemetry::detail::now_ns() : 0;
    freq = frequencies(codes, threads);
    lengths = huffman_code_lengths(freq, kMaxCodeLength);
    enc = canonical_codes(lengths);
    for (std::size_t s = 0; s < kAlphabet; ++s) {
      enc[s] = (enc[s] << 8) | lengths[s];
    }
    if (telemetry::enabled()) {
      telemetry::counter_add(telemetry::Counter::HuffmanTableBuildNs,
                             telemetry::detail::now_ns() - t0);
    }
  }

  // The coded symbols' counts times their lengths price the payload before
  // a bit of it is packed.
  std::uint32_t distinct = 0;
  std::uint64_t payload_bits = 0;
  for (std::size_t s = 0; s < kAlphabet; ++s) {
    if (lengths[s] == 0) continue;
    ++distinct;
    payload_bits += freq[s] * lengths[s];
  }
  w.u32(distinct);
  w.u64(codes.size());
  for (std::size_t s = 0; s < kAlphabet; ++s) {
    if (lengths[s] > 0) {
      w.u16(static_cast<std::uint16_t>(s));
      w.u8(lengths[s]);
    }
  }
  w.u64(payload_bits);
  std::vector<std::uint8_t> out = w.take();
  const std::size_t payload_at = out.size();
  const auto payload_bytes = static_cast<std::size_t>((payload_bits + 7) / 8);
  out.resize(payload_at + payload_bytes + 4);  // + the packer's last word

  if (idx != nullptr) {
    idx->chunk_symbols = chunk_symbols;
    idx->payload_byte_offset = payload_offset_for(distinct);
    idx->entries.clear();
  }
  {
    // The pack is serial at every budget: the index's running CRC-32 takes
    // the chunks in order, and on the CESM code stream the fused pass cost
    // what a separate index pass plus a parallel pack did at budget 2.
    telemetry::Span span_pack(telemetry::spans::kHuffmanPack);
    pack_payload(codes, enc.data(), chunk_symbols, idx,
                 out.data() + payload_at);
  }
  out.resize(payload_at + payload_bytes);
  telemetry::counter_add(telemetry::Counter::HuffmanSymbols, codes.size());
  telemetry::counter_add(telemetry::Counter::HuffmanPayloadBits, payload_bits);
  return out;
}

}  // namespace

std::vector<std::uint64_t> count_symbols(
    std::span<const std::uint16_t> codes) {
  const std::size_t n = codes.size();
  if (n < kStripedCutoff) {
    std::vector<std::uint64_t> freq(kAlphabet, 0);
    for (const std::uint16_t c : codes) ++freq[c];
    return freq;
  }
  // Four interleaved sub-tables, so runs of one symbol (the zero-residual
  // bin dominates smooth fields) do not serialize on one store-forwarded
  // counter; table 0 then takes the sum.
  std::vector<std::uint64_t> t(4 * kAlphabet, 0);
  std::uint64_t* t0 = t.data();
  std::uint64_t* t1 = t0 + kAlphabet;
  std::uint64_t* t2 = t1 + kAlphabet;
  std::uint64_t* t3 = t2 + kAlphabet;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    ++t0[codes[i]];
    ++t1[codes[i + 1]];
    ++t2[codes[i + 2]];
    ++t3[codes[i + 3]];
  }
  for (; i < n; ++i) ++t0[codes[i]];
  for (std::size_t s = 0; s < kAlphabet; ++s) t0[s] += t1[s] + t2[s] + t3[s];
  t.resize(kAlphabet);
  return t;
}

std::vector<std::uint8_t> huffman_encode(std::span<const std::uint16_t> codes,
                                         int threads) {
  return huffman_encode_impl(codes, threads, 0, nullptr);
}

std::vector<std::uint8_t> huffman_encode_indexed(
    std::span<const std::uint16_t> codes, int threads,
    std::uint32_t chunk_symbols, CodeChunkIndex& idx) {
  WAVESZ_ASSERT(chunk_symbols > 0, "chunk size must be positive");
  return huffman_encode_impl(codes, threads, chunk_symbols, &idx);
}

namespace {

/// Parsed blob framing: code lengths, symbol count and the payload view.
struct ParsedBlob {
  std::vector<std::uint8_t> lengths;
  std::uint64_t count = 0;
  std::uint64_t payload_bits = 0;
  std::span<const std::uint8_t> payload;
  std::uint32_t distinct = 0;
};

/// Parse everything ahead of the payload and take the payload view. With
/// `allow_truncated_payload` (prefix decode over a partially inflated plain
/// stream) the payload may be shorter than `payload_bits`; callers must then
/// bound their reads by the index's recorded bit offsets.
ParsedBlob parse_blob(std::span<const std::uint8_t> blob,
                      bool allow_truncated_payload) {
  ByteReader r(blob);
  ParsedBlob p;
  p.distinct = r.u32();
  p.count = r.u64();
  p.lengths.assign(kAlphabet, 0);
  for (std::uint32_t i = 0; i < p.distinct; ++i) {
    const std::uint16_t sym = r.u16();
    const std::uint8_t len = r.u8();
    WAVESZ_REQUIRE(len >= 1 && len <= kMaxCodeLength,
                   "Huffman table entry with invalid length");
    WAVESZ_REQUIRE(p.lengths[sym] == 0, "duplicate Huffman table entry");
    p.lengths[sym] = len;
  }
  WAVESZ_REQUIRE(kraft_complete(p.lengths),
                 "Huffman table is not a complete prefix code");
  WAVESZ_REQUIRE(p.distinct > 0 || p.count == 0,
                 "Huffman symbols without a code table");
  p.payload_bits = r.u64();
  if (allow_truncated_payload) {
    p.payload = r.bytes(std::min<std::uint64_t>((p.payload_bits + 7) / 8,
                                                r.remaining()));
  } else {
    // Checked before the byte-count division: a claimed bit count near 2^64
    // would wrap (payload_bits + 7) / 8 into a tiny read.
    WAVESZ_REQUIRE(p.payload_bits / 8 <= r.remaining(),
                   "Huffman payload exceeds the container");
    p.payload = r.bytes((p.payload_bits + 7) / 8);
  }
  // Every symbol costs at least one bit; anything else is a forged header
  // trying to force a huge allocation.
  WAVESZ_REQUIRE(p.count <= p.payload_bits || p.count == 0,
                 "symbol count exceeds payload capacity");
  return p;
}

std::uint16_t degenerate_symbol(const std::vector<std::uint8_t>& lengths) {
  std::uint16_t only = 0;
  for (std::size_t s = 0; s < kAlphabet; ++s) {
    if (lengths[s] > 0) only = static_cast<std::uint16_t>(s);
  }
  return only;
}

/// Window of the multi-symbol decode table, in stream bits.
constexpr int kWindowBits = 11;
/// Most symbols one window entry emits: four u16 lanes, one 8-byte store.
constexpr int kRunSymbols = 4;

/// The decode tables of one blob's code: the canonical decoder, whose
/// two-level table takes codes longer than the window, and the
/// multi-symbol window table.
class BlobDecoder {
 public:
  explicit BlobDecoder(std::span<const std::uint8_t> lengths)
      : dec_(lengths) {
    const CanonicalDecoder::MsbTable table = dec_.msb_table();
    lanes_.assign(std::size_t{1} << kWindowBits, 0);
    spans_.assign(lanes_.size(), 0);
    for (std::size_t w = 0; w < lanes_.size(); ++w) {
      // Decode the window's bits, zero-padded past it, and keep every code
      // that ends inside it.
      std::uint64_t acc = std::uint64_t{w} << (64 - kWindowBits);
      int used = 0;
      int count = 0;
      while (count < kRunSymbols) {
        const std::uint32_t e = table.lookup(acc);
        const auto len = static_cast<int>(e & 0xffu);
        if (e == 0 || used + len > kWindowBits) break;
        lanes_[w] |= std::uint64_t{e >> 8} << (16 * count++);
        used += len;
        acc <<= len;
      }
      spans_[w] = static_cast<std::uint16_t>(used | count << 8);
    }
  }

  /// Decode `n` symbols into `dst` from absolute bit `start_bit` of
  /// `payload`; returns the bit position after the last one. One refill
  /// per lookup, with the reader's registers in locals. While four or more
  /// symbols remain, a window entry stores all four of its lanes and
  /// advances by its count; the last few symbols, and codes longer than
  /// the window, go through the two-level table one at a time.
  std::uint64_t run(std::span<const std::uint8_t> payload,
                    std::uint64_t start_bit, std::uint16_t* dst,
                    std::uint64_t n) const {
    BitReaderMSB br(payload, start_bit);
    const std::span<const std::uint8_t> in = br.source();
    const std::uint64_t* const lanes = lanes_.data();
    const std::uint16_t* const spans = spans_.data();
    const CanonicalDecoder::MsbTable table = dec_.msb_table();
    const auto take_code = [&](BitReaderMSB::State& st) {
      const std::uint32_t e = table.lookup(st.acc);
      WAVESZ_REQUIRE(e != 0, "invalid Huffman code in bitstream");
      const auto len = static_cast<int>(e & 0xffu);
      st.acc <<= len;
      st.fill -= len;
      return static_cast<std::uint16_t>(e >> 8);
    };

    BitReaderMSB::State st = br.state();
    std::uint16_t* op = dst;
    std::uint16_t* const end = dst + n;
    while (end - op >= kRunSymbols) {
      BitReaderMSB::refill(st, in);
      const std::size_t w = st.acc >> (64 - kWindowBits);
      const std::uint32_t span = spans[w];
      if (span > 0xffu) {
        copy_bytes(op, &lanes[w], sizeof lanes[w]);
        op += span >> 8;
        st.acc <<= span & 0xffu;
        st.fill -= static_cast<int>(span & 0xffu);
      } else {
        *op++ = take_code(st);
      }
      WAVESZ_REQUIRE(st.fill >= 0, "bitstream truncated");
    }
    while (op < end) {
      BitReaderMSB::refill(st, in);
      *op++ = take_code(st);
      WAVESZ_REQUIRE(st.fill >= 0, "bitstream truncated");
    }
    br.set_state(st);
    return br.position();
  }

 private:
  CanonicalDecoder dec_;
  /// The window table, one slot per kWindowBits-bit window: the symbols
  /// whose codes complete inside it, in stream order and at most
  /// kRunSymbols of them, as u16 lanes with the first symbol lowest (so an
  /// 8-byte store on the little-endian hosts the containers assume writes
  /// them in order), and `bits | count << 8` for them. A count of 0 means
  /// the first code is longer than the window.
  std::vector<std::uint64_t> lanes_;
  std::vector<std::uint16_t> spans_;
};

/// Build a blob's decode tables, timed into huffman_table_ns.
BlobDecoder make_decoder(const ParsedBlob& p) {
  const std::uint64_t t0 =
      telemetry::enabled() ? telemetry::detail::now_ns() : 0;
  BlobDecoder dec(p.lengths);
  if (telemetry::enabled()) {
    telemetry::counter_add(telemetry::Counter::HuffmanTableBuildNs,
                           telemetry::detail::now_ns() - t0);
  }
  return dec;
}

/// Decode the first `chunk_count` index chunks of a parsed blob into `out`
/// (pre-sized by the caller), chunk-parallel when `threads > 1`. Each chunk
/// seeks to its recorded start bit, decodes to its recorded element range,
/// and is verified against the recorded end bit, the running CRC-32 resumed
/// from the previous entry's digest, and the recorded unpredictable count.
void decode_index_chunks(const ParsedBlob& p, const CodeChunkIndex& idx,
                         std::size_t chunk_count, int threads,
                         std::vector<std::uint16_t>& out) {
  WAVESZ_ASSERT(chunk_count <= idx.entries.size(), "chunk range overflow");
  const auto& entries = idx.entries;
  if (p.distinct == 1) {
    // Degenerate single-symbol stream: one bit per symbol. The index adds
    // the constraint that every chunk boundary lands exactly on its element
    // offset; the payload bits themselves carry no information to check.
    const std::uint16_t only = degenerate_symbol(p.lengths);
    for (std::size_t k = 0; k < chunk_count; ++k) {
      WAVESZ_REQUIRE(entries[k].end_bit == entries[k].end_element,
                     "chunk bit offset mismatch");
    }
    std::fill(out.begin(),
              out.begin() + static_cast<std::ptrdiff_t>(
                                entries[chunk_count - 1].end_element),
              only);
    verify_code_index_crcs(out, idx, entries[chunk_count - 1].end_element);
    return;
  }

  const BlobDecoder dec = make_decoder(p);
  const auto decode_chunk = [&](std::size_t k) {
    const std::uint64_t start_bit = k == 0 ? 0 : entries[k - 1].end_bit;
    const std::uint64_t start_elem = k == 0 ? 0 : entries[k - 1].end_element;
    const std::uint64_t n = entries[k].end_element - start_elem;
    std::uint16_t* dst = out.data() + start_elem;
    WAVESZ_REQUIRE(dec.run(p.payload, start_bit, dst, n) == entries[k].end_bit,
                   "chunk bit offset mismatch");
    const std::span<const std::uint16_t> chunk(dst, n);
    Crc32 crc = k == 0 ? Crc32{} : Crc32::resume(entries[k - 1].running_crc);
    crc.update(bytes_of(chunk));
    WAVESZ_REQUIRE(crc.value() == entries[k].running_crc,
                   "chunk CRC mismatch");
    const std::uint64_t start_unpred = k == 0 ? 0 : entries[k - 1].end_unpred;
    WAVESZ_REQUIRE(count_unpredictable(chunk) ==
                       entries[k].end_unpred - start_unpred,
                   "chunk unpredictable count mismatch");
  };

  util::parallel_for(chunk_count, threads, decode_chunk);
}

}  // namespace

std::vector<std::uint16_t> huffman_decode(std::span<const std::uint8_t> blob) {
  telemetry::Span span(telemetry::spans::kHuffmanDecode);
  const ParsedBlob p = parse_blob(blob, /*allow_truncated_payload=*/false);
  if (p.count == 0) return {};
  if (p.distinct == 1) {
    // Degenerate single-symbol stream: each symbol is one bit.
    WAVESZ_REQUIRE(p.payload_bits == p.count, "payload size mismatch");
    return std::vector<std::uint16_t>(p.count, degenerate_symbol(p.lengths));
  }
  // This entry point stays serial: without an index, finding chunk
  // boundaries takes a serial table walk that costs as much as the decode
  // itself. Containers carrying the v2 offset table go through
  // huffman_decode_indexed(), whose workers seek straight to their recorded
  // start bits.
  const BlobDecoder dec = make_decoder(p);
  std::vector<std::uint16_t> out(p.count);
  WAVESZ_REQUIRE(dec.run(p.payload, 0, out.data(), p.count) == p.payload_bits,
                 "Huffman payload has trailing data");
  return out;
}

std::vector<std::uint16_t> huffman_decode_indexed(
    std::span<const std::uint8_t> blob, const CodeChunkIndex& idx,
    int threads) {
  if (!idx.present()) return huffman_decode(blob);
  telemetry::Span span(telemetry::spans::kHuffmanDecodeIndexed);
  const ParsedBlob p = parse_blob(blob, /*allow_truncated_payload=*/false);
  // The structurally validated index must still agree with the stream it
  // claims to describe; any mismatch means one of the two was forged.
  WAVESZ_REQUIRE(idx.entries.back().end_element == p.count &&
                     idx.entries.back().end_bit == p.payload_bits,
                 "chunk index disagrees with Huffman stream");
  WAVESZ_REQUIRE(idx.payload_byte_offset == payload_offset_for(p.distinct),
                 "chunk index payload offset mismatch");
  std::vector<std::uint16_t> out(p.count);
  decode_index_chunks(p, idx, idx.entries.size(), threads, out);
  if (telemetry::enabled()) {
    telemetry::counter_add(telemetry::Counter::IndexChunksDecoded,
                           idx.entries.size());
  }
  return out;
}

std::vector<std::uint16_t> huffman_decode_prefix(
    std::span<const std::uint8_t> blob, const CodeChunkIndex& idx,
    std::uint64_t symbols, int threads) {
  WAVESZ_REQUIRE(idx.present(), "prefix decode requires a chunk index");
  telemetry::Span span(telemetry::spans::kHuffmanDecodeIndexed);
  const ParsedBlob p = parse_blob(blob, /*allow_truncated_payload=*/true);
  WAVESZ_REQUIRE(idx.payload_byte_offset == payload_offset_for(p.distinct),
                 "chunk index payload offset mismatch");
  WAVESZ_REQUIRE(symbols <= p.count && idx.entries.back().end_element ==
                                           p.count,
                 "prefix extends past the code stream");
  if (symbols == 0) return {};
  const std::size_t chunks = chunks_covering(idx, symbols);
  const std::uint64_t end_bit = idx.entries[chunks - 1].end_bit;
  WAVESZ_REQUIRE((end_bit + 7) / 8 <= p.payload.size(),
                 "inflated payload prefix too short for requested chunks");
  std::vector<std::uint16_t> out(idx.entries[chunks - 1].end_element);
  decode_index_chunks(p, idx, chunks, threads, out);
  if (telemetry::enabled()) {
    telemetry::counter_add(telemetry::Counter::IndexChunksDecoded, chunks);
  }
  out.resize(symbols);
  return out;
}

double huffman_mean_bits(std::span<const std::uint16_t> codes) {
  if (codes.empty()) return 0.0;
  const auto freq = count_symbols(codes);
  const auto lengths = huffman_code_lengths(freq, kMaxCodeLength);
  std::uint64_t bits = 0;
  for (std::size_t s = 0; s < kAlphabet; ++s) {
    bits += freq[s] * lengths[s];
  }
  return static_cast<double>(bits) / static_cast<double>(codes.size());
}

}  // namespace wavesz::sz
