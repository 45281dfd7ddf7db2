#include "deflate/deflate.hpp"

#include <algorithm>
#include <cstring>

#include "deflate/deflate_tables.hpp"
#include "telemetry/span_names.hpp"
#include "telemetry/telemetry.hpp"
#include "util/bitio.hpp"
#include "util/bytes.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/huffman.hpp"

namespace wavesz::deflate {
namespace {

std::uint32_t reverse_bits(std::uint32_t code, int len) {
  std::uint32_t out = 0;
  for (int i = 0; i < len; ++i) {
    out = (out << 1) | ((code >> i) & 1u);
  }
  return out;
}

/// A code in the LSB-first DEFLATE bit order and its bit count, packed as
/// (bits << 8) | count.
using PackedCode = std::uint32_t;

PackedCode pack(std::uint64_t bits, int count) {
  return static_cast<PackedCode>(bits << 8) | static_cast<PackedCode>(count);
}

void put(BitWriterLSB& bw, PackedCode c) {
  bw.bits(c >> 8, static_cast<int>(c & 0xffu));
}

/// Canonical codes of `lens`, bit-reversed and packed.
template <std::size_t N>
std::array<PackedCode, N> packed_codes(std::span<const std::uint8_t> lens) {
  WAVESZ_ASSERT(lens.size() == N, "code length table size mismatch");
  const auto canon = canonical_codes(lens);
  std::array<PackedCode, N> out{};
  for (std::size_t s = 0; s < N; ++s) {
    out[s] = pack(reverse_bits(canon[s], lens[s]), lens[s]);
  }
  return out;
}

/// One block's emit tables. A match length's entry holds its length code
/// followed by its extra bits, so a match goes out in one write.
struct BlockCodes {
  std::array<PackedCode, kNumLitLen> litlen;
  std::array<PackedCode, kMaxMatch + 1> length{};
  std::array<PackedCode, kNumDist> dist;

  BlockCodes(std::span<const std::uint8_t> litlen_lens,
             std::span<const std::uint8_t> dist_lens)
      : litlen(packed_codes<kNumLitLen>(litlen_lens)),
        dist(packed_codes<kNumDist>(dist_lens)) {
    for (int len = kMinMatch; len <= kMaxMatch; ++len) {
      const auto lc = static_cast<std::size_t>(length_code(len));
      const PackedCode c = litlen[257 + lc];
      const int n = static_cast<int>(c & 0xffu);
      length[static_cast<std::size_t>(len)] =
          pack((c >> 8) | (static_cast<std::uint64_t>(len - kLengthBase[lc])
                           << n),
               n + kLengthExtra[lc]);
    }
  }
};

const BlockCodes& fixed_codes() {
  static const BlockCodes codes(fixed_litlen_lengths(), fixed_dist_lengths());
  return codes;
}

/// Bits to code a counted block (EOB included) under the given code
/// lengths: the sum over symbols of freq x (code length + extra bits).
std::uint64_t block_cost_bits(const TokenBlock& b,
                              std::span<const std::uint8_t> litlen_lens,
                              std::span<const std::uint8_t> dist_lens) {
  const auto& litlen = b.litlen_freq();
  const auto& dist = b.dist_freq();
  std::uint64_t bits = 0;
  for (std::size_t s = 0; s < litlen.size(); ++s) {
    bits += litlen[s] * litlen_lens[s];
  }
  for (std::size_t c = 0; c < kLengthExtra.size(); ++c) {
    bits += litlen[257 + c] * kLengthExtra[c];
  }
  for (std::size_t d = 0; d < dist.size(); ++d) {
    bits += dist[d] * (dist_lens[d] + kDistExtra[d]);
  }
  return bits;
}

void emit_tokens(BitWriterLSB& bw, std::span<const Token> tokens,
                 const BlockCodes& codes) {
  for (auto it = tokens.begin(); it != tokens.end();) {
    if (it->length == 0) {
      // Up to three literals, at most 45 bits, in one write.
      std::uint64_t bits = 0;
      int n = 0;
      for (int k = 0; k < 3 && it != tokens.end() && it->length == 0;
           ++k, ++it) {
        const PackedCode c = codes.litlen[it->value];
        bits |= static_cast<std::uint64_t>(c >> 8) << n;
        n += static_cast<int>(c & 0xffu);
      }
      bw.bits(bits, n);
      continue;
    }
    const Token& t = *it++;
    // A match is at most 20 length bits and 28 distance bits.
    const PackedCode len = codes.length[t.length];
    const auto dc = static_cast<std::size_t>(distance_code(t.value));
    const PackedCode dist = codes.dist[dc];
    const int dist_n = static_cast<int>(dist & 0xffu);
    const std::uint64_t dist_bits =
        (dist >> 8) |
        (static_cast<std::uint64_t>(t.value - kDistBase[dc]) << dist_n);
    const int len_n = static_cast<int>(len & 0xffu);
    bw.bits((len >> 8) | (dist_bits << len_n),
            len_n + dist_n + kDistExtra[dc]);
  }
  put(bw, codes.litlen[kEndOfBlock]);
}

/// RLE of concatenated lit/len+dist code lengths using symbols 0-18 per
/// RFC 1951 §3.2.7. Returns (symbol, extra_value) pairs; extra_value is
/// meaningful for symbols 16/17/18.
std::vector<std::pair<std::uint8_t, std::uint8_t>> rle_code_lengths(
    std::span<const std::uint8_t> lens) {
  std::vector<std::pair<std::uint8_t, std::uint8_t>> out;
  std::size_t i = 0;
  while (i < lens.size()) {
    const std::uint8_t v = lens[i];
    std::size_t run = 1;
    while (i + run < lens.size() && lens[i + run] == v) ++run;
    if (v == 0) {
      std::size_t left = run;
      while (left >= 11) {
        const std::size_t take = std::min<std::size_t>(left, 138);
        out.emplace_back(18, static_cast<std::uint8_t>(take - 11));
        left -= take;
      }
      while (left >= 3) {
        const std::size_t take = std::min<std::size_t>(left, 10);
        out.emplace_back(17, static_cast<std::uint8_t>(take - 3));
        left -= take;
      }
      while (left-- > 0) out.emplace_back(0, 0);
    } else {
      out.emplace_back(v, 0);
      std::size_t left = run - 1;
      while (left >= 3) {
        const std::size_t take = std::min<std::size_t>(left, 6);
        out.emplace_back(16, static_cast<std::uint8_t>(take - 3));
        left -= take;
      }
      while (left-- > 0) out.emplace_back(v, 0);
    }
    i += run;
  }
  return out;
}

struct DynamicHeader {
  std::vector<std::uint8_t> litlen_lens;  // trimmed to hlit
  std::vector<std::uint8_t> dist_lens;    // trimmed to hdist
  std::vector<std::pair<std::uint8_t, std::uint8_t>> rle;
  std::vector<std::uint8_t> clc_lens;  // 19 entries
  int hclen = 0;
  std::uint64_t header_bits = 0;
};

DynamicHeader build_dynamic_header(std::span<const std::uint8_t> litlen_full,
                                   std::span<const std::uint8_t> dist_full) {
  DynamicHeader h;
  int hlit = kNumLitLen;
  while (hlit > 257 &&
         litlen_full[static_cast<std::size_t>(hlit) - 1] == 0) {
    --hlit;
  }
  int hdist = kNumDist;
  while (hdist > 1 && dist_full[static_cast<std::size_t>(hdist) - 1] == 0) {
    --hdist;
  }
  h.litlen_lens.assign(litlen_full.begin(),
                       litlen_full.begin() + hlit);
  h.dist_lens.assign(dist_full.begin(), dist_full.begin() + hdist);

  std::vector<std::uint8_t> all(h.litlen_lens);
  all.insert(all.end(), h.dist_lens.begin(), h.dist_lens.end());
  h.rle = rle_code_lengths(all);

  std::array<std::uint64_t, kNumClc> clc_freq{};
  for (auto [sym, extra] : h.rle) ++clc_freq[sym];
  h.clc_lens = huffman_code_lengths(clc_freq, 7);

  h.hclen = kNumClc;
  while (h.hclen > 4 &&
         h.clc_lens[kClcOrder[static_cast<std::size_t>(h.hclen) - 1]] == 0) {
    --h.hclen;
  }

  h.header_bits = 5u + 5u + 4u + 3u * static_cast<std::uint64_t>(h.hclen);
  for (auto [sym, extra] : h.rle) {
    h.header_bits += h.clc_lens[sym];
    if (sym == 16) h.header_bits += 2;
    if (sym == 17) h.header_bits += 3;
    if (sym == 18) h.header_bits += 7;
  }
  return h;
}

void emit_dynamic_block(BitWriterLSB& bw, std::span<const Token> tokens,
                        const DynamicHeader& h, const BlockCodes& codes,
                        bool final_block) {
  bw.bits(final_block ? 1u : 0u, 1);
  bw.bits(0b10, 2);  // dynamic
  bw.bits(static_cast<std::uint32_t>(h.litlen_lens.size() - 257), 5);
  bw.bits(static_cast<std::uint32_t>(h.dist_lens.size() - 1), 5);
  bw.bits(static_cast<std::uint32_t>(h.hclen - 4), 4);
  for (int i = 0; i < h.hclen; ++i) {
    bw.bits(h.clc_lens[kClcOrder[static_cast<std::size_t>(i)]], 3);
  }
  const auto clc = packed_codes<kNumClc>(h.clc_lens);
  for (auto [sym, extra] : h.rle) {
    put(bw, clc[sym]);
    if (sym == 16) bw.bits(extra, 2);
    if (sym == 17) bw.bits(extra, 3);
    if (sym == 18) bw.bits(extra, 7);
  }
  emit_tokens(bw, tokens, codes);
}

void emit_fixed_block(BitWriterLSB& bw, std::span<const Token> tokens,
                      bool final_block) {
  bw.bits(final_block ? 1u : 0u, 1);
  bw.bits(0b01, 2);  // fixed
  emit_tokens(bw, tokens, fixed_codes());
}

void emit_stored_blocks(BitWriterLSB& bw,
                        std::span<const std::uint8_t> raw_bytes,
                        bool final_block) {
  std::size_t off = 0;
  do {
    const std::size_t take =
        std::min<std::size_t>(raw_bytes.size() - off, 65535);
    const bool last_piece = (off + take == raw_bytes.size());
    bw.bits((final_block && last_piece) ? 1u : 0u, 1);
    bw.bits(0b00, 2);  // stored
    bw.align_byte();
    const auto len = static_cast<std::uint16_t>(take);
    bw.byte(static_cast<std::uint8_t>(len & 0xff));
    bw.byte(static_cast<std::uint8_t>(len >> 8));
    bw.byte(static_cast<std::uint8_t>(~len & 0xff));
    bw.byte(static_cast<std::uint8_t>((~len >> 8) & 0xff));
    bw.bytes(raw_bytes.subspan(off, take));
    off += take;
  } while (off < raw_bytes.size());
}

/// A counted block's dynamic code and the bits of its three forms.
struct BlockPlan {
  std::vector<std::uint8_t> dyn_ll;
  std::vector<std::uint8_t> dyn_dd;
  DynamicHeader header;
  std::uint64_t dynamic_bits = 0;
  std::uint64_t fixed_bits = 0;
  std::uint64_t stored_bits = 0;

  bool stored() const {
    return stored_bits < dynamic_bits && stored_bits < fixed_bits;
  }
  bool fixed() const { return fixed_bits <= dynamic_bits; }
  std::uint64_t least() const {
    return std::min({dynamic_bits, fixed_bits, stored_bits});
  }
};

BlockPlan plan_block(const TokenBlock& block) {
  BlockPlan p;
  // Ensure at least one distance code exists so the dynamic header is
  // always well-formed (a zero-frequency code still gets a slot).
  auto dist_freq = block.dist_freq();
  if (std::all_of(dist_freq.begin(), dist_freq.end(),
                  [](std::uint64_t f) { return f == 0; })) {
    dist_freq[0] = 1;
  }
  p.dyn_ll = huffman_code_lengths(block.litlen_freq(), 15);
  p.dyn_dd = huffman_code_lengths(dist_freq, 15);
  p.header = build_dynamic_header(p.dyn_ll, p.dyn_dd);
  p.dynamic_bits =
      3 + p.header.header_bits + block_cost_bits(block, p.dyn_ll, p.dyn_dd);
  p.fixed_bits =
      3 + block_cost_bits(block, fixed_litlen_lengths(), fixed_dist_lengths());
  const std::uint64_t covered = block.covered();
  p.stored_bits = (3 + 7 + 32) * ((covered + 65534) / 65535) + 8 * covered;
  return p;
}

/// Emit one counted block as stored, fixed or dynamic, whichever costs
/// least; `covered` is the input it encodes (for the stored form).
void write_block(BitWriterLSB& bw, const TokenBlock& block,
                 std::span<const std::uint8_t> covered, bool final_block) {
  const BlockPlan p = plan_block(block);
  if (p.stored()) {
    emit_stored_blocks(bw, covered, final_block);
  } else if (p.fixed()) {
    emit_fixed_block(bw, block.tokens(), final_block);
  } else {
    emit_dynamic_block(bw, block.tokens(), p.header,
                       BlockCodes(p.dyn_ll, p.dyn_dd), final_block);
  }
}

}  // namespace

namespace detail {

void deflate_parsed(BitWriterLSB& bw, std::span<const std::uint8_t> live,
                    const Parser& parser, bool mark_final) {
  TokenBlock block(live.size());
  std::size_t raw_off = 0;
  const auto write = [&](TokenBlock& b, bool final_block) {
    write_block(bw, b, live.subspan(raw_off, b.covered()), final_block);
    raw_off += b.covered();
    b.clear();
  };
  parser(block, [&](TokenBlock& b) { write(b, false); });
  if (!block.empty()) {
    write(block, mark_final);
  } else if (mark_final) {
    emit_fixed_block(bw, {}, true);
  }
  WAVESZ_ASSERT(raw_off == live.size(), "token coverage mismatch");
}

void deflate_window(BitWriterLSB& bw, std::span<const std::uint8_t> window,
                    std::size_t dict_len, Level level, Stride stride,
                    bool mark_final) {
  WAVESZ_REQUIRE(dict_len <= window.size(),
                 "dictionary longer than the input span");
  deflate_parsed(
      bw, window.subspan(dict_len),
      [&](TokenBlock& block, const std::function<void(TokenBlock&)>& on_full) {
        parse(window, dict_len, level, stride, block, on_full);
      },
      mark_final);
}

std::uint64_t block_bits(const TokenBlock& block) {
  return plan_block(block).least();
}

void deflate_blocks(BitWriterLSB& bw, std::span<const std::uint8_t> covered,
                    std::span<const Token> tokens, bool mark_final) {
  if (tokens.empty()) {
    WAVESZ_ASSERT(covered.empty(), "token coverage mismatch");
    if (mark_final) emit_fixed_block(bw, {}, true);
    return;
  }
  TokenBlock block(tokens.size());
  std::size_t raw_off = 0;
  for (std::size_t start = 0; start < tokens.size();
       start += kTokensPerBlock) {
    const std::size_t count =
        std::min<std::size_t>(kTokensPerBlock, tokens.size() - start);
    block.clear();
    for (const Token& t : tokens.subspan(start, count)) block.add(t);
    WAVESZ_ASSERT(raw_off + block.covered() <= covered.size(),
                  "token coverage mismatch");
    write_block(bw, block, covered.subspan(raw_off, block.covered()),
                mark_final && start + count == tokens.size());
    raw_off += block.covered();
  }
  WAVESZ_ASSERT(raw_off == covered.size(), "token coverage mismatch");
}

void sync_flush(BitWriterLSB& bw) {
  bw.bits(0u, 1);     // BFINAL = 0
  bw.bits(0b00u, 2);  // stored
  bw.align_byte();
  bw.byte(0x00);
  bw.byte(0x00);
  bw.byte(0xff);
  bw.byte(0xff);
}

std::vector<std::uint8_t> gzip_member(std::span<const std::uint8_t> input,
                                      Level level,
                                      std::span<const std::uint8_t> body) {
  ByteWriter w;
  w.u8(0x1f);
  w.u8(0x8b);
  w.u8(8);  // CM = deflate
  w.u8(0);  // FLG
  w.u32(0); // MTIME
  w.u8(level == Level::Best ? 2 : 4);  // XFL: 2 = best, 4 = fastest
  w.u8(255);                           // OS unknown
  w.bytes(body);
  w.u32(Crc32::of(input));
  w.u32(static_cast<std::uint32_t>(input.size()));
  return w.take();
}

}  // namespace detail

std::vector<std::uint8_t> compress(std::span<const std::uint8_t> input,
                                   Level level) {
  BitWriterLSB bw;
  detail::deflate_window(bw, input, 0, level, Stride::Bytes,
                         /*mark_final=*/true);
  return bw.take();
}

namespace {

/// Decode one code-length sequence (lit/len + dist) of a dynamic block.
std::vector<std::uint8_t> read_dynamic_lengths(BitReaderLSB& br,
                                               const CanonicalDecoder& clc,
                                               std::size_t total) {
  std::vector<std::uint8_t> lens;
  lens.reserve(total);
  while (lens.size() < total) {
    const auto sym = clc.decode_fast([&](int n) { return br.peek(n); },
                                     [&](int n) { br.consume(n); });
    if (sym <= 15) {
      lens.push_back(static_cast<std::uint8_t>(sym));
    } else if (sym == 16) {
      WAVESZ_REQUIRE(!lens.empty(), "repeat with no previous length");
      const std::uint32_t rep = 3 + br.bits(2);
      const std::uint8_t prev = lens.back();
      for (std::uint32_t i = 0; i < rep; ++i) lens.push_back(prev);
    } else if (sym == 17) {
      const std::uint32_t rep = 3 + br.bits(3);
      for (std::uint32_t i = 0; i < rep; ++i) lens.push_back(0);
    } else {
      const std::uint32_t rep = 11 + br.bits(7);
      for (std::uint32_t i = 0; i < rep; ++i) lens.push_back(0);
    }
  }
  WAVESZ_REQUIRE(lens.size() == total, "code-length run overshoots header");
  return lens;
}

/// Room every decoded symbol may write past the output cursor: a
/// 258-byte match, plus the overrun of its 8-byte stores. A word copy
/// writes at least two whole words, so a match shorter than 16 bytes still
/// writes 16; a pattern store ends at most 7 bytes past its match.
constexpr std::size_t kOutputSlack = kMaxMatch + 16;

/// How far past the needed room `ensure_room` extends the output.
constexpr std::size_t kGrowStep = 16 * 1024;

/// Make `out` hold at least `room` bytes past the `produced` bytes of
/// decoded output. The vector's capacity grows by doubling, which keeps
/// reallocation amortized; its length runs at most `room + kGrowStep`
/// ahead of the cursor, so bytes are zero-filled and made resident just
/// before they are written (doubling the length instead would keep up to
/// twice the output resident).
void ensure_room(std::vector<std::uint8_t>& out, std::size_t produced,
                 std::size_t room) {
  if (out.size() - produced < room) out.resize(produced + room + kGrowStep);
}

// Inflate table entries: CanonicalDecoder entries whose payload, in bits
// 8..31, says what the code decodes to, so that a symbol costs no lookups
// past its entry. Bits 0..7 stay the decoder's control byte, the code bits
// left to consume. A lit/len entry is a literal (kLiteralEntry, the byte
// in bits 16..23), end-of-block (kEndEntry) or a match length: its base in
// bits 16..24 and its extra-bit count in bits 8..12. A distance entry
// holds its base in bits 16..30 and its extra-bit count in bits 8..12.
constexpr std::uint32_t kLiteralEntry = 1u << 31;
constexpr std::uint32_t kEndEntry = 1u << 30;

/// The payload of every lit/len symbol. Symbols 286 and 287 get 0, so
/// their fixed-code slots decode as invalid; a dynamic header sends at
/// most 286 lengths. (Dropping their fixed lengths instead would move
/// every 9-bit literal code down by 4.)
constexpr std::array<std::uint32_t, kNumLitLen> kLitLenPayload = [] {
  std::array<std::uint32_t, kNumLitLen> p{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    p[b] = (kLiteralEntry | b << 16) >> 8;
  }
  p[kEndOfBlock] = kEndEntry >> 8;
  for (std::size_t c = 0; c < kLengthBase.size(); ++c) {
    p[257 + c] = static_cast<std::uint32_t>(kLengthBase[c]) << 8 |
                 kLengthExtra[c];
  }
  return p;
}();

constexpr std::array<std::uint32_t, kNumDist> kDistPayload = [] {
  std::array<std::uint32_t, kNumDist> p{};
  for (std::size_t c = 0; c < p.size(); ++c) {
    p[c] = static_cast<std::uint32_t>(kDistBase[c]) << 8 | kDistExtra[c];
  }
  return p;
}();

/// A lit/len or distance decoder over inflate table entries.
CanonicalDecoder entry_decoder(std::span<const std::uint8_t> lens,
                               std::span<const std::uint32_t> payload) {
  return CanonicalDecoder(lens, BitOrder::LsbFirst,
                          payload.first(lens.size()));
}

/// Per short distance d (1..7): a word with a 1 at every byte offset that
/// is a multiple of d, which spreads the d-byte pattern over 8 bytes, and
/// the stride of its stores, the whole periods that fit in 8 bytes.
constexpr std::array<std::uint64_t, 8> kPatternRepeat = {
    0,
    0x0101010101010101u,
    0x0001000100010001u,
    0x0001000001000001u,
    0x0000000100000001u,
    0x0000010000000001u,
    0x0001000000000001u,
    0x0100000000000001u};
constexpr std::array<std::uint8_t, 8> kPatternStride = {0, 8, 8, 6,
                                                       8, 5, 6, 7};

/// Mask of the low `n` (at most 63) bits.
[[gnu::always_inline]] inline std::uint64_t low_bits(int n) {
  return (std::uint64_t{1} << n) - 1;
}

/// The entry of the code under the low bits of `st.acc`, 0 when no code
/// reaches that slot: one root probe, a second one through a subtable link
/// for codes longer than the root, which consumes the root bits. Forced
/// inline so the reader state stays in registers.
[[gnu::always_inline]] inline std::uint32_t lookup(BitReaderLSB::State& st,
                                                   const std::uint32_t* table,
                                                   int root) {
  std::uint32_t e = table[st.acc & low_bits(root)];
  if ((e & 0xffu) >= CanonicalDecoder::kLinkControl) {
    const auto sub =
        static_cast<int>((e & 0xffu) - CanonicalDecoder::kLinkControl);
    st.acc >>= root;
    st.fill -= root;
    e = table[(e >> 8) + (st.acc & low_bits(sub))];
  }
  return e;
}

/// Consume the code bits of a length or distance entry `e` and the extra
/// bits after them, and return its base plus the extra bits' value: at
/// most 15 code and 13 extra bits.
[[gnu::always_inline]] inline std::uint32_t take_value(BitReaderLSB::State& st,
                                                       std::uint32_t e) {
  const auto code = static_cast<int>(e & 0xffu);
  const int total = code + static_cast<int>((e >> 8) & 0x1fu);
  const auto extra =
      static_cast<std::uint32_t>((st.acc & low_bits(total)) >> code);
  st.acc >>= total;
  st.fill -= total;
  return (e >> 16) + extra;
}

/// Inflate one Huffman-coded block, writing from `out[produced]` on;
/// returns the new decoded length. The bit reader's state and the
/// output cursor stay in locals for the whole block. Each symbol starts
/// with one refill: an unaligned 8-byte load while 8 input bytes remain,
/// which leaves at least 56 bits, byte by byte over the final stretch. The
/// costliest symbol takes 15 + 5 + 15 + 13 = 48 bits, so it decodes from
/// the accumulator alone. Past the end of the input the accumulator reads
/// as zeros; a symbol that consumed any of them drives `fill` negative and
/// throws, so a cut stream never ends on a zero-padded end-of-block code.
std::size_t inflate_block(BitReaderLSB& br, const CanonicalDecoder& litlen,
                          const CanonicalDecoder& dist,
                          std::vector<std::uint8_t>& out,
                          std::size_t produced) {
  telemetry::Span span(telemetry::spans::kInflateBlock);
  telemetry::counter_add(telemetry::Counter::InflateBlocks, 1);
  const std::uint8_t* const in = br.source().data();
  const std::size_t in_size = br.source().size();
  BitReaderLSB::State st = br.state();
  std::uint8_t* base = out.data();
  std::uint8_t* op = base + produced;
  std::uint8_t* end = base + out.size();
  // Table pointers and widths in locals too: the output stores are byte
  // stores, which may alias the decoders' members and would force a reload
  // per symbol.
  const std::uint32_t* const litlen_table = litlen.table().data();
  const int litlen_root = litlen.root_bits();
  const std::uint32_t* const dist_table = dist.table().data();
  const int dist_root = dist.root_bits();

  for (;;) {
    if (static_cast<std::size_t>(end - op) < kOutputSlack) {
      produced = static_cast<std::size_t>(op - base);
      ensure_room(out, produced, kOutputSlack);
      base = out.data();
      op = base + produced;
      end = base + out.size();
    }
    if (st.pos + 8 <= in_size) {
      st.acc |= load_le64(in + st.pos) << st.fill;
      st.pos += static_cast<std::size_t>((63 - st.fill) >> 3);
      st.fill |= 56;
    } else {
      while (st.fill <= 56 && st.pos < in_size) {
        st.acc |= static_cast<std::uint64_t>(in[st.pos++]) << st.fill;
        st.fill += 8;
      }
    }
    const std::uint32_t e = lookup(st, litlen_table, litlen_root);
    if ((e & (kLiteralEntry | kEndEntry)) != 0) {
      const auto code = static_cast<int>(e & 0xffu);
      st.acc >>= code;
      st.fill -= code;
      WAVESZ_REQUIRE(st.fill >= 0, "bitstream truncated");
      if ((e & kEndEntry) != 0) break;
      *op++ = static_cast<std::uint8_t>(e >> 16);
      continue;
    }
    WAVESZ_REQUIRE(e != 0, "invalid Huffman code in bitstream");
    const std::size_t length = take_value(st, e);
    const std::uint32_t de = lookup(st, dist_table, dist_root);
    WAVESZ_REQUIRE(de != 0, "invalid Huffman code in bitstream");
    const std::size_t distance = take_value(st, de);
    WAVESZ_REQUIRE(st.fill >= 0, "bitstream truncated");
    WAVESZ_REQUIRE(distance <= static_cast<std::size_t>(op - base),
                   "distance reaches before stream start");
    // Once the source trails by 8 or more, every 8-byte step reads bytes
    // already written. A shorter distance repeats its d-byte pattern: one
    // load (at most 7 bytes past the cursor, inside the slack) spread over
    // a word, stored once per whole number of periods.
    const std::uint8_t* const from = op - distance;
    if (distance >= 8) {
      copy8(op, from);
      copy8(op + 8, from + 8);
      for (std::size_t k = 16; k < length; k += 8) copy8(op + k, from + k);
    } else {
      const std::uint64_t word =
          (load_le64(from) & low_bits(8 * static_cast<int>(distance))) *
          kPatternRepeat[distance];
      const std::size_t stride = kPatternStride[distance];
      for (std::size_t k = 0; k < length; k += stride) {
        store_le64(op + k, word);
      }
    }
    op += length;
  }
  br.set_state(st);
  return static_cast<std::size_t>(op - base);
}

const CanonicalDecoder& fixed_litlen_decoder() {
  static const CanonicalDecoder d = [] {
    const auto ll = fixed_litlen_lengths();
    return entry_decoder(ll, kLitLenPayload);
  }();
  return d;
}

const CanonicalDecoder& fixed_dist_decoder() {
  static const CanonicalDecoder d = [] {
    const auto dd = fixed_dist_lengths();
    return entry_decoder(dd, kDistPayload);
  }();
  return d;
}

/// zlib's inflate_table rule for the codes a dynamic header sends: the
/// code must be complete, unless `lone_ok` and it holds exactly one code,
/// of length 1, or `empty_ok` and it holds none. An over-subscribed set
/// passes here; the table build rejects it.
void require_admitted(std::span<const std::uint8_t> lens, bool lone_ok,
                      bool empty_ok, const char* message) {
  std::uint32_t kraft = 0;  // in units of 2^-15; every length is <= 15
  std::size_t used = 0;
  for (const std::uint8_t l : lens) {
    if (l == 0) continue;
    ++used;
    kraft += 1u << (15 - l);
  }
  const bool admitted = kraft >= (1u << 15) || (empty_ok && used == 0) ||
                        (lone_ok && used == 1 && kraft == (1u << 14));
  WAVESZ_REQUIRE(admitted, message);
}

/// Shared block loop behind decompress() and decompress_prefix(): inflate
/// until the final block, or — when `min_output` is not SIZE_MAX — until at
/// least that many output bytes exist (checked between blocks, so the
/// result may overshoot by up to one block). `out` runs ahead of the
/// `produced` bytes decoded so far (ensure_room) and is trimmed to them at
/// the end.
PrefixResult inflate_blocks(std::span<const std::uint8_t> input,
                            std::size_t min_output) {
  BitReaderLSB br(input);
  PrefixResult run;
  std::vector<std::uint8_t>& out = run.bytes;
  std::size_t produced = 0;
  for (;;) {
    const bool final_block = br.bit() != 0;
    const std::uint32_t type = br.bits(2);
    if (type == 0b00) {
      br.align_byte();
      // Named temporaries: the two byte() calls are unsequenced inside a
      // single `|` expression, and their order decides which byte is low.
      const std::uint32_t len_lo = br.byte();
      const std::uint32_t len_hi = br.byte();
      const std::uint32_t len = len_lo | (len_hi << 8);
      const std::uint32_t nlen_lo = br.byte();
      const std::uint32_t nlen_hi = br.byte();
      const std::uint32_t nlen = nlen_lo | (nlen_hi << 8);
      WAVESZ_REQUIRE((len ^ 0xffffu) == nlen, "stored block LEN/NLEN mismatch");
      ensure_room(out, produced, len);
      br.read_bytes(out.data() + produced, len);
      produced += len;
    } else if (type == 0b01) {
      produced = inflate_block(br, fixed_litlen_decoder(), fixed_dist_decoder(),
                               out, produced);
    } else if (type == 0b10) {
      const std::uint32_t hlit = br.bits(5) + 257;
      const std::uint32_t hdist = br.bits(5) + 1;
      const std::uint32_t hclen = br.bits(4) + 4;
      WAVESZ_REQUIRE(hlit <= kMaxHlit && hdist <= kNumDist,
                     "dynamic header counts out of range");
      std::array<std::uint8_t, kNumClc> clc_lens{};
      for (std::uint32_t i = 0; i < hclen; ++i) {
        clc_lens[kClcOrder[i]] = static_cast<std::uint8_t>(br.bits(3));
      }
      require_admitted(clc_lens, false, false, "incomplete code-length code");
      const CanonicalDecoder clc(clc_lens, BitOrder::LsbFirst);
      const auto all = read_dynamic_lengths(br, clc, hlit + hdist);
      const std::span<const std::uint8_t> ll(all.data(), hlit);
      const std::span<const std::uint8_t> dd(all.data() + hlit, hdist);
      WAVESZ_REQUIRE(ll[kEndOfBlock] > 0, "no end-of-block code");
      require_admitted(ll, true, false, "incomplete literal/length code");
      require_admitted(dd, true, true, "incomplete distance code");
      produced = inflate_block(br, entry_decoder(ll, kLitLenPayload),
                               entry_decoder(dd, kDistPayload), out,
                               produced);
    } else {
      throw Error("reserved DEFLATE block type");
    }
    if (final_block) {
      run.complete = true;
      break;
    }
    if (produced >= min_output) break;
  }
  out.resize(produced);
  run.compressed_consumed = br.consumed();
  return run;
}

constexpr std::size_t kGzipHeaderBytes = 10;
constexpr std::size_t kGzipTrailerBytes = 8;

/// The DEFLATE body of a gzip member, after checking its fixed header.
std::span<const std::uint8_t> gzip_body(std::span<const std::uint8_t> input) {
  WAVESZ_REQUIRE(input.size() >= kGzipHeaderBytes + kGzipTrailerBytes,
                 "gzip member too short");
  ByteReader r(input);
  WAVESZ_REQUIRE(r.u8() == 0x1f && r.u8() == 0x8b, "bad gzip magic");
  WAVESZ_REQUIRE(r.u8() == 8, "unsupported gzip compression method");
  const std::uint8_t flg = r.u8();
  WAVESZ_REQUIRE(flg == 0, "gzip optional header fields not supported");
  (void)r.u32();  // MTIME
  (void)r.u8();   // XFL
  (void)r.u8();   // OS
  return input.subspan(kGzipHeaderBytes,
                       input.size() - kGzipHeaderBytes - kGzipTrailerBytes);
}

/// Check a complete inflate of the member's body against its trailer: the
/// DEFLATE stream must end exactly where the trailer starts, and the
/// CRC-32 and ISIZE must match the decoded bytes.
void verify_gzip_trailer(std::span<const std::uint8_t> input,
                         const PrefixResult& run) {
  WAVESZ_REQUIRE(run.compressed_consumed ==
                     input.size() - kGzipHeaderBytes - kGzipTrailerBytes,
                 "gzip member has bytes between its DEFLATE stream and "
                 "trailer");
  ByteReader tail(input.subspan(input.size() - kGzipTrailerBytes));
  const std::uint32_t crc = tail.u32();
  const std::uint32_t isize = tail.u32();
  std::uint32_t actual_crc;
  {
    telemetry::Span span(telemetry::spans::kCrc32);
    telemetry::counter_add(telemetry::Counter::CrcBytes, run.bytes.size());
    actual_crc = Crc32::of(run.bytes);
  }
  WAVESZ_REQUIRE(crc == actual_crc, "gzip CRC mismatch");
  WAVESZ_REQUIRE(isize == static_cast<std::uint32_t>(run.bytes.size()),
                 "gzip ISIZE mismatch");
}

}  // namespace

std::vector<std::uint8_t> decompress(std::span<const std::uint8_t> input) {
  return inflate_blocks(input, static_cast<std::size_t>(-1)).bytes;
}

PrefixResult decompress_prefix(std::span<const std::uint8_t> input,
                               std::size_t min_output_bytes) {
  return inflate_blocks(input, min_output_bytes);
}

std::vector<std::uint8_t> gzip_compress(std::span<const std::uint8_t> input,
                                        Level level) {
  return detail::gzip_member(input, level, compress(input, level));
}

std::vector<std::uint8_t> gzip_decompress(
    std::span<const std::uint8_t> input) {
  PrefixResult run =
      inflate_blocks(gzip_body(input), static_cast<std::size_t>(-1));
  verify_gzip_trailer(input, run);
  return std::move(run.bytes);
}

PrefixResult gzip_decompress_prefix(std::span<const std::uint8_t> input,
                                    std::size_t min_output_bytes) {
  telemetry::Span span(telemetry::spans::kInflatePrefix);
  PrefixResult run = inflate_blocks(gzip_body(input), min_output_bytes);
  if (run.complete) {
    // The whole stream came out anyway; verify the trailer as a full
    // decode would. An early stop leaves the trailer unverified by design
    // — it covers bytes that were deliberately never produced.
    verify_gzip_trailer(input, run);
    run.compressed_consumed = input.size();
  } else {
    run.compressed_consumed += kGzipHeaderBytes;
  }
  return run;
}

}  // namespace wavesz::deflate
