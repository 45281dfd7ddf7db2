// Canonical, length-limited Huffman code machinery.
//
// Shared by the DEFLATE substrate (lit/len, distance and code-length
// alphabets, limits 15/15/7) and by SZ's customized Huffman coder over
// 16-bit quantization symbols (limit 24). Lengths are produced by a heap
// Huffman build followed by the classic zlib-style overflow fix, which keeps
// the Kraft sum exactly 1; codes are assigned canonically per RFC 1951.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace wavesz {

/// Code lengths (0 = symbol unused) for the given frequencies, with every
/// used symbol's length in [1, max_length]. A single used symbol gets
/// length 1. Deterministic for fixed input.
std::vector<std::uint8_t> huffman_code_lengths(
    std::span<const std::uint64_t> freqs, int max_length);

/// Canonical code values per RFC 1951 (shorter codes numerically first;
/// ties broken by symbol order). codes[i] is meaningful iff lengths[i] > 0.
std::vector<std::uint32_t> canonical_codes(
    std::span<const std::uint8_t> lengths);

/// Verify sum over used symbols of 2^-length == 1 (complete code) or the
/// degenerate single-symbol case. Returns false for over-subscribed sets.
bool kraft_complete(std::span<const std::uint8_t> lengths);

/// Process-wide decode-path selection shared by the DEFLATE inflater and
/// SZ's Huffman codec: when true, the bit-at-a-time reference decoders run
/// instead of the table-driven fast paths. Latched from the
/// WAVESZ_REFERENCE_DECODE environment variable on first query (any value
/// other than "0" enables it); set_reference_decode() overrides it at
/// runtime (benches time both paths, tests pin one). Outputs are identical
/// either way — the knob exists for debugging and differential testing.
bool reference_decode_enabled();
void set_reference_decode(bool on);

/// Orientation of the bits fed to a decoder. Canonical codes are defined
/// MSB-of-code first; DEFLATE packs them into an LSB-first bit stream, so
/// its readers surface the next code bit in bit 0 rather than on top.
/// The flat lookup table must be indexed in the same orientation.
enum class BitOrder : std::uint8_t {
  MsbFirst,  ///< peek(n) has the first stream bit as the MSB (BitReaderMSB)
  LsbFirst,  ///< peek(n) has the first stream bit as the LSB (BitReaderLSB)
};

/// Canonical decoder with two decode paths:
///  * decode(next_bit)        — O(length) per symbol via first-code tables;
///                              the reference oracle, kept bit-for-bit.
///  * decode_fast(peek, consume) — one or two flat table lookups per symbol
///                              (zlib-style two-level scheme: a root table
///                              over the next kRootBits bits, subtables for
///                              longer codes). msb_table().lookup(acc) is
///                              the same walk over an MSB-first 64-bit bit
///                              buffer held in the caller's locals.
class CanonicalDecoder {
 public:
  explicit CanonicalDecoder(std::span<const std::uint8_t> lengths,
                            BitOrder order = BitOrder::MsbFirst);

  /// Decode one symbol; `next_bit` is a callable returning 0/1.
  template <typename NextBit>
  std::uint32_t decode(NextBit&& next_bit) const {
    std::uint32_t acc = 0;
    for (std::size_t len = 1; len <= static_cast<std::size_t>(max_len_);
         ++len) {
      acc = (acc << 1) | (next_bit() & 1u);
      const std::uint32_t offset = acc - first_code_[len];
      if (acc >= first_code_[len] && offset < count_[len]) {
        return sorted_symbols_[first_index_[len] + offset];
      }
    }
    throw_bad_code();
  }

  /// True when the flat table was built. It is skipped for empty codes, for
  /// over-subscribed length sets (whose canonical "codes" overflow their
  /// own bit width), and for forged tables whose subtables would exceed
  /// kMaxTableEntries — callers fall back to decode() in those cases.
  bool has_fast_table() const { return !table_.empty(); }

  /// Decode one symbol via the flat table. `peek(n)` must return the next
  /// `n` stream bits in this decoder's BitOrder, zero-padded past the end
  /// of the stream; `consume(n)` advances by `n` bits and is where a
  /// truncated stream must raise wavesz::Error. Requires has_fast_table().
  template <typename Peek, typename Consume>
  std::uint32_t decode_fast(Peek&& peek, Consume&& consume) const {
    std::uint32_t e = table_[peek(root_bits_)];
    if ((e & 0xffu) >= kLinkControl) {
      consume(root_bits_);
      e = table_[(e >> 8) + peek(static_cast<int>((e & 0xffu) - kLinkControl))];
    }
    if (e == 0) throw_bad_code();
    consume(static_cast<int>(e & 0xffu));
    return e >> 8;
  }

  /// The flat table's base and root width by value, so that a decode loop
  /// keeping its MSB-first bit buffer in locals (the H⋆ fast path) holds
  /// them in registers too.
  struct MsbTable {
    const std::uint32_t* table;
    int root;

    /// The entry for the code at the top of `acc`, whose bit 63 is the next
    /// stream bit (BitReaderMSB::State), with the code's whole length in
    /// the control byte; 0 when no code reaches it. Consumes nothing.
    [[gnu::always_inline]] std::uint32_t lookup(std::uint64_t acc) const {
      const std::uint32_t e = table[acc >> (64 - root)];
      if ((e & 0xffu) < kLinkControl) return e;
      const auto sub = static_cast<int>((e & 0xffu) - kLinkControl);
      const std::uint32_t tail =
          table[(e >> 8) + ((acc << root) >> (64 - sub))];
      // A subtable length excludes the root bits; codes stay below 32 bits,
      // so adding them back cannot carry out of the control byte.
      return tail == 0 ? 0 : tail + static_cast<std::uint32_t>(root);
    }
  };
  /// Requires an MsbFirst decoder with has_fast_table().
  MsbTable msb_table() const { return {table_.data(), root_bits_}; }

  int max_length() const { return max_len_; }
  int root_bits() const { return root_bits_; }
  bool empty() const { return sorted_symbols_.empty(); }

  /// The flat table itself, for a decode loop that keeps its bit buffer in
  /// locals (the inflate fast path). Empty unless has_fast_table().
  std::span<const std::uint32_t> table() const { return table_; }

  // Flat table entry layout (std::uint32_t): `(payload << 8) | control`.
  // The control byte disambiguates — code lengths never exceed 31, so
  // values >= kLinkControl cannot be lengths:
  //   control 0                — invalid (no code reaches this slot)
  //   control 1..31            — direct: consume `control` bits, emit the
  //                              symbol in `payload`; in a subtable
  //                              `control` excludes the root_bits_ already
  //                              consumed by the link hop
  //   control kLinkControl+b   — root slot shared by codes longer than
  //                              root_bits_: consume the root bits, then
  //                              index the subtable at offset `payload`
  //                              with the next `b` bits
  static constexpr std::uint32_t kLinkControl = 32;

 private:
  [[noreturn]] static void throw_bad_code();

  void build_fast_table(std::span<const std::uint8_t> lengths,
                        BitOrder order);

  int max_len_ = 0;
  int root_bits_ = 0;
  std::vector<std::uint32_t> first_code_;
  std::vector<std::uint32_t> count_;
  std::vector<std::uint32_t> first_index_;
  std::vector<std::uint32_t> sorted_symbols_;
  std::vector<std::uint32_t> table_;
};

}  // namespace wavesz
