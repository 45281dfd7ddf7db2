// Canonical, length-limited Huffman code machinery.
//
// Shared by the DEFLATE substrate (lit/len, distance and code-length
// alphabets, limits 15/15/7) and by SZ's customized Huffman coder over
// 16-bit quantization symbols (limit 24). Lengths come from package-merge
// (Larmore & Hirschberg), optimal under the length limit with a Kraft sum
// of exactly 1; codes are assigned canonically per RFC 1951.
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

/// Orientation of the bits fed to a decoder. Canonical codes are defined
/// MSB-of-code first; DEFLATE packs them into an LSB-first bit stream, so
/// its readers surface the next code bit in bit 0 rather than on top.
/// The flat lookup table must be indexed in the same orientation.
enum class BitOrder : std::uint8_t {
  MsbFirst,  ///< peek(n) has the first stream bit as the MSB (BitReaderMSB)
  LsbFirst,  ///< peek(n) has the first stream bit as the LSB (BitReaderLSB)
};

/// Canonical decoder over a flat lookup table (zlib-style two-level
/// scheme: a root table over the next root_bits() bits, subtables for
/// longer codes). decode_fast(peek, consume) takes one or two probes per
/// symbol; msb_table().lookup(acc) is the same walk over an MSB-first
/// 64-bit bit buffer held in the caller's locals, and table() hands the
/// entries to a decode loop that keeps an LSB-first buffer in locals.
class CanonicalDecoder {
 public:
  /// Build the table for `lengths` (0 = symbol unused, else 1..24 bits).
  /// Throws wavesz::Error when the lengths are over-subscribed (their
  /// Kraft sum exceeds 1), as zlib's inflate_table does; incomplete codes
  /// are accepted, and the slots no code reaches decode as invalid. An
  /// empty code gets a 1-bit root of invalid slots, so every decode of it
  /// throws. With a `payload` (one value below 2^24 per length), a code's
  /// entries carry payload[s] in place of its symbol s, so a decode loop
  /// reads what it needs from the entry itself; a symbol whose payload is
  /// 0 keeps its code, and its slots decode as invalid.
  explicit CanonicalDecoder(std::span<const std::uint8_t> lengths,
                            BitOrder order = BitOrder::MsbFirst,
                            std::span<const std::uint32_t> payload = {});

  /// Decode one symbol via the flat table. `peek(n)` must return the next
  /// `n` stream bits in this decoder's BitOrder, zero-padded past the end
  /// of the stream; `consume(n)` advances by `n` bits and is where a
  /// truncated stream must raise wavesz::Error.
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
  /// keeping its MSB-first bit buffer in locals (the H⋆ decode loop) holds
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
      // A subtable length excludes the root bits; codes stay below 25 bits,
      // so adding them back cannot carry out of the control byte.
      return tail == 0 ? 0 : tail + static_cast<std::uint32_t>(root);
    }
  };
  /// Requires an MsbFirst decoder.
  MsbTable msb_table() const { return {table_.data(), root_bits_}; }

  int root_bits() const { return root_bits_; }

  /// The flat table itself, for a decode loop that keeps its bit buffer in
  /// locals (the inflate loop).
  std::span<const std::uint32_t> table() const { return table_; }

  // Flat table entry layout (std::uint32_t): `(payload << 8) | control`.
  // The control byte disambiguates — code lengths never exceed 24, so
  // values >= kLinkControl cannot be lengths:
  //   control 0                — invalid (no code reaches this slot)
  //   control 1..24            — direct: consume `control` bits, emit the
  //                              symbol (or its constructor payload) in
  //                              `payload`; in a subtable
  //                              `control` excludes the root_bits_ already
  //                              consumed by the link hop
  //   control kLinkControl+b   — root slot shared by codes longer than
  //                              root_bits_: consume the root bits, then
  //                              index the subtable at offset `payload`
  //                              with the next `b` bits
  static constexpr std::uint32_t kLinkControl = 32;

 private:
  [[noreturn]] static void throw_bad_code();

  int root_bits_ = 0;
  std::vector<std::uint32_t> table_;
};

}  // namespace wavesz
