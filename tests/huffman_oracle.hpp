// The bit-at-a-time canonical Huffman decoders that the flat tables of
// util/huffman.hpp replaced: one code bit per step against the first code
// of each length, the H* blob framing parsed on its own, and index-chunk
// runs over the same walk. Kept only as the oracle that the differential
// tests, fuzzers and bench rows compare the production decoders with: the
// same symbols, and the same verdict on every input. Beside them, the
// package-merge build that kept every level's nodes and expanded the
// selected packages on a stack: the production build must give the same
// code lengths.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "util/bitio.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace wavesz::oracle {

/// Canonical decoder walking one bit per step. Admits the length sets
/// CanonicalDecoder admits: over-subscribed ones (Kraft sum above 1) throw
/// wavesz::Error; an incomplete or empty code decodes until the walk falls
/// off every code, then throws.
class CanonicalWalk {
 public:
  explicit CanonicalWalk(std::span<const std::uint8_t> lengths) {
    std::uint64_t kraft = 0;  // in units of 2^-32
    for (const std::uint8_t l : lengths) {
      if (l == 0) continue;
      WAVESZ_REQUIRE(l <= 24, "Huffman code length above 24");
      kraft += std::uint64_t{1} << (32 - l);
      if (l > max_len_) max_len_ = l;
    }
    WAVESZ_REQUIRE(kraft <= (std::uint64_t{1} << 32),
                   "over-subscribed Huffman code");
    const auto levels = static_cast<std::size_t>(max_len_) + 1;
    first_code_.assign(levels, 0);
    count_.assign(levels, 0);
    first_index_.assign(levels, 0);
    for (const std::uint8_t l : lengths) {
      if (l > 0) ++count_[l];
    }
    std::uint32_t code = 0, index = 0;
    for (std::size_t len = 1; len < levels; ++len) {
      code = (code + count_[len - 1]) << 1;
      first_code_[len] = code;
      first_index_[len] = index;
      index += count_[len];
    }
    symbols_.resize(index);
    std::vector<std::uint32_t> next(first_index_);
    for (std::size_t s = 0; s < lengths.size(); ++s) {
      if (lengths[s] > 0) {
        symbols_[next[lengths[s]]++] = static_cast<std::uint32_t>(s);
      }
    }
  }

  /// Decode one symbol; `next_bit` returns the next code bit (0/1).
  template <typename NextBit>
  std::uint32_t decode(NextBit&& next_bit) const {
    std::uint32_t acc = 0;
    for (std::size_t len = 1; len <= static_cast<std::size_t>(max_len_);
         ++len) {
      acc = (acc << 1) | (next_bit() & 1u);
      const std::uint32_t offset = acc - first_code_[len];
      if (acc >= first_code_[len] && offset < count_[len]) {
        return symbols_[first_index_[len] + offset];
      }
    }
    throw Error("invalid Huffman code in bitstream");
  }

 private:
  int max_len_ = 0;
  std::vector<std::uint32_t> first_code_;
  std::vector<std::uint32_t> count_;
  std::vector<std::uint32_t> first_index_;
  std::vector<std::uint32_t> symbols_;  ///< used symbols, canonical order
};

/// Decode `n` symbols into `dst` from absolute bit `start_bit` of an H*
/// payload; returns the bit position after the last one. Index chunks run
/// through this from their recorded start bits.
inline std::uint64_t huffman_run(const CanonicalWalk& walk,
                                 std::span<const std::uint8_t> payload,
                                 std::uint64_t start_bit, std::uint16_t* dst,
                                 std::uint64_t n) {
  BitReaderMSB br(payload, start_bit);
  for (std::uint64_t i = 0; i < n; ++i) {
    dst[i] = static_cast<std::uint16_t>(walk.decode([&] { return br.bit(); }));
  }
  return br.position();
}

/// An H* blob, [u32 distinct][u64 count][(u16 sym, u8 len)...]
/// [u64 payload bits][payload bytes], framed and checked as
/// sz::huffman_decode() checks it.
struct HuffmanBlob {
  std::vector<std::uint8_t> lengths;  ///< 65,536 entries
  std::uint64_t count = 0;
  std::uint32_t distinct = 0;
  std::uint64_t payload_bits = 0;
  std::span<const std::uint8_t> payload;
};

inline HuffmanBlob parse_huffman_blob(std::span<const std::uint8_t> blob) {
  ByteReader r(blob);
  HuffmanBlob b;
  b.distinct = r.u32();
  b.count = r.u64();
  b.lengths.assign(65536, 0);
  std::uint64_t kraft = 0;  // in units of 2^-24
  for (std::uint32_t i = 0; i < b.distinct; ++i) {
    const std::uint16_t sym = r.u16();
    const std::uint8_t len = r.u8();
    WAVESZ_REQUIRE(len >= 1 && len <= 24, "invalid code length");
    WAVESZ_REQUIRE(b.lengths[sym] == 0, "duplicate symbol");
    b.lengths[sym] = len;
    kraft += std::uint64_t{1} << (24 - len);
  }
  WAVESZ_REQUIRE(b.distinct <= 1 || kraft == (std::uint64_t{1} << 24),
                 "incomplete or over-subscribed code");
  WAVESZ_REQUIRE(b.distinct > 0 || b.count == 0, "symbols without a code");
  b.payload_bits = r.u64();
  WAVESZ_REQUIRE(b.payload_bits / 8 <= r.remaining(), "payload overruns blob");
  b.payload = r.bytes((b.payload_bits + 7) / 8);
  WAVESZ_REQUIRE(b.count == 0 || b.count <= b.payload_bits,
                 "count exceeds payload");
  return b;
}

/// The symbols of an H* blob, one bit per walk step.
inline std::vector<std::uint16_t> huffman_decode(
    std::span<const std::uint8_t> blob) {
  const HuffmanBlob b = parse_huffman_blob(blob);
  if (b.count == 0) return {};
  if (b.distinct == 1) {
    WAVESZ_REQUIRE(b.payload_bits == b.count, "payload size mismatch");
    std::uint16_t only = 0;
    for (std::size_t s = 0; s < b.lengths.size(); ++s) {
      if (b.lengths[s] > 0) only = static_cast<std::uint16_t>(s);
    }
    return std::vector<std::uint16_t>(b.count, only);
  }
  std::vector<std::uint16_t> out(b.count);
  WAVESZ_REQUIRE(huffman_run(CanonicalWalk(b.lengths), b.payload, 0,
                             out.data(), b.count) == b.payload_bits,
                 "trailing payload bits");
  return out;
}

/// Package-merge over explicit node lists: every level holds its leaves
/// and packages as nodes, and the 2n - 2 entries selected from the last
/// level are expanded back to their leaves on a stack.
inline std::vector<std::uint8_t> huffman_code_lengths(
    std::span<const std::uint64_t> freqs, int max_length) {
  struct Node {
    std::uint64_t weight;
    std::int32_t symbol;     // >= 0 for leaves
    std::int32_t left = -1;  // package children: indices into prev level
    std::int32_t right = -1;
  };
  WAVESZ_REQUIRE(max_length >= 1 && max_length <= 31,
                 "max code length out of range");
  const std::size_t n = freqs.size();
  std::vector<std::uint8_t> lengths(n, 0);
  std::vector<Node> leaves;
  for (std::size_t s = 0; s < n; ++s) {
    if (freqs[s] > 0) {
      leaves.push_back(Node{freqs[s], static_cast<std::int32_t>(s)});
    }
  }
  if (leaves.empty()) return lengths;
  if (leaves.size() == 1) {
    lengths[static_cast<std::size_t>(leaves[0].symbol)] = 1;
    return lengths;
  }
  WAVESZ_REQUIRE(static_cast<std::uint64_t>(leaves.size()) <=
                     (1ull << max_length),
                 "alphabet too large for requested code-length limit");
  std::sort(leaves.begin(), leaves.end(), [](const Node& a, const Node& b) {
    if (a.weight != b.weight) return a.weight < b.weight;
    return a.symbol < b.symbol;
  });
  std::vector<std::vector<Node>> levels;
  levels.push_back(leaves);
  for (int level = 1; level < max_length; ++level) {
    const auto& prev = levels.back();
    std::vector<Node> packages;
    for (std::size_t i = 0; i + 1 < prev.size(); i += 2) {
      packages.push_back(Node{prev[i].weight + prev[i + 1].weight, -1,
                              static_cast<std::int32_t>(i),
                              static_cast<std::int32_t>(i + 1)});
    }
    std::vector<Node> merged;
    std::merge(leaves.begin(), leaves.end(), packages.begin(),
               packages.end(), std::back_inserter(merged),
               [](const Node& a, const Node& b) {
                 // Leaves before packages on weight ties.
                 if (a.weight != b.weight) return a.weight < b.weight;
                 return (a.symbol >= 0) > (b.symbol >= 0);
               });
    levels.push_back(std::move(merged));
  }
  std::vector<std::pair<int, std::int32_t>> stack;
  const std::size_t take = 2 * leaves.size() - 2;
  WAVESZ_REQUIRE(levels.back().size() >= take,
                 "package-merge produced too few entries");
  for (std::size_t i = 0; i < take; ++i) {
    stack.emplace_back(static_cast<int>(levels.size()) - 1,
                       static_cast<std::int32_t>(i));
  }
  while (!stack.empty()) {
    const auto [level, idx] = stack.back();
    stack.pop_back();
    const Node& node =
        levels[static_cast<std::size_t>(level)][static_cast<std::size_t>(idx)];
    if (node.symbol >= 0) {
      ++lengths[static_cast<std::size_t>(node.symbol)];
    } else {
      stack.emplace_back(level - 1, node.left);
      stack.emplace_back(level - 1, node.right);
    }
  }
  return lengths;
}

}  // namespace wavesz::oracle
