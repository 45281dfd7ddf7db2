#include "util/huffman.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "util/error.hpp"

namespace wavesz {
namespace {

/// Entry in a package-merge list: either a leaf (symbol index) or a package
/// of two entries from the previous level.
struct PmNode {
  std::uint64_t weight;
  std::int32_t symbol;         // >= 0 for leaves
  std::int32_t left = -1;      // package children: indices into prev level
  std::int32_t right = -1;
};

/// Width of the root lookup table: codes this short resolve in one probe.
/// 10 covers every hot symbol of both alphabets (DEFLATE codes cap at 15;
/// SZ's quantization codes are sharply peaked, so the frequent ones are
/// short) while keeping the root table at 4 KiB.
constexpr int kRootBits = 10;

/// Hard cap on root + subtable entries (4 MiB of std::uint32_t). Real
/// tables stay far below this — a uniform 65,536-symbol code needs ~66K
/// entries — but a forged (symbol, length) header can demand a deep
/// subtable under every root prefix; refusing to build simply drops that
/// blob onto the reference decoder, which is O(length) and allocates
/// nothing per symbol.
constexpr std::size_t kMaxTableEntries = 1u << 20;

std::uint32_t reverse_code_bits(std::uint32_t code, int len) {
  std::uint32_t out = 0;
  for (int i = 0; i < len; ++i) out = (out << 1) | ((code >> i) & 1u);
  return out;
}

std::atomic<int> g_reference_decode{-1};  // -1 = env not read yet

}  // namespace

bool reference_decode_enabled() {
  int v = g_reference_decode.load(std::memory_order_relaxed);
  if (v < 0) {
    const char* env = std::getenv("WAVESZ_REFERENCE_DECODE");
    v = (env != nullptr && env[0] != '\0' && env[0] != '0') ? 1 : 0;
    g_reference_decode.store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

void set_reference_decode(bool on) {
  g_reference_decode.store(on ? 1 : 0, std::memory_order_relaxed);
}

std::vector<std::uint8_t> huffman_code_lengths(
    std::span<const std::uint64_t> freqs, int max_length) {
  WAVESZ_REQUIRE(max_length >= 1 && max_length <= 31,
                 "max code length out of range");
  const std::size_t n = freqs.size();
  std::vector<std::uint8_t> lengths(n, 0);

  // Leaves sorted by (weight, symbol) — deterministic.
  std::vector<PmNode> leaves;
  for (std::size_t s = 0; s < n; ++s) {
    if (freqs[s] > 0) {
      leaves.push_back(PmNode{freqs[s], static_cast<std::int32_t>(s)});
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
  std::sort(leaves.begin(), leaves.end(), [](const PmNode& a,
                                             const PmNode& b) {
    if (a.weight != b.weight) return a.weight < b.weight;
    return a.symbol < b.symbol;
  });

  // Package-merge (Larmore & Hirschberg): build L levels of sorted lists,
  // each level = leaves merged with pairwise packages of the previous level.
  // Selecting the cheapest 2n-2 entries of the last level yields optimal,
  // Kraft-complete code lengths bounded by max_length.
  std::vector<std::vector<PmNode>> levels;
  levels.reserve(static_cast<std::size_t>(max_length));
  levels.push_back(leaves);
  for (int level = 1; level < max_length; ++level) {
    const auto& prev = levels.back();
    std::vector<PmNode> packages;
    packages.reserve(prev.size() / 2);
    for (std::size_t i = 0; i + 1 < prev.size(); i += 2) {
      packages.push_back(PmNode{prev[i].weight + prev[i + 1].weight, -1,
                                static_cast<std::int32_t>(i),
                                static_cast<std::int32_t>(i + 1)});
    }
    std::vector<PmNode> merged;
    merged.reserve(leaves.size() + packages.size());
    std::merge(leaves.begin(), leaves.end(), packages.begin(), packages.end(),
               std::back_inserter(merged),
               [](const PmNode& a, const PmNode& b) {
                 // Leaves before packages on weight ties keeps the tree flat.
                 if (a.weight != b.weight) return a.weight < b.weight;
                 return (a.symbol >= 0) > (b.symbol >= 0);
               });
    levels.push_back(std::move(merged));
  }

  // Count, per symbol, in how many selected entries it participates.
  // Iterative expansion: a work item is (level, index).
  std::vector<std::pair<int, std::int32_t>> stack;
  const std::size_t take = 2 * leaves.size() - 2;
  WAVESZ_ASSERT(levels.back().size() >= take,
                "package-merge produced too few entries");
  for (std::size_t i = 0; i < take; ++i) {
    stack.emplace_back(static_cast<int>(levels.size()) - 1,
                       static_cast<std::int32_t>(i));
  }
  while (!stack.empty()) {
    const auto [level, idx] = stack.back();
    stack.pop_back();
    const PmNode& node =
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

std::vector<std::uint32_t> canonical_codes(
    std::span<const std::uint8_t> lengths) {
  int max_len = 0;
  for (auto l : lengths) max_len = std::max(max_len, static_cast<int>(l));
  std::vector<std::uint32_t> bl_count(static_cast<std::size_t>(max_len) + 1,
                                      0);
  for (auto l : lengths) {
    if (l > 0) ++bl_count[l];
  }
  std::vector<std::uint32_t> next_code(static_cast<std::size_t>(max_len) + 1,
                                       0);
  std::uint32_t code = 0;
  for (int bits = 1; bits <= max_len; ++bits) {
    code = (code + bl_count[static_cast<std::size_t>(bits) - 1]) << 1;
    next_code[static_cast<std::size_t>(bits)] = code;
  }
  std::vector<std::uint32_t> codes(lengths.size(), 0);
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s] > 0) codes[s] = next_code[lengths[s]]++;
  }
  return codes;
}

bool kraft_complete(std::span<const std::uint8_t> lengths) {
  // Sum of 2^(32-len) over used symbols must equal 2^32 exactly.
  std::uint64_t sum = 0;
  std::size_t used = 0;
  for (auto l : lengths) {
    if (l == 0) continue;
    ++used;
    sum += 1ull << (32 - l);
  }
  if (used == 0) return true;
  if (used == 1) return true;  // degenerate 1-bit code
  return sum == (1ull << 32);
}

CanonicalDecoder::CanonicalDecoder(std::span<const std::uint8_t> lengths,
                                   BitOrder order) {
  // One pass over the length table collects the used symbols; the counts,
  // the canonical order and the flat table run over them alone, which
  // matters for the 65,536-entry H⋆ alphabet of which a few hundred are
  // used.
  std::vector<std::uint32_t> used;
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s] == 0) continue;
    used.push_back(static_cast<std::uint32_t>(s));
    max_len_ = std::max(max_len_, static_cast<int>(lengths[s]));
  }
  first_code_.assign(static_cast<std::size_t>(max_len_) + 1, 0);
  count_.assign(static_cast<std::size_t>(max_len_) + 1, 0);
  first_index_.assign(static_cast<std::size_t>(max_len_) + 1, 0);
  for (const std::uint32_t s : used) ++count_[lengths[s]];
  std::uint32_t code = 0, index = 0;
  for (int len = 1; len <= max_len_; ++len) {
    code = (code + (len > 1 ? count_[static_cast<std::size_t>(len) - 1] : 0))
           << 1;
    first_code_[static_cast<std::size_t>(len)] = code;
    first_index_[static_cast<std::size_t>(len)] = index;
    index += count_[static_cast<std::size_t>(len)];
  }
  sorted_symbols_.resize(index);
  std::vector<std::uint32_t> next(first_index_);
  for (const std::uint32_t s : used) sorted_symbols_[next[lengths[s]]++] = s;
  build_fast_table(lengths, order);
}

void CanonicalDecoder::build_fast_table(std::span<const std::uint8_t> lengths,
                                        BitOrder order) {
  if (max_len_ == 0 || max_len_ > 31) return;
  root_bits_ = std::min(max_len_, kRootBits);
  const std::size_t root_size = std::size_t{1} << root_bits_;
  // The used symbols in canonical order: sorted_symbols_[k] has length
  // len and code first_code_[len] + (k - first_index_[len]), the values
  // canonical_codes() assigns.
  const auto code_of = [this](std::size_t k, int len) {
    const auto l = static_cast<std::size_t>(len);
    return first_code_[l] + static_cast<std::uint32_t>(k - first_index_[l]);
  };

  // Pass 1: per-root-prefix subtable width (the longest tail under that
  // prefix), plus the over-subscription guard — an over-full length set
  // makes the canonical codes overflow some code past its own width, which
  // would index out of the table. Such streams stay on the reference
  // decoder, which walks them memory-safely and throws on the first gap.
  std::vector<std::uint8_t> sub_bits(root_size, 0);
  std::size_t total = root_size;
  for (std::size_t k = 0; k < sorted_symbols_.size(); ++k) {
    const int len = lengths[sorted_symbols_[k]];
    const std::uint32_t code = code_of(k, len);
    if ((code >> len) != 0) return;  // over-subscribed
    if (len > root_bits_) {
      const std::uint32_t c = order == BitOrder::MsbFirst
                                  ? code
                                  : reverse_code_bits(code, len);
      const std::uint32_t prefix =
          order == BitOrder::MsbFirst
              ? c >> (len - root_bits_)
              : c & static_cast<std::uint32_t>(root_size - 1);
      const auto rem = static_cast<std::uint8_t>(len - root_bits_);
      if (rem > sub_bits[prefix]) {
        total += (std::size_t{1} << rem) -
                 (sub_bits[prefix] ? std::size_t{1} << sub_bits[prefix] : 0);
        sub_bits[prefix] = rem;
      }
      if (total > kMaxTableEntries) return;  // forged header: fall back
    }
  }

  // Pass 2: lay out the subtables and drop a link into each root slot.
  table_.assign(total, 0);
  std::vector<std::uint32_t> sub_base(root_size, 0);
  std::uint32_t next = static_cast<std::uint32_t>(root_size);
  for (std::size_t p = 0; p < root_size; ++p) {
    if (sub_bits[p] == 0) continue;
    sub_base[p] = next;
    table_[p] = (next << 8) | (kLinkControl + sub_bits[p]);
    next += 1u << sub_bits[p];
  }

  // Pass 3: fill. A code of length len <= root_bits_ owns every root slot
  // that starts with it: in MSB orientation those are the 2^(root-len)
  // consecutive slots after padding the code on the right; in LSB
  // orientation (DEFLATE) the code occupies the *low* bits of the index,
  // so its slots stride by 2^len. Longer codes fill their subtable the
  // same way with the tail bits.
  for (std::size_t k = 0; k < sorted_symbols_.size(); ++k) {
    const std::uint32_t s = sorted_symbols_[k];
    const int len = lengths[s];
    const std::uint32_t code = code_of(k, len);
    const std::uint32_t c = order == BitOrder::MsbFirst
                                ? code
                                : reverse_code_bits(code, len);
    if (len <= root_bits_) {
      const std::uint32_t e = (s << 8) | static_cast<std::uint32_t>(len);
      if (order == BitOrder::MsbFirst) {
        const int pad = root_bits_ - len;
        const std::uint32_t base = c << pad;
        for (std::uint32_t j = 0; j < (1u << pad); ++j) table_[base + j] = e;
      } else {
        for (std::uint32_t idx = c; idx < root_size; idx += 1u << len) {
          table_[idx] = e;
        }
      }
    } else {
      const int rem = len - root_bits_;
      std::uint32_t prefix, tail;
      if (order == BitOrder::MsbFirst) {
        prefix = c >> rem;
        tail = c & ((1u << rem) - 1u);
      } else {
        prefix = c & static_cast<std::uint32_t>(root_size - 1);
        tail = c >> root_bits_;
      }
      const int sb = sub_bits[prefix];
      const std::uint32_t e = (s << 8) | static_cast<std::uint32_t>(rem);
      if (order == BitOrder::MsbFirst) {
        const int pad = sb - rem;
        const std::uint32_t base = sub_base[prefix] + (tail << pad);
        for (std::uint32_t j = 0; j < (1u << pad); ++j) table_[base + j] = e;
      } else {
        for (std::uint32_t idx = tail; idx < (1u << sb); idx += 1u << rem) {
          table_[sub_base[prefix] + idx] = e;
        }
      }
    }
  }
}

void CanonicalDecoder::throw_bad_code() {
  throw Error("invalid Huffman code in bitstream");
}

}  // namespace wavesz
