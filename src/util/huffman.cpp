#include "util/huffman.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace wavesz {
namespace {

/// Width of the root lookup table: codes this short resolve in one probe.
/// 10 covers every hot symbol of both alphabets (DEFLATE codes cap at 15;
/// SZ's quantization codes are sharply peaked, so the frequent ones are
/// short) while keeping the root table at 4 KiB.
constexpr int kRootBits = 10;

/// Longest code any caller builds: DEFLATE codes stop at 15 bits, H⋆
/// codes at 24.
constexpr int kMaxCodeBits = 24;

/// Cap on root + subtable entries (4 MiB of std::uint32_t), which no
/// admitted length set reaches. In canonical order code lengths never
/// decrease as codes rise, so every root prefix but the last is tiled
/// completely. A prefix whose codes all have one length takes one entry
/// per code; the prefixes that mix lengths have strictly rising longest
/// tails, at most 2^1 + ... + 2^14 < 2^15 entries between them; the last
/// prefix takes at most 2^14. With at most 65,536 symbols that bounds the
/// table by 2^10 + 2^15 + 2^14 + 65,536 = 115,712 entries.
constexpr std::size_t kMaxTableEntries = 1u << 20;

std::uint32_t reverse_code_bits(std::uint32_t code, int len) {
  std::uint32_t out = 0;
  for (int i = 0; i < len; ++i) out = (out << 1) | ((code >> i) & 1u);
  return out;
}

}  // namespace

std::vector<std::uint8_t> huffman_code_lengths(
    std::span<const std::uint64_t> freqs, int max_length) {
  WAVESZ_REQUIRE(max_length >= 1 && max_length <= 31,
                 "max code length out of range");
  const std::size_t n = freqs.size();
  std::vector<std::uint8_t> lengths(n, 0);

  // Used symbols sorted by (weight, symbol) — deterministic.
  std::vector<std::uint32_t> order;
  for (std::size_t s = 0; s < n; ++s) {
    if (freqs[s] > 0) order.push_back(static_cast<std::uint32_t>(s));
  }
  const std::size_t m = order.size();
  if (m == 0) return lengths;
  if (m == 1) {
    lengths[order[0]] = 1;
    return lengths;
  }
  WAVESZ_REQUIRE(static_cast<std::uint64_t>(m) <= (1ull << max_length),
                 "alphabet too large for requested code-length limit");
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return freqs[a] != freqs[b] ? freqs[a] < freqs[b] : a < b;
            });
  std::vector<std::uint64_t> leaf(m);
  for (std::size_t i = 0; i < m; ++i) leaf[i] = freqs[order[i]];

  // Package-merge (Larmore & Hirschberg). Level 0 is the leaves; level l
  // merges the leaves with the pairwise packages of level l - 1, leaves
  // first on weight ties, so it holds fewer than 2m entries. Only the
  // previous level's weights are kept, and per level which entries are
  // packages.
  const auto levels = static_cast<std::size_t>(max_length);
  const std::size_t stride = 2 * m;
  std::vector<std::uint8_t> is_package(levels * stride, 0);
  std::vector<std::uint64_t> prev(leaf);
  std::vector<std::uint64_t> cur;
  cur.reserve(stride);
  for (std::size_t l = 1; l < levels; ++l) {
    std::uint8_t* flags = &is_package[l * stride];
    const std::size_t packages = prev.size() / 2;
    cur.clear();
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < m || j < packages) {
      const std::uint64_t pw =
          j < packages ? prev[2 * j] + prev[2 * j + 1] : 0;
      if (j < packages && (i == m || pw < leaf[i])) {
        flags[cur.size()] = 1;
        cur.push_back(pw);
        ++j;
      } else {
        cur.push_back(leaf[i++]);
      }
    }
    prev.swap(cur);
  }

  // Select the 2m - 2 lightest entries of the last level. A selected
  // package selects its two entries one level down, so every level's
  // selection is a prefix of it, and the leaves in that prefix are the
  // lightest ones: each adds one bit to their codes.
  WAVESZ_ASSERT(prev.size() >= 2 * m - 2,
                "package-merge produced too few entries");
  std::size_t take = 2 * m - 2;
  for (std::size_t l = levels; l-- > 0;) {
    const std::uint8_t* flags = &is_package[l * stride];
    const auto packages =
        static_cast<std::size_t>(std::count(flags, flags + take, 1));
    for (std::size_t k = 0; k < take - packages; ++k) ++lengths[order[k]];
    take = 2 * packages;
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
                                   BitOrder order,
                                   std::span<const std::uint32_t> payload) {
  WAVESZ_ASSERT(payload.empty() || payload.size() == lengths.size(),
                "one payload per code length");
  // One pass over the length table collects the used symbols; the counts,
  // the canonical order and the flat table run over them alone, which
  // matters for the 65,536-entry H⋆ alphabet of which a few hundred are
  // used.
  std::vector<std::uint32_t> used;
  int max_len = 0;
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s] == 0) continue;
    used.push_back(static_cast<std::uint32_t>(s));
    max_len = std::max(max_len, static_cast<int>(lengths[s]));
  }
  WAVESZ_ASSERT(max_len <= kMaxCodeBits, "Huffman code length above 24");
  // First canonical code and first canonical index per length, in 64 bits:
  // an over-subscribed set's codes outgrow their own widths, and the check
  // below must see them whole.
  const auto levels = static_cast<std::size_t>(max_len) + 1;
  std::vector<std::uint32_t> count(levels, 0);
  for (const std::uint32_t s : used) ++count[lengths[s]];
  std::vector<std::uint64_t> first_code(levels, 0);
  std::vector<std::uint32_t> first_index(levels, 0);
  std::uint64_t first = 0;
  std::uint32_t index = 0;
  for (std::size_t len = 1; len < levels; ++len) {
    first = (first + count[len - 1]) << 1;
    first_code[len] = first;
    first_index[len] = index;
    index += count[len];
  }
  // The used symbols in canonical order: sorted[k] has length len and code
  // first_code[len] + (k - first_index[len]), the values canonical_codes()
  // assigns.
  std::vector<std::uint32_t> sorted(index);
  std::vector<std::uint32_t> next_index(first_index);
  for (const std::uint32_t s : used) sorted[next_index[lengths[s]]++] = s;
  const auto code_of = [&](std::size_t k, int len) {
    const auto l = static_cast<std::size_t>(len);
    return first_code[l] + (k - first_index[l]);
  };

  // A 1-bit root when the code is empty: its two slots stay invalid.
  root_bits_ = std::clamp(max_len, 1, kRootBits);
  const std::size_t root_size = std::size_t{1} << root_bits_;

  // Pass 1: per-root-prefix subtable width (the longest tail under that
  // prefix), and the over-subscription check. Canonical codes tile the
  // code space from 0 upwards in order, so a set whose Kraft sum exceeds 1
  // is exactly one in which some code overflows its own width.
  std::vector<std::uint8_t> sub_bits(root_size, 0);
  std::size_t total = root_size;
  for (std::size_t k = 0; k < sorted.size(); ++k) {
    const int len = lengths[sorted[k]];
    const std::uint64_t wide = code_of(k, len);
    WAVESZ_REQUIRE((wide >> len) == 0, "over-subscribed Huffman code");
    if (len > root_bits_) {
      const auto code = static_cast<std::uint32_t>(wide);
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
    }
  }
  WAVESZ_ASSERT(total <= kMaxTableEntries, "Huffman table too large");

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
  for (std::size_t k = 0; k < sorted.size(); ++k) {
    const std::uint32_t s = sorted[k];
    const std::uint32_t value = payload.empty() ? s : payload[s];
    if (!payload.empty() && value == 0) continue;
    const int len = lengths[s];
    const auto code = static_cast<std::uint32_t>(code_of(k, len));
    const std::uint32_t c = order == BitOrder::MsbFirst
                                ? code
                                : reverse_code_bits(code, len);
    if (len <= root_bits_) {
      const std::uint32_t e = (value << 8) | static_cast<std::uint32_t>(len);
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
      const std::uint32_t e = (value << 8) | static_cast<std::uint32_t>(rem);
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
