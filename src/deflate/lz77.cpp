#include "deflate/lz77.hpp"

#include <algorithm>
#include <bit>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace wavesz::deflate {
namespace {

/// Length of the common prefix of a and b, capped at max_len: eight bytes
/// per step via XOR + count-trailing-zeros (the little-endian load puts the
/// first memory byte in the low bits on every host), byte-wise tail.
int match_extend(const std::uint8_t* a, const std::uint8_t* b, int max_len) {
  int len = 0;
  while (len + 8 <= max_len) {
    const std::uint64_t diff = load_le64(a + len) ^ load_le64(b + len);
    if (diff != 0) {
      return len + (std::countr_zero(diff) >> 3);
    }
    len += 8;
  }
  while (len < max_len && a[len] == b[len]) ++len;
  return len;
}

constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = 1u << kHashBits;
constexpr std::size_t kRingMask = kWindowSize - 1;
constexpr std::uint32_t kNil = 0xffffffffu;
static_assert(std::has_single_bit(kWindowSize));

std::uint32_t hash3(const std::uint8_t* p) {
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - kHashBits);
}

/// One code pair: the four bytes at a code start.
std::uint32_t hash4(const std::uint8_t* p) {
  return (load_le32(p) * 2654435761u) >> (32 - kHashBits);
}

/// Code starts step two bytes; a code pair needs four to hash.
constexpr std::size_t kCodeBytes = 2;
constexpr std::size_t kPairBytes = 4;

/// Chain depth per parse. Level::Fast in codes walks 6: a sweep over 32
/// NYX chunks held the match-token count within 2% of the byte parse at
/// chain 8 (EXPERIMENTS.md, "Matching in codes").
struct MatcherConfig {
  int max_chain;
  bool lazy;
  int nice_length;  ///< stop chain walk once a match this long is found
};

MatcherConfig config_for(Level level, bool codes) {
  if (level == Level::Best) return {512, true, kMaxMatch};
  return {codes ? 6 : 8, false, 32};
}

/// The resumable parse behind parse(): one window, one block at a time.
class Matcher {
 public:
  Matcher(std::span<const std::uint8_t> window, std::size_t dict_len,
          Level level, Stride stride)
      : window_(window),
        pos_(dict_len),
        codes_(stride == Stride::Codes && level == Level::Fast),
        cfg_(config_for(level, codes_)),
        head_(kHashSize, kNil),
        prev_(kWindowSize) {
    const std::uint8_t* base = window.data();
    const std::size_t n = window.size();
    // Seed the window with every dictionary position (including the last
    // ones, whose hash windows straddle the boundary into live data).
    if (codes_) {
      for (std::size_t p = 0; p < dict_len && p + kPairBytes <= n;
           p += kCodeBytes) {
        insert(hash4(base + p), p);
      }
    } else {
      for (std::size_t p = 0; p < dict_len && p + kMinMatch <= n; ++p) {
        insert(hash3(base + p), p);
      }
    }
  }

  bool done() const { return pos_ >= window_.size(); }

  /// Parse on until `stop` (a window offset) is covered or `block` has no
  /// room for the next step. Matches end at `stop` at the latest.
  void fill(TokenBlock& block, std::size_t stop) {
    stop_ = std::min(stop, window_.size());
    if (codes_) {
      fill_codes(block);
    } else {
      fill_bytes(block);
    }
  }

 private:
  struct Match {
    int length = 0;
    std::size_t distance = 0;
  };

  void insert(std::uint32_t hash, std::size_t pos) {
    prev_[pos & kRingMask] = head_[hash];
    head_[hash] = static_cast<std::uint32_t>(pos);
  }

  /// Longest match at `pos` looking back through its chain, within the
  /// window. In codes only code starts are on the chains, so every
  /// distance is whole codes, and lengths are cut to whole codes.
  Match find(std::uint32_t hash, std::size_t pos) const {
    const std::uint8_t* base = window_.data();
    const std::size_t limit = pos >= kWindowSize ? pos - kWindowSize : 0;
    const std::size_t tail = std::min<std::size_t>(kMaxMatch, stop_ - pos);
    const int max_len =
        static_cast<int>(codes_ ? tail & ~(kCodeBytes - 1) : tail);
    const int min_len = codes_ ? static_cast<int>(kPairBytes) : kMinMatch;
    Match best;
    if (max_len < min_len) return best;
    std::uint32_t cand = head_[hash];
    int chain = cfg_.max_chain;
    while (cand != kNil && cand >= limit && chain-- > 0) {
      const auto c = static_cast<std::size_t>(cand);
      // The next hop loads first: the walk is a chain of dependent loads
      // (plus the ring mask), and a mispredicted compare below then does
      // not hold it back.
      cand = prev_[c & kRingMask];
      // Quick reject: a candidate can only beat best.length if it also
      // matches at offset best.length, so one byte compare skips most of
      // the chain without changing which match wins. Safe while
      // best.length < max_len — the break below guarantees that.
      const auto at = static_cast<std::size_t>(best.length);
      if (c < pos && base[c + at] == base[pos + at]) {
        int len = match_extend(base + c, base + pos, max_len);
        if (codes_) len &= ~static_cast<int>(kCodeBytes - 1);
        if (len > best.length) {
          best = {len, pos - c};
          if (len >= cfg_.nice_length || len >= max_len) break;
        }
      }
    }
    if (best.length < min_len) return {};
    return best;
  }

  /// The byte parse: greedy, or with Level::Best's one-step lazy match.
  void fill_bytes(TokenBlock& block) {
    const std::uint8_t* base = window_.data();
    const std::size_t n = window_.size();
    while (pos_ < stop_ && block.size() < block.capacity()) {
      if (pos_ + kMinMatch > n) {
        block.literal(base[pos_++]);
        continue;
      }
      const std::uint32_t h = hash3(base + pos_);
      const Match m = find(h, pos_);
      insert(h, pos_);
      if (m.length == 0) {
        block.literal(base[pos_++]);
        continue;
      }
      if (cfg_.lazy && m.length < cfg_.nice_length &&
          pos_ + 1 + kMinMatch <= n) {
        // One-step lazy evaluation: if the next position holds a strictly
        // longer match, emit a literal here and take that one instead.
        const Match next = find(hash3(base + pos_ + 1), pos_ + 1);
        if (next.length > m.length) {
          block.literal(base[pos_++]);
          continue;
        }
      }
      block.match(m.length, static_cast<int>(m.distance));
      const std::size_t end = pos_ + static_cast<std::size_t>(m.length);
      for (std::size_t p = pos_ + 1; p < end && p + kMinMatch <= n; ++p) {
        insert(hash3(base + p), p);
      }
      pos_ = end;
    }
  }

  void fill_codes(TokenBlock& block) {
    const std::uint8_t* base = window_.data();
    const std::size_t n = window_.size();
    while (pos_ < stop_ && block.size() + kCodeBytes <= block.capacity()) {
      // A tail shorter than a code pair goes out byte by byte.
      if (pos_ + kPairBytes > n) {
        block.literal(base[pos_++]);
        continue;
      }
      const std::uint32_t h = hash4(base + pos_);
      const Match m = find(h, pos_);
      insert(h, pos_);
      if (m.length == 0) {
        block.literal(base[pos_]);
        block.literal(base[pos_ + 1]);
        pos_ += kCodeBytes;
        continue;
      }
      block.match(m.length, static_cast<int>(m.distance));
      const std::size_t end = pos_ + static_cast<std::size_t>(m.length);
      for (std::size_t p = pos_ + kCodeBytes; p < end && p + kPairBytes <= n;
           p += kCodeBytes) {
        insert(hash4(base + p), p);
      }
      pos_ = end;
    }
  }

  std::span<const std::uint8_t> window_;
  std::size_t pos_;
  std::size_t stop_ = 0;
  bool codes_;
  MatcherConfig cfg_;
  /// head_[hash] is the newest position with that hash; prev_[p & mask] is
  /// the one before p on its chain. A chain walk from p reads only the
  /// entries of positions >= p - kWindowSize, and the next position to
  /// overwrite such an entry is >= p, which is not inserted yet — also in
  /// the lazy step, whose find(p + 1) follows insert(p).
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> prev_;
};

/// Largest window the 32-bit chain positions can address (kNil is
/// reserved), and the segment parse() cuts larger windows into.
constexpr std::size_t kIndexLimit = 0xffffffffull;
constexpr std::size_t kSegment = 1ull << 30;

/// First p in [from, lim) at which the byte before p repeats kMinMatch
/// times (base[p - 1] == base[p] == base[p + 1] == base[p + 2]), or lim.
/// from >= 1 and lim + 2 <= the bytes readable at base. Six positions per
/// step: byte k of the XOR of the words at p - 1 and p is zero where base[p
/// + k] repeats the byte before it, and three zero bytes in a row make a
/// run.
std::size_t next_run(const std::uint8_t* base, std::size_t from,
                     std::size_t lim) {
  static_assert(kMinMatch == 3);
  constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7full;
  std::size_t p = from;
  for (; p + 6 <= lim; p += 6) {
    const std::uint64_t d = load_le64(base + p - 1) ^ load_le64(base + p);
    const std::uint64_t zero = ~(((d & kLow7) + kLow7) | d | kLow7);
    const std::uint64_t runs = zero & (zero >> 8) & (zero >> 16);
    if (runs != 0) {
      return p + static_cast<std::size_t>(std::countr_zero(runs) >> 3);
    }
  }
  for (; p < lim; ++p) {
    if (base[p - 1] == base[p] && base[p] == base[p + 1] &&
        base[p + 1] == base[p + 2]) {
      return p;
    }
  }
  return lim;
}

/// The run parse of `window[pos..stop)` into `block`, until it is full;
/// returns where it stopped. The literals before each run go in at once.
std::size_t fill_runs(std::span<const std::uint8_t> window, std::size_t pos,
                      std::size_t stop, TokenBlock& block) {
  const std::uint8_t* base = window.data();
  while (pos < stop && block.size() < block.capacity()) {
    const std::size_t end =
        std::min(stop, pos + (block.capacity() - block.size()));
    // A run needs the byte before it and kMinMatch bytes up to stop.
    const std::size_t lim =
        std::min(end, stop - std::min<std::size_t>(stop, kMinMatch - 1));
    const std::size_t from = std::max<std::size_t>(pos, 1);
    const std::size_t run = from < lim ? next_run(base, from, lim) : lim;
    const std::size_t lits = (run < lim ? run : end) - pos;
    block.literals(window.subspan(pos, lits));
    pos += lits;
    if (run < lim) {
      const int len = match_extend(
          base + pos - 1, base + pos,
          static_cast<int>(std::min<std::size_t>(kMaxMatch, stop - pos)));
      block.match(len, 1);
      pos += static_cast<std::size_t>(len);
    }
  }
  return pos;
}

/// The run parse from `pos` to the window's end, `block` handed to
/// `on_full` whenever it fills.
void runs_from(std::span<const std::uint8_t> window, std::size_t pos,
               TokenBlock& block,
               const std::function<void(TokenBlock&)>& on_full) {
  const std::size_t n = window.size();
  for (pos = fill_runs(window, pos, n, block); pos < n;
       pos = fill_runs(window, pos, n, block)) {
    on_full(block);
  }
}

}  // namespace

TokenBlock::TokenBlock(std::size_t live_bytes)
    : capacity_(std::min(kTokensPerBlock,
                         std::max<std::size_t>(live_bytes, 1) + 1)) {
  tokens_ = std::make_unique_for_overwrite<Token[]>(capacity_);
  clear();
}

void TokenBlock::assign(const TokenBlock& other) {
  WAVESZ_ASSERT(other.count_ <= capacity_, "token block too small");
  std::copy_n(other.tokens_.get(), other.count_, tokens_.get());
  count_ = other.count_;
  covered_ = other.covered_;
  litlen_ = other.litlen_;
  dist_ = other.dist_;
}

void TokenBlock::clear() {
  count_ = 0;
  covered_ = 0;
  litlen_.fill(0);
  dist_.fill(0);
  litlen_[kEndOfBlock] = 1;
}

void parse(std::span<const std::uint8_t> window, std::size_t dict_len,
           Level level, Stride stride, TokenBlock& block,
           const std::function<void(TokenBlock&)>& on_full) {
  WAVESZ_REQUIRE(dict_len <= window.size(),
                 "dictionary longer than the input span");
  // One segment below the index limit. Positions before the last
  // kWindowSize bytes of the dictionary could only end a chain walk, so
  // leaving them out parses the same. With an even dict_len every segment
  // starts on a code.
  const std::size_t n = window.size();
  const std::size_t step = n >= kIndexLimit ? kSegment : n;
  for (std::size_t start = dict_len; start < n;) {
    const std::size_t take = std::min(step, n - start);
    const std::size_t primed = std::min(kWindowSize, start);
    const std::size_t from = start - primed;
    Matcher m(window.subspan(from, primed + take), primed, level, stride);
    const std::size_t end = primed + take;
    for (m.fill(block, end); !m.done(); m.fill(block, end)) on_full(block);
    start += take;
  }
}

void parse_runs(std::span<const std::uint8_t> window, std::size_t dict_len,
                TokenBlock& block,
                const std::function<void(TokenBlock&)>& on_full) {
  WAVESZ_REQUIRE(dict_len <= window.size(),
                 "dictionary longer than the input span");
  runs_from(window, dict_len, block, on_full);
}

bool parse_probed(std::span<const std::uint8_t> window, std::size_t dict_len,
                  TokenBlock& block,
                  const std::function<void(TokenBlock&)>& on_full,
                  const std::function<std::uint64_t(const TokenBlock&)>& bits) {
  WAVESZ_REQUIRE(dict_len <= window.size(),
                 "dictionary longer than the input span");
  WAVESZ_ASSERT(block.empty(), "probed parse into a non-empty block");
  // Only the dictionary's last kWindowSize bytes can be matched; the hash
  // chains address at most kSegment live bytes, and parse() takes any
  // rest.
  const std::size_t from = dict_len - std::min(kWindowSize, dict_len);
  window = window.subspan(from);
  dict_len -= from;
  const std::size_t n = window.size();
  const std::size_t probe_end = dict_len + std::min(kProbeBytes, n - dict_len);

  // The run probe goes straight into `block`, which holds at least one
  // token per probe byte; the chain probe into a block of its own.
  fill_runs(window, dict_len, probe_end, block);
  const std::size_t chain_end = std::min(n, dict_len + kSegment);
  Matcher chain(window.first(chain_end), dict_len, Level::Fast,
                Stride::Bytes);
  TokenBlock probe(probe_end - dict_len);
  chain.fill(probe, probe_end);
  const std::uint64_t run_bits = bits(block);
  const std::uint64_t chain_bits = bits(probe);
  if (chain_bits >= run_bits ||
      100 * (run_bits - chain_bits) < kChainGainPercent * run_bits) {
    runs_from(window, probe_end, block, on_full);
    return true;
  }
  block.assign(probe);
  for (chain.fill(block, chain_end); !chain.done();
       chain.fill(block, chain_end)) {
    on_full(block);
  }
  if (chain_end < n) {
    parse(window, chain_end, Level::Fast, Stride::Bytes, block, on_full);
  }
  return false;
}

std::vector<Token> tokenize(std::span<const std::uint8_t> input, Level level,
                            std::size_t dict_len, Stride stride) {
  std::vector<Token> out;
  TokenBlock block(input.size() - std::min(dict_len, input.size()));
  const auto collect = [&](TokenBlock& b) {
    out.insert(out.end(), b.tokens().begin(), b.tokens().end());
    b.clear();
  };
  parse(input, dict_len, level, stride, block, collect);
  collect(block);
  return out;
}

std::vector<std::uint8_t> expand(std::span<const Token> tokens) {
  std::vector<std::uint8_t> out;
  for (const Token& t : tokens) {
    if (t.length == 0) {
      out.push_back(static_cast<std::uint8_t>(t.value));
    } else {
      WAVESZ_REQUIRE(t.value >= 1 && t.value <= out.size(),
                     "token distance out of range");
      WAVESZ_REQUIRE(t.length >= kMinMatch && t.length <= kMaxMatch,
                     "token length out of range");
      const std::size_t start = out.size() - t.value;
      for (std::size_t k = 0; k < t.length; ++k) {
        out.push_back(out[start + k]);  // overlapping copies by design
      }
    }
  }
  return out;
}

}  // namespace wavesz::deflate
