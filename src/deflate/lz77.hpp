// LZ77 match finder for the DEFLATE substrate (RFC 1951 semantics).
//
// Hash-chain matcher over a 32 KiB window producing literals and
// (length, distance) matches with length in [3, 258] and distance in
// [1, 32768]. Two effort levels mirror gzip's --fast/--best, which the
// paper's artifact uses for the SZ-1.4 baseline (best_speed) and the ratio
// study. The chains live in a ring of one entry per window position, and
// the parse streams its tokens into a TokenBlock one DEFLATE block at a
// time, counting symbol frequencies as it goes. Beside it, a run parse
// (distance-1 matches only, zlib's Z_RLE) with no tables at all, and a
// probed parse that runs both on a window's first bytes and keeps the
// hash chains only where they pay.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "deflate/deflate_tables.hpp"

namespace wavesz::deflate {

inline constexpr int kMinMatch = 3;
inline constexpr int kMaxMatch = 258;
inline constexpr std::size_t kWindowSize = 32768;
/// Tokens per DEFLATE block: each block picks stored/fixed/dynamic and
/// carries its own Huffman tables.
inline constexpr std::size_t kTokensPerBlock = 65536;

enum class Level {
  Fast,  ///< short hash chains, greedy parse (gzip --fast flavour)
  Best,  ///< long chains, lazy one-step parse (gzip --best flavour)
};

/// What a parse position is. Bytes: every byte offset (gzip's parse).
/// Codes: the input is little-endian 16-bit codes, and at Level::Fast only
/// code starts (even offsets from the input's byte 0) are hashed, inserted
/// and searched, matches cover whole codes, and a code with no match goes
/// out as two literals. Level::Best parses bytes either way.
enum class Stride { Bytes, Codes };

/// One token in four bytes: a literal (length 0, value = the byte) or a
/// match (length 3..258, value = distance 1..32768).
struct Token {
  std::uint16_t length = 0;
  std::uint16_t value = 0;
};

/// At most kTokensPerBlock tokens, with their lit/len and distance symbol
/// frequencies counted as they are added (the end-of-block symbol is
/// counted from the start) and the bytes they cover.
class TokenBlock {
 public:
  /// Room for min(kTokensPerBlock, max(1, live_bytes) + 1) tokens: the
  /// parse of `live_bytes` bytes then never finds it full.
  explicit TokenBlock(std::size_t live_bytes);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  std::size_t covered() const { return covered_; }
  std::span<const Token> tokens() const { return {tokens_.get(), count_}; }
  const std::array<std::uint64_t, kNumLitLen>& litlen_freq() const {
    return litlen_;
  }
  const std::array<std::uint64_t, kNumDist>& dist_freq() const {
    return dist_;
  }

  void literal(std::uint8_t byte) {
    tokens_[count_++] = Token{0, byte};
    ++litlen_[byte];
    ++covered_;
  }
  void match(int length, int distance) {
    tokens_[count_++] = Token{static_cast<std::uint16_t>(length),
                              static_cast<std::uint16_t>(distance)};
    ++litlen_[static_cast<std::size_t>(257 + length_code(length))];
    ++dist_[static_cast<std::size_t>(distance_code(distance))];
    covered_ += static_cast<std::size_t>(length);
  }
  void literals(std::span<const std::uint8_t> bytes) {
    Token* out = tokens_.get() + count_;
    for (std::size_t k = 0; k < bytes.size(); ++k) {
      out[k] = Token{0, bytes[k]};
      ++litlen_[bytes[k]];
    }
    count_ += bytes.size();
    covered_ += bytes.size();
  }
  void add(const Token& t) {
    if (t.length == 0) {
      literal(static_cast<std::uint8_t>(t.value));
    } else {
      match(t.length, t.value);
    }
  }
  void clear();
  /// Become a copy of `other`, which must fit.
  void assign(const TokenBlock& other);

 private:
  std::unique_ptr<Token[]> tokens_;
  std::size_t capacity_ = 0;
  std::size_t count_ = 0;
  std::size_t covered_ = 0;
  std::array<std::uint64_t, kNumLitLen> litlen_{};
  std::array<std::uint64_t, kNumDist> dist_{};
};

/// Parse `window[dict_len..]` into `block`. The first `dict_len` bytes (at
/// most kWindowSize is useful) act as a priming dictionary: they emit no
/// tokens but seed the match window, so matches may reach back into them —
/// exactly the cross-chunk history a later chunk of one DEFLATE stream
/// sees. In Stride::Codes the code starts are the window's even offsets,
/// so `dict_len` is even wherever a window starts on a code (an odd one
/// still parses validly, only poorly). Whenever `block` has no room for
/// the next step (one token, or a code's two literals) while input
/// remains, `on_full` gets it and must leave it cleared; the last tokens
/// stay in `block` for the caller.
///
/// Chain positions are 32-bit; windows at or beyond 4 GiB are parsed in
/// 1 GiB segments, each primed with the kWindowSize bytes before it, so
/// matches still cross the seams.
void parse(std::span<const std::uint8_t> window, std::size_t dict_len,
           Level level, Stride stride, TokenBlock& block,
           const std::function<void(TokenBlock&)>& on_full);

/// The run parse of `window[dict_len..]`, as zlib's Z_RLE: a byte repeated
/// at least kMinMatch times after the byte before it (the dictionary's last
/// byte included) goes out as one distance-1 match of up to kMaxMatch, and
/// every other byte as a literal. It keeps no hash tables. Same block and
/// `on_full` contract as parse().
void parse_runs(std::span<const std::uint8_t> window, std::size_t dict_len,
                TokenBlock& block,
                const std::function<void(TokenBlock&)>& on_full);

/// The probe of parse_probed(): a window's first kProbeBytes live bytes. The
/// hash chains are kept when their probe costs at least kChainGainPercent
/// percent fewer bits than the run parse's.
inline constexpr std::size_t kProbeBytes = 8 * 1024;
inline constexpr std::uint64_t kChainGainPercent = 2;

/// A byte parse of `window[dict_len..]` that picks its matcher from a
/// probe. The first kProbeBytes live bytes are parsed twice: with runs, and
/// with Level::Fast's hash chains primed with the dictionary (its last
/// kWindowSize bytes). `bits` prices each probe's tokens as one block.
/// Unless the chains save at least kChainGainPercent percent of the run
/// probe's bits, the rest of the window goes on with runs. Either way the
/// winner's probe tokens stay in `block` and its parse resumes after them,
/// so the choice depends only on the window's bytes. `block` must start
/// empty; otherwise the contract is parse()'s. Returns true when the
/// window went to runs.
bool parse_probed(std::span<const std::uint8_t> window, std::size_t dict_len,
                  TokenBlock& block,
                  const std::function<void(TokenBlock&)>& on_full,
                  const std::function<std::uint64_t(const TokenBlock&)>& bits);

/// The production parse of `input[dict_len..]`, collected (for tests and
/// token statistics). With dict_len == 0 the tokens, expanded, reproduce
/// the input byte-for-byte (tested property).
std::vector<Token> tokenize(std::span<const std::uint8_t> input, Level level,
                            std::size_t dict_len = 0,
                            Stride stride = Stride::Bytes);

/// Expand a token stream back into bytes (reference decoder for tests).
std::vector<std::uint8_t> expand(std::span<const Token> tokens);

}  // namespace wavesz::deflate
