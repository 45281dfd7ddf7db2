// Bit-level I/O in both bit orders.
//
// DEFLATE (RFC 1951) packs bits LSB-first within each byte, while the
// customized Huffman coder of SZ (and most textbook canonical coders) is most
// naturally expressed MSB-first. Both flavours are provided; each reader
// raises wavesz::Error on overrun so corrupted streams fail loudly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace wavesz {

namespace detail {

/// The low `n` bits set, n in [0, 32].
inline std::uint32_t low_bits_mask(int n) {
  return n >= 32 ? 0xffffffffu : ((1u << n) - 1u);
}

}  // namespace detail

/// LSB-first bit writer (RFC 1951 convention). Bits collect in a 64-bit
/// accumulator that goes out one whole word at a time.
class BitWriterLSB {
 public:
  /// Append the low `n` bits of `value`, n in [0, 56].
  void bits(std::uint64_t value, int n) {
    WAVESZ_ASSERT(n >= 0 && n <= 56, "bit count out of range");
    value &= (std::uint64_t{1} << n) - 1;
    acc_ |= value << fill_;
    fill_ += n;
    if (fill_ >= 64) {
      // The word took the value's low 64 - old fill bits: 1 to 56 of
      // them, since the old fill was at least 8.
      fill_ -= 64;
      put(acc_, 8);
      acc_ = value >> (n - fill_);
    }
  }

  /// Pad to a byte boundary with zero bits (DEFLATE stored-block alignment).
  void align_byte() {
    if (fill_ > 0) {
      put(acc_, static_cast<std::size_t>(fill_ + 7) / 8);
      acc_ = 0;
      fill_ = 0;
    }
  }

  void byte(std::uint8_t b) {
    WAVESZ_ASSERT(fill_ == 0, "byte() requires byte alignment");
    room(1);
    buf_[len_++] = b;
  }

  /// Append whole bytes; requires byte alignment.
  void bytes(std::span<const std::uint8_t> src) {
    WAVESZ_ASSERT(fill_ == 0, "bytes() requires byte alignment");
    room(src.size());
    if (!src.empty()) copy_bytes(buf_.data() + len_, src.data(), src.size());
    len_ += src.size();
  }

  /// Append the first `nbits` bits of `src` (LSB-first within each byte),
  /// regardless of this writer's current bit phase. This is the primitive
  /// behind stitching independently produced DEFLATE chunk streams into one
  /// member; when both sides are byte-aligned it degenerates to a memcpy.
  void append(std::span<const std::uint8_t> src, std::size_t nbits) {
    WAVESZ_ASSERT(nbits <= src.size() * 8, "append past end of source");
    const std::size_t full = nbits / 8;
    if (fill_ == 0) {
      bytes(src.first(full));
    } else {
      std::size_t i = 0;
      for (; i + 4 <= full; i += 4) bits(load_le32(src.data() + i), 32);
      for (; i < full; ++i) bits(src[i], 8);
    }
    const int rem = static_cast<int>(nbits % 8);
    if (rem > 0) bits(src[full], rem);
  }

  std::size_t bit_count() const {
    return len_ * 8 + static_cast<std::size_t>(fill_);
  }
  std::vector<std::uint8_t> take() {
    align_byte();
    buf_.resize(len_);
    len_ = 0;
    return std::move(buf_);
  }

 private:
  /// Make room for `n` more bytes, plus the 8 a word store writes.
  void room(std::size_t n) {
    if (buf_.size() - len_ < n + 8) {
      buf_.resize(std::max(2 * buf_.size(), len_ + n + 8 + 1024));
    }
  }

  /// Store the accumulator as a word and keep its first `keep` bytes.
  void put(std::uint64_t word, std::size_t keep) {
    room(8);
    store_le64(buf_.data() + len_, word);
    len_ += keep;
  }

  std::vector<std::uint8_t> buf_;
  std::size_t len_ = 0;  ///< bytes written; buf_ holds spare room past it
  std::uint64_t acc_ = 0;
  int fill_ = 0;
};

/// LSB-first bit reader (RFC 1951 convention) over a 64-bit accumulator.
///
/// The accumulator is topped up eight bytes at a time while the cursor is at
/// least a word away from the tail, then byte-at-a-time over the final
/// stretch. Invariant throughout: `pos_ * 8 - fill_` equals the number of
/// bits consumed, so a refill's word load always ORs either fresh bits or
/// bit-identical copies of bits already sitting above `fill_` — reloads are
/// idempotent and the reader never rewinds `pos_`.
class BitReaderLSB {
 public:
  explicit BitReaderLSB(std::span<const std::uint8_t> s) : s_(s) {}

  /// Next `n` bits (first stream bit in bit 0) without consuming them,
  /// zero-padded when fewer than `n` bits remain. n <= 32.
  std::uint32_t peek(int n) {
    WAVESZ_ASSERT(n >= 0 && n <= 32, "bit count out of range");
    if (fill_ < n) refill();
    return static_cast<std::uint32_t>(
        acc_ & ((n >= 32) ? 0xffffffffull : ((1ull << n) - 1)));
  }

  /// Advance by `n` bits; raises wavesz::Error("bitstream truncated") when
  /// the stream holds fewer than `n` more bits.
  void consume(int n) {
    if (fill_ < n) {
      refill();
      WAVESZ_REQUIRE(fill_ >= n, "bitstream truncated");
    }
    acc_ >>= n;
    fill_ -= n;
  }

  std::uint32_t bits(int n) {
    const std::uint32_t v = peek(n);
    consume(n);
    return v;
  }

  std::uint32_t bit() { return bits(1); }

  /// Drop buffered bits up to the next byte boundary.
  void align_byte() {
    const int drop = fill_ % 8;
    acc_ >>= drop;
    fill_ -= drop;
  }

  std::uint8_t byte() {
    if (fill_ >= 8) {
      auto v = static_cast<std::uint8_t>(acc_ & 0xff);
      acc_ >>= 8;
      fill_ -= 8;
      return v;
    }
    WAVESZ_ASSERT(fill_ == 0, "byte() requires byte alignment");
    WAVESZ_REQUIRE(pos_ < s_.size(), "bitstream truncated");
    // Bypassing the accumulator invalidates any unclaimed lookahead bits a
    // bulk refill left above fill_; drop them so the next refill re-reads.
    acc_ = 0;
    return s_[pos_++];
  }

  /// Copy `n` bytes out in bulk (stored DEFLATE blocks). Requires byte
  /// alignment; drains buffered whole bytes, then block-copies the rest.
  void read_bytes(std::uint8_t* dst, std::size_t n) {
    WAVESZ_ASSERT(fill_ % 8 == 0, "read_bytes() requires byte alignment");
    while (n > 0 && fill_ >= 8) {
      *dst++ = static_cast<std::uint8_t>(acc_ & 0xff);
      acc_ >>= 8;
      fill_ -= 8;
      --n;
    }
    WAVESZ_REQUIRE(n <= s_.size() - pos_, "bitstream truncated");
    if (n > 0) {
      acc_ = 0;  // see byte(): direct span reads invalidate the lookahead
      copy_bytes(dst, s_.data() + pos_, n);
      pos_ += n;
    }
  }

  /// Bytes consumed from the underlying span (buffered bits count as read).
  std::size_t consumed() const { return pos_ - static_cast<std::size_t>(fill_) / 8; }

  /// The reader's registers, for a decode loop that keeps them in locals
  /// (the inflate fast path) and hands them back through set_state(). The
  /// state handed back must keep the consumed-bits invariant above.
  struct State {
    std::size_t pos = 0;
    std::uint64_t acc = 0;
    int fill = 0;
  };
  State state() const { return {pos_, acc_, fill_}; }
  void set_state(const State& st) {
    pos_ = st.pos;
    acc_ = st.acc;
    fill_ = st.fill;
  }
  std::span<const std::uint8_t> source() const { return s_; }

 private:
  void refill() {
    if (pos_ + 8 <= s_.size()) {
      // GCC 12's VRP warns -Warray-bounds on the guarded dead path when
      // this inlines against a buffer it knows is smaller than 8 bytes
      // (e.g. a constant test vector); the branch condition makes the
      // 8-byte load unreachable there.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
      acc_ |= load_le64(s_.data() + pos_) << fill_;
#pragma GCC diagnostic pop
      pos_ += static_cast<std::size_t>((63 - fill_) >> 3);
      fill_ |= 56;
    } else {
      while (fill_ <= 56 && pos_ < s_.size()) {
        acc_ |= static_cast<std::uint64_t>(s_[pos_++]) << fill_;
        fill_ += 8;
      }
    }
  }

  std::span<const std::uint8_t> s_;
  std::size_t pos_ = 0;
  std::uint64_t acc_ = 0;
  int fill_ = 0;
};

/// MSB-first bit writer (customized Huffman convention) over a 64-bit
/// accumulator: each code shifts in whole, then whole bytes flush from the
/// top of the `fill_` pending bits. Bits above those are already written
/// and only ever shift out, so the accumulator is never masked.
class BitWriterMSB {
 public:
  void bits(std::uint32_t value, int n) {
    WAVESZ_ASSERT(n >= 0 && n <= 32, "bit count out of range");
    acc_ = (acc_ << n) | (value & detail::low_bits_mask(n));
    fill_ += n;
    while (fill_ >= 8) {
      fill_ -= 8;
      buf_.push_back(static_cast<std::uint8_t>(acc_ >> fill_));
    }
    nbits_ += static_cast<std::size_t>(n);
  }

  std::size_t bit_count() const { return nbits_; }

  std::vector<std::uint8_t> take() {
    if (fill_ > 0) {
      buf_.push_back(static_cast<std::uint8_t>(acc_ << (8 - fill_)));
      acc_ = 0;
      fill_ = 0;
    }
    return std::move(buf_);
  }

 private:
  std::vector<std::uint8_t> buf_;
  std::uint64_t acc_ = 0;
  int fill_ = 0;
  std::size_t nbits_ = 0;
};

/// MSB-first bit reader (customized Huffman convention) over a 64-bit
/// accumulator with the next stream bit in bit 63. Same refill scheme and
/// `pos_ * 8 - fill_` consumed-bits invariant as BitReaderLSB, mirrored for
/// big-endian bit order, so position() stays bit-exact for the trailing
/// `payload_bits` checks in the SZ Huffman container.
class BitReaderMSB {
 public:
  explicit BitReaderMSB(std::span<const std::uint8_t> s) : s_(s) {}

  /// Seek-to-bit-offset construction: start reading at absolute `start_bit`
  /// of `s`. position() keeps reporting absolute stream bits, so a chunked
  /// decoder can seek to a recorded offset and still run the same trailing
  /// `payload_bits` checks as a from-the-top decode.
  BitReaderMSB(std::span<const std::uint8_t> s, std::size_t start_bit) {
    WAVESZ_REQUIRE(start_bit <= s.size() * 8, "bit seek past end of stream");
    s_ = s.subspan(start_bit / 8);
    base_bits_ = (start_bit / 8) * 8;
    const int phase = static_cast<int>(start_bit % 8);
    if (phase > 0) consume(phase);
  }

  /// Next `n` bits (first stream bit as the MSB of the result) without
  /// consuming them, zero-padded when fewer than `n` bits remain. n <= 32.
  std::uint32_t peek(int n) {
    WAVESZ_ASSERT(n >= 0 && n <= 32, "bit count out of range");
    if (fill_ < n) refill();
    return n == 0 ? 0u : static_cast<std::uint32_t>(acc_ >> (64 - n));
  }

  /// Advance by `n` bits; raises wavesz::Error("bitstream truncated") when
  /// the stream holds fewer than `n` more bits.
  void consume(int n) {
    if (fill_ < n) {
      refill();
      WAVESZ_REQUIRE(fill_ >= n, "bitstream truncated");
    }
    acc_ <<= n;
    fill_ -= n;
  }

  std::uint32_t bits(int n) {
    const std::uint32_t v = peek(n);
    consume(n);
    return v;
  }

  std::uint32_t bit() { return bits(1); }

  /// Exact number of bits consumed so far, absolute within the stream the
  /// reader was constructed over (seek offsets included).
  std::size_t position() const {
    return base_bits_ + pos_ * 8 - static_cast<std::size_t>(fill_);
  }

  /// The reader's registers, for a decode loop that keeps them in locals
  /// (the H⋆ fast path) and hands them back through set_state(). `pos`
  /// indexes source(), which starts at the seek byte. The state handed back
  /// must keep the consumed-bits invariant above.
  struct State {
    std::size_t pos = 0;
    std::uint64_t acc = 0;
    int fill = 0;
  };
  State state() const { return {pos_, acc_, fill_}; }
  void set_state(const State& st) {
    pos_ = st.pos;
    acc_ = st.acc;
    fill_ = st.fill;
  }
  std::span<const std::uint8_t> source() const { return s_; }

  /// Top `st` up to at least 56 valid bits from `s`: one 8-byte load while
  /// 8 bytes remain, byte by byte over the final stretch. Past the end the
  /// accumulator reads as zeros; a loop that consumes any of them drives
  /// `fill` negative, which is how it detects truncation.
  [[gnu::always_inline]] static void refill(State& st,
                                            std::span<const std::uint8_t> s) {
    if (st.pos + 8 <= s.size()) {
      // Same GCC 12 -Warray-bounds false positive as BitReaderLSB::refill.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
      st.acc |= load_be64(s.data() + st.pos) >> st.fill;
#pragma GCC diagnostic pop
      st.pos += static_cast<std::size_t>((63 - st.fill) >> 3);
      st.fill |= 56;
    } else {
      while (st.fill <= 56 && st.pos < s.size()) {
        st.acc |= static_cast<std::uint64_t>(s[st.pos++]) << (56 - st.fill);
        st.fill += 8;
      }
    }
  }

 private:
  void refill() {
    State st = state();
    refill(st, s_);
    set_state(st);
  }

  std::span<const std::uint8_t> s_;
  std::size_t pos_ = 0;
  std::size_t base_bits_ = 0;
  std::uint64_t acc_ = 0;
  int fill_ = 0;
};

}  // namespace wavesz
