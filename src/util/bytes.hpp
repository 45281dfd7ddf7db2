// Little-endian byte-oriented serialization used by every container format.
//
// ByteWriter grows an owned std::vector<std::uint8_t>; ByteReader walks a
// borrowed span with hard bounds checks so that a truncated or corrupted
// container raises wavesz::Error instead of reading out of bounds.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "util/error.hpp"

namespace wavesz {

// ---------------------------------------------------------------------------
// Centralized raw-memory primitives.
//
// Every unaligned load and raw byte copy in the codebase routes through the
// helpers below (together with util/float_bits.* for IEEE-754 punning); the
// containment is machine-enforced by tools/wavesz_lint.py rule `raw-memory`.
// Keeping the entire type-punning surface in one reviewed file is what lets
// the sanitizer, fuzz and tidy jobs reason about out-of-bounds behaviour.
// ---------------------------------------------------------------------------

/// Unaligned 32-bit little-endian load. Compiles to a single mov on every
/// mainstream target; the swap is constant-folded away on matching-endian
/// hosts.
inline std::uint32_t load_le32(const std::uint8_t* p) {
  std::uint32_t w;
  std::memcpy(&w, p, sizeof w);
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap32(w);
  }
  return w;
}

/// Unaligned 64-bit little-endian load (first memory byte in bit 0).
inline std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap64(w);
  }
  return w;
}

/// Unaligned 64-bit little-endian store (bit 0 to the first memory byte).
inline void store_le64(std::uint8_t* p, std::uint64_t w) {
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap64(w);
  }
  std::memcpy(p, &w, sizeof w);
}

/// Unaligned 64-bit big-endian load (first memory byte in bits 63..56).
inline std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  if constexpr (std::endian::native == std::endian::little) {
    w = __builtin_bswap64(w);
  }
  return w;
}

/// Raw copy of `n` bytes between non-overlapping buffers.
inline void copy_bytes(void* dst, const void* src, std::size_t n) {
  std::memcpy(dst, src, n);
}

/// Fixed 8-byte copy (the word-at-a-time step of back-reference expansion;
/// caller guarantees src/dst are at least 8 bytes apart).
inline void copy8(std::uint8_t* dst, const std::uint8_t* src) {
  std::memcpy(dst, src, 8);
}

/// View a span of trivially copyable elements as its raw byte image (the
/// host's little-endian layout, asserted by ByteWriter::raw). Checksums over
/// typed arrays route through here so the reinterpretation stays inside the
/// reviewed raw-memory surface.
template <typename T>
inline std::span<const std::uint8_t> bytes_of(std::span<const T> s) {
  static_assert(std::is_trivially_copyable_v<T>);
  return {reinterpret_cast<const std::uint8_t*>(s.data()),
          s.size() * sizeof(T)};
}

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void f32(float v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }

  void bytes(std::span<const std::uint8_t> s) { raw(s.data(), s.size()); }

  void floats(std::span<const float> s) {
    raw(s.data(), s.size() * sizeof(float));
  }

  void doubles(std::span<const double> s) {
    raw(s.data(), s.size() * sizeof(double));
  }

  void u16s(std::span<const std::uint16_t> s) {
    raw(s.data(), s.size() * sizeof(std::uint16_t));
  }

  std::size_t size() const { return buf_.size(); }
  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  void raw(const void* p, std::size_t n) {
    static_assert(std::endian::native == std::endian::little,
                  "serialization assumes a little-endian host");
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> s) : s_(s) {}

  std::uint8_t u8() { return read<std::uint8_t>(); }
  std::uint16_t u16() { return read<std::uint16_t>(); }
  std::uint32_t u32() { return read<std::uint32_t>(); }
  std::uint64_t u64() { return read<std::uint64_t>(); }
  float f32() { return read<float>(); }
  double f64() { return read<double>(); }

  std::span<const std::uint8_t> bytes(std::size_t n) {
    require(n);
    auto out = s_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::vector<float> floats(std::size_t n) { return array<float>(n); }

  std::vector<double> doubles(std::size_t n) { return array<double>(n); }

  std::vector<std::uint16_t> u16s(std::size_t n) {
    return array<std::uint16_t>(n);
  }

  std::size_t remaining() const { return s_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool done() const { return pos_ == s_.size(); }

 private:
  template <typename T>
  T read() {
    require(sizeof(T));
    T v;
    std::memcpy(&v, s_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  /// Bulk element read with an overflow-safe length check: the element
  /// count is validated against the remaining bytes *by division*, so a
  /// forged count near 2^64 cannot wrap `n * sizeof(T)` into a small
  /// number and slip past the bounds check.
  template <typename T>
  std::vector<T> array(std::size_t n) {
    WAVESZ_REQUIRE(n <= remaining() / sizeof(T),
                   "container truncated: claimed " + std::to_string(n) +
                       " elements at offset " + std::to_string(pos_) +
                       " but only " + std::to_string(remaining()) +
                       " bytes remain");
    std::vector<T> out(n);
    // memcpy needs valid pointers even for n == 0, and an empty vector's or
    // an empty input's data() is null.
    if (n > 0) std::memcpy(out.data(), s_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return out;
  }

  /// Overflow-safe: compares `n` against the remaining byte count instead
  /// of forming `pos_ + n`, which a huge claimed length could wrap.
  void require(std::size_t n) const {
    WAVESZ_REQUIRE(n <= s_.size() - pos_,
                   "container truncated: need " + std::to_string(n) +
                       " bytes at offset " + std::to_string(pos_) +
                       " but only " + std::to_string(s_.size() - pos_) +
                       " remain");
  }

  std::span<const std::uint8_t> s_;
  std::size_t pos_ = 0;
};

}  // namespace wavesz
