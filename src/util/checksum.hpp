// CRC-32 (ISO 3309 / RFC 1952 polynomial 0xEDB88320).
//
// Used by the gzip framing layer and by container integrity checks. An
// update of 64 bytes or more first folds its whole 16-byte blocks with
// carry-less multiplies (simd::crc32_fold, at SSE2 and above on CPUs with
// PCLMULQDQ). The rest, and every update at WAVESZ_SIMD=scalar, folds eight
// bytes per iteration through eight derived tables (slice-by-8), then one
// byte at a time through the classic table. Both carry the same register,
// so streaming updates of any split produce the same value as one shot.
#pragma once

#include <cstdint>
#include <span>

namespace wavesz {

class Crc32 {
 public:
  /// Feed a chunk; can be called repeatedly for streaming updates.
  void update(std::span<const std::uint8_t> data);

  /// Finalized CRC value of everything fed so far.
  std::uint32_t value() const { return state_ ^ 0xffffffffu; }

  static std::uint32_t of(std::span<const std::uint8_t> data) {
    Crc32 c;
    c.update(data);
    return c.value();
  }

  /// Continue a streaming CRC from a previously finalized value(): feeding
  /// the remainder of a message to the resumed instance yields the same
  /// digest as one shot over the whole message. This is what lets chunked
  /// container decoders verify a running CRC per chunk without rehashing
  /// the prefix each time.
  static Crc32 resume(std::uint32_t finalized) {
    Crc32 c;
    c.state_ = finalized ^ 0xffffffffu;
    return c;
  }

 private:
  std::uint32_t state_ = 0xffffffffu;
};

}  // namespace wavesz
