#include "sz/szx.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <type_traits>

#include "sz/container.hpp"
#include "telemetry/span_names.hpp"
#include "telemetry/telemetry.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace wavesz::sz::detail {
namespace {

constexpr std::uint32_t kSzxTag = 0x42585a53u;  // "SZXB"
constexpr std::uint8_t kTagConst = 0x00;
constexpr std::uint8_t kTagRaw = 0xFF;
/// Widest packed delta: quantized magnitudes are capped at 2^45 (below), so
/// a block's q-span fits 46 bits; anything wider in a stream is forged.
constexpr int kMaxDeltaBits = 52;
/// Quantized values are kept well inside int64 so llrint never overflows
/// and block spans stay packable.
constexpr double kMaxQuantMag = 0x1p45;

/// Double -> T with the out-of-range float cast (UB) replaced by the
/// saturating-to-infinity behaviour every decoder of this format must
/// share. Only reachable from forged streams — encode-side verification
/// never lets an out-of-range value survive quantization.
template <typename T>
T value_from_double(double dv) {
  if constexpr (std::is_same_v<T, float>) {
    constexpr double lim =
        static_cast<double>(std::numeric_limits<float>::max());
    if (dv > lim) return std::numeric_limits<float>::infinity();
    if (dv < -lim) return -std::numeric_limits<float>::infinity();
    return static_cast<float>(dv);  // NaN and in-range fall through
  } else {
    return dv;
  }
}

template <typename T>
void write_value(ByteWriter& w, T v) {
  if constexpr (std::is_same_v<T, float>) {
    w.f32(v);
  } else {
    w.f64(v);
  }
}

template <typename T>
T read_value(ByteReader& r) {
  if constexpr (std::is_same_v<T, float>) {
    return r.f32();
  } else {
    return r.f64();
  }
}

}  // namespace

template <typename T>
Compressed szx_compress_t(std::span<const T> data, const Dims& dims,
                          const Config& cfg) {
  telemetry::Span span_all(telemetry::spans::kSzCompress,
                           telemetry::Histo::CompressNs, telemetry::kSampleHw);
  WAVESZ_REQUIRE(cfg.szx_block_elems > 0, "szx_block_elems must be positive");
  const double bound = field_bound(data, dims, cfg);
  // A NaN-poisoned range (NaN first element in relative mode) surfaces here
  // instead of as llrint UB deep in the block loop; NaN *values* are fine —
  // their blocks demote to the raw fallback.
  WAVESZ_REQUIRE(std::isfinite(bound) && bound > 0.0,
                 "szx requires a positive finite absolute bound "
                 "(NaN-poisoned value range?)");
  const double two_eb = 2.0 * bound;
  const double inv_two_eb = 1.0 / two_eb;

  const std::size_t be = cfg.szx_block_elems;
  const std::size_t n = data.size();
  ByteWriter pw;
  pw.u32(kSzxTag);
  pw.u32(cfg.szx_block_elems);
  pw.u64((n + be - 1) / be);

  std::vector<std::int64_t> q(be);
  std::vector<std::uint8_t> packed;
  std::uint64_t raw_values = 0;
  for (std::size_t at = 0; at < n; at += be) {
    const std::size_t m = std::min(be, n - at);
    bool quantizable = true;
    std::int64_t qmin = 0, qmax = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const double v = static_cast<double>(data[at + i]);
      const double scaled = v * inv_two_eb;
      // The fabs test is false for NaN, so non-finite values (and values
      // whose quantized magnitude would overflow the packer) demote the
      // block without ever reaching llrint.
      if (!(std::fabs(scaled) < kMaxQuantMag)) {
        quantizable = false;
        break;
      }
      const std::int64_t qi = std::llrint(scaled);
      const T dec =
          value_from_double<T>(static_cast<double>(qi) * two_eb);
      if (!(std::fabs(static_cast<double>(dec) - v) <= bound)) {
        quantizable = false;
        break;
      }
      q[i] = qi;
      qmin = i == 0 ? qi : std::min(qmin, qi);
      qmax = i == 0 ? qi : std::max(qmax, qi);
    }
    if (!quantizable) {
      pw.u8(kTagRaw);
      for (std::size_t i = 0; i < m; ++i) write_value(pw, data[at + i]);
      raw_values += m;
      continue;
    }
    if (qmin == qmax) {
      pw.u8(kTagConst);
      pw.u64(static_cast<std::uint64_t>(qmin));
      continue;
    }
    const std::uint64_t span_u = static_cast<std::uint64_t>(qmax) -
                                 static_cast<std::uint64_t>(qmin);
    const int k = static_cast<int>(std::bit_width(span_u));
    pw.u8(static_cast<std::uint8_t>(k));
    pw.u64(static_cast<std::uint64_t>(qmin));
    packed.clear();
    std::uint64_t acc = 0;
    int nbits = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint64_t d = static_cast<std::uint64_t>(q[i]) -
                              static_cast<std::uint64_t>(qmin);
      acc |= d << nbits;  // nbits < 8 and k <= 46: no overflow
      nbits += k;
      while (nbits >= 8) {
        packed.push_back(static_cast<std::uint8_t>(acc & 0xff));
        acc >>= 8;
        nbits -= 8;
      }
    }
    if (nbits > 0) packed.push_back(static_cast<std::uint8_t>(acc & 0xff));
    pw.bytes(packed);
  }

  telemetry::counter_add(telemetry::Counter::QuantUnpredictable, raw_values);
  telemetry::counter_add(telemetry::Counter::QuantPredictable,
                         n - raw_values);
  Compressed out;
  out.header.variant = Variant::SzxFast;
  out.header.dims = dims;
  out.header.mode = cfg.mode;
  out.header.base = cfg.base;
  out.header.eb_requested = cfg.error_bound;
  out.header.eb_absolute = bound;
  out.header.quant_bits = cfg.quant_bits;
  out.header.huffman = false;
  out.header.gzip_level = cfg.gzip_level;
  out.header.aux = 0;
  out.header.dtype = kDtype<T>;
  out.header.point_count = n;
  out.header.unpredictable_count = raw_values;
  out.header.version = 1;

  auto payload = pw.take();
  telemetry::counter_add(telemetry::Counter::CodeBytesIn, n * sizeof(T));
  telemetry::counter_add(telemetry::Counter::CodeBytesOut, payload.size());
  out.code_blob_bytes = payload.size();
  out.unpred_blob_bytes = 0;
  ByteWriter w;
  write_header(w, out.header);
  write_section(w, payload);
  out.bytes = w.take();
  if (!out.bytes.empty()) {
    telemetry::observe(telemetry::Histo::CompressRatioMilli,
                       data.size_bytes() * 1000 / out.bytes.size());
  }
  return out;
}

// No span here: every caller (the sz and wave decompress entries, region
// decode) already holds one, and a nested sz::decompress span would count
// one decode as two calls.
template <typename T>
std::vector<T> szx_decompress_t(std::span<const std::uint8_t> bytes,
                                Dims* dims_out) {
  ByteReader r(bytes);
  const ContainerHeader h = read_header(r);
  WAVESZ_REQUIRE(h.variant == Variant::SzxFast,
                 "container is not an SZx fast stream");
  WAVESZ_REQUIRE(h.version == 1, "SZx containers are index-less (v1)");
  WAVESZ_REQUIRE(h.dtype == kDtype<T>,
                 "container value type mismatch (float32 vs float64)");
  const auto payload = read_section(r);
  ByteReader pr(payload);
  WAVESZ_REQUIRE(pr.u32() == kSzxTag, "bad SZx section tag");
  const std::uint32_t be = pr.u32();
  WAVESZ_REQUIRE(be > 0, "SZx block size must be positive");
  const std::uint64_t nblocks = pr.u64();
  const std::uint64_t n = h.point_count;  // guarded by read_header
  WAVESZ_REQUIRE(nblocks == (n + be - 1) / be,
                 "SZx block count disagrees with header");
  const double two_eb = 2.0 * h.eb_absolute;

  std::vector<T> out;
  out.reserve(n);
  for (std::uint64_t b = 0; b < nblocks; ++b) {
    const auto m = static_cast<std::size_t>(
        std::min<std::uint64_t>(be, n - out.size()));
    const std::uint8_t tag = pr.u8();
    if (tag == kTagRaw) {
      for (std::size_t i = 0; i < m; ++i) out.push_back(read_value<T>(pr));
    } else if (tag == kTagConst) {
      const auto qb = static_cast<std::int64_t>(pr.u64());
      const T dec =
          value_from_double<T>(static_cast<double>(qb) * two_eb);
      out.insert(out.end(), m, dec);
    } else {
      const int k = tag;
      WAVESZ_REQUIRE(k <= kMaxDeltaBits, "SZx delta width out of range");
      const std::uint64_t q_min = pr.u64();
      // m <= 2^32 and k <= 52, so the byte count fits comfortably.
      const auto packed = pr.bytes((static_cast<std::uint64_t>(m) *
                                        static_cast<std::uint64_t>(k) +
                                    7) /
                                   8);
      const std::uint64_t mask = (std::uint64_t{1} << k) - 1;
      std::uint64_t acc = 0;
      int nbits = 0;
      std::size_t p = 0;
      for (std::size_t i = 0; i < m; ++i) {
        while (nbits < k) {
          acc |= static_cast<std::uint64_t>(packed[p++]) << nbits;
          nbits += 8;
        }
        // q_min + delta in uint64 (wraps, never UB) — forged q_min/delta
        // pairs produce a garbage value, not undefined behaviour.
        const auto qv = static_cast<std::int64_t>(q_min + (acc & mask));
        acc >>= k;
        nbits -= k;
        out.push_back(
            value_from_double<T>(static_cast<double>(qv) * two_eb));
      }
    }
  }
  WAVESZ_REQUIRE(pr.remaining() == 0, "trailing bytes in SZx section");
  if (dims_out != nullptr) *dims_out = h.dims;
  return out;
}

template Compressed szx_compress_t<float>(std::span<const float>, const Dims&,
                                          const Config&);
template Compressed szx_compress_t<double>(std::span<const double>,
                                           const Dims&, const Config&);
template std::vector<float> szx_decompress_t<float>(
    std::span<const std::uint8_t>, Dims*);
template std::vector<double> szx_decompress_t<double>(
    std::span<const std::uint8_t>, Dims*);

}  // namespace wavesz::sz::detail
