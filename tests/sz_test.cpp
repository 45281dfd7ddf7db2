// Unit and property tests for the SZ-1.4 reference implementation:
// Algorithm 1 quantization (base-10 and base-2 paths), Lorenzo predictors,
// the customized Huffman codec, truncation coding, and full round trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "data/datasets.hpp"
#include "golden_pin.hpp"
#include "metrics/stats.hpp"
#include "sz/compressor.hpp"
#include "sz/config.hpp"
#include "sz/huffman_codec.hpp"
#include "sz/predictor.hpp"
#include "sz/quantizer.hpp"
#include "sz/unpredictable.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/float_bits.hpp"

namespace wavesz::sz {
namespace {

// ------------------------------------------------------------- quantizer

TEST(Quantizer, AlgorithmOneWorkedExamples) {
  // Hand-checked against Algorithm 1 with p = 1, radius = 32768.
  const LinearQuantizer q(1.0, 16);
  // diff = 0.9 -> code0 = 1 -> q = 0 -> code = radius, d_re = pred.
  auto r = q.quantize(10.0, 10.9);
  EXPECT_EQ(r.code, 32768);
  EXPECT_FLOAT_EQ(r.reconstructed, 10.0f);
  // diff = 2.5 -> code0 = 3 -> q = 1 -> d_re = pred + 2.
  r = q.quantize(10.0, 12.5);
  EXPECT_EQ(r.code, 32769);
  EXPECT_FLOAT_EQ(r.reconstructed, 12.0f);
  // diff = -2.5 -> signed code0 = -3 -> q = -1 -> d_re = pred - 2.
  r = q.quantize(10.0, 7.5);
  EXPECT_EQ(r.code, 32767);
  EXPECT_FLOAT_EQ(r.reconstructed, 8.0f);
}

TEST(Quantizer, CodeZeroReservedForUnpredictable) {
  const LinearQuantizer q(1e-3, 16);
  const auto r = q.quantize(0.0, 1e6);  // way beyond capacity
  EXPECT_EQ(r.code, 0);
}

TEST(Quantizer, ReconstructInvertsQuantize) {
  const LinearQuantizer q(0.01, 16);
  std::mt19937_64 rng(1);
  std::uniform_real_distribution<double> preds(-100.0, 100.0);
  std::uniform_real_distribution<double> diffs(-300.0, 300.0);
  for (int i = 0; i < 10000; ++i) {
    const double pred = preds(rng);
    const double orig = pred + diffs(rng);
    const auto r = q.quantize(pred, orig);
    if (r.code == 0) continue;
    EXPECT_FLOAT_EQ(q.reconstruct(pred, r.code), r.reconstructed);
  }
}

TEST(Quantizer, NanInputIsUnpredictableNotUb) {
  const LinearQuantizer q(1.0, 16);
  const auto r = q.quantize(0.0, std::nan(""));
  EXPECT_EQ(r.code, 0);
}

TEST(Quantizer, RejectsBadConstruction) {
  EXPECT_THROW(LinearQuantizer(0.0, 16), Error);
  EXPECT_THROW(LinearQuantizer(-1.0, 16), Error);
  EXPECT_THROW(LinearQuantizer(1.0, 17), Error);
  EXPECT_THROW(LinearQuantizer(1.0, 1), Error);
}

// Error-bound property over eb decades, quantizer widths, and offsets.
class QuantizerBound
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(QuantizerBound, EveryQuantizedValueRespectsTheBound) {
  const auto [eb, bits] = GetParam();
  const LinearQuantizer q(eb, bits);
  std::mt19937_64 rng(static_cast<std::uint64_t>(bits) * 1000001);
  std::uniform_real_distribution<double> preds(-10.0, 10.0);
  std::uniform_real_distribution<double> mags(-5.0, 5.0);
  int quantized = 0;
  for (int i = 0; i < 20000; ++i) {
    const double pred = preds(rng);
    // Diffs spanning far below eb to far above capacity*eb.
    const double diff = std::copysign(
        eb * std::pow(10.0, mags(rng)), preds(rng));
    const double orig = pred + diff;
    const auto r = q.quantize(pred, orig);
    if (r.code != 0) {
      ++quantized;
      EXPECT_LE(std::fabs(static_cast<double>(r.reconstructed) - orig),
                eb * (1 + 1e-12));
      EXPECT_LT(r.code, q.capacity());
    }
  }
  EXPECT_GT(quantized, 1000);  // the sweep must actually exercise the path
}

INSTANTIATE_TEST_SUITE_P(
    EbDecadesAndWidths, QuantizerBound,
    ::testing::Combine(::testing::Values(1e-1, 1e-3, 1e-5, 0.5, 1.0),
                       ::testing::Values(8, 14, 16)));

/// Algorithm 1 as written: divide by p, reconstruct with a multiply by 2p.
/// The datapath LinearQuantizer's reciprocal multiply must match at a
/// power-of-two p.
struct DividingQuantizer {
  double p;
  std::int64_t capacity = 1 << 16;
  std::int64_t radius = capacity / 2;

  QuantResult quantize(double pred, double orig) const {
    const double diff = orig - pred;
    const double scaled = std::fabs(diff) / p;
    if (!(scaled < static_cast<double>(capacity - 1))) return {};
    const auto code0 = static_cast<std::int64_t>(scaled) + 1;
    const std::int64_t code = (diff >= 0.0 ? code0 : -code0) / 2 + radius;
    if (code <= 0 || code >= capacity) return {};
    const float rec = reconstruct(pred, static_cast<std::uint16_t>(code));
    if (!(std::fabs(static_cast<double>(rec) - orig) <= p)) return {};
    return {static_cast<std::uint16_t>(code), rec};
  }

  float reconstruct(double pred, std::uint16_t code) const {
    return static_cast<float>(pred + static_cast<double>(code - radius) *
                                         (2.0 * p));
  }
};

TEST(Quantizer, PowerOfTwoBoundMatchesDivision) {
  // §3.3: at a power-of-two precision (EbBase::Two) the reciprocal is
  // exact, so the exponent-only datapath is bit-identical to the division
  // datapath.
  for (int e : {-12, -10, -4, 0, 3}) {
    const double p = std::ldexp(1.0, e);
    const LinearQuantizer lin(p, 16);
    const DividingQuantizer div{p};
    std::mt19937_64 rng(static_cast<std::uint64_t>(e + 100));
    std::uniform_real_distribution<double> vals(-1000.0, 1000.0);
    for (int i = 0; i < 5000; ++i) {
      const double pred = vals(rng);
      const double orig = vals(rng);
      const auto a = lin.quantize(pred, orig);
      const auto b = div.quantize(pred, orig);
      EXPECT_EQ(a.code, b.code);
      if (a.code != 0) {
        EXPECT_EQ(a.reconstructed, b.reconstructed);
        EXPECT_EQ(lin.reconstruct(pred, a.code), div.reconstruct(pred, b.code));
      }
    }
  }
}

// ------------------------------------------------------------ predictors

TEST(Predictors, LorenzoExactOnAffineFields) {
  // A 2D Lorenzo predictor reproduces any affine field exactly.
  const auto f = [](double x, double y) { return 3.0 + 2.0 * x - 5.0 * y; };
  for (int x = 1; x < 10; ++x) {
    for (int y = 1; y < 10; ++y) {
      const double pred = lorenzo2d(f(x - 1, y - 1), f(x - 1, y), f(x, y - 1));
      EXPECT_DOUBLE_EQ(pred, f(x, y));
    }
  }
}

TEST(Predictors, Lorenzo3dExactOnAffineFields) {
  const auto f = [](double x, double y, double z) {
    return 1.0 - 2.0 * x + 0.5 * y + 4.0 * z;
  };
  const double pred =
      lorenzo3d(f(0, 0, 0), f(0, 0, 1), f(0, 1, 0), f(1, 0, 0), f(0, 1, 1),
                f(1, 0, 1), f(1, 1, 0));
  EXPECT_DOUBLE_EQ(pred, f(1, 1, 1));
}

TEST(Predictors, Lorenzo3dSignsFollowManhattanParity) {
  // Coefficient of each neighbour is (-1)^(L+1), L = Manhattan distance.
  // Feeding 1 at a single L=2 neighbour must contribute -1.
  EXPECT_DOUBLE_EQ(lorenzo3d(0, 1, 0, 0, 0, 0, 0), -1.0);
  EXPECT_DOUBLE_EQ(lorenzo3d(1, 0, 0, 0, 0, 0, 0), 1.0);   // L = 3
  EXPECT_DOUBLE_EQ(lorenzo3d(0, 0, 0, 0, 1, 0, 0), 1.0);   // L = 1
}

TEST(Predictors, CurveFitOrdersExactOnPolynomials) {
  // Order-1 is exact on linear sequences, order-2 on quadratics.
  const auto lin = [](double t) { return 4.0 + 3.0 * t; };
  EXPECT_DOUBLE_EQ(curvefit_order1(lin(2), lin(1)), lin(3));
  const auto quad = [](double t) { return 1.0 + t + 2.0 * t * t; };
  EXPECT_DOUBLE_EQ(curvefit_order2(quad(3), quad(2), quad(1)), quad(4));
}

TEST(Predictors, BestFitPicksSmallestError) {
  // History 10, 8, 7: order0 -> 10, order1 -> 12, order2 -> 13.
  const auto b = curvefit_best(11.9, 10, 8, 7, 3);
  EXPECT_EQ(b.order, 1);
  EXPECT_DOUBLE_EQ(b.prediction, 12.0);
  // With only one value of history, order 0 is forced.
  const auto b0 = curvefit_best(11.9, 10, 0, 0, 1);
  EXPECT_EQ(b0.order, 0);
}

TEST(Predictors, TwoLayerLorenzoExactOnItsResidualClass) {
  // Residual of the 2-layer stencil is Dx^2 Dy^2 f: any term of degree <= 1
  // in x or in y vanishes (x^2, x*y, y^3), while x^2*y^2 does not.
  const auto f = [](double x, double y) {
    return 2.0 + x * x - 3.0 * x * y + y * y * y;
  };
  for (int x = 2; x < 8; ++x) {
    for (int y = 2; y < 8; ++y) {
      const double pred = lorenzo2d_2layer(
          f(x, y - 1), f(x, y - 2), f(x - 1, y), f(x - 1, y - 1),
          f(x - 1, y - 2), f(x - 2, y), f(x - 2, y - 1), f(x - 2, y - 2));
      EXPECT_NEAR(pred, f(x, y), 1e-9);
    }
  }
  const auto g = [](double x, double y) { return x * x * y * y; };
  const double bad = lorenzo2d_2layer(
      g(5, 4), g(5, 3), g(4, 5), g(4, 4), g(4, 3), g(3, 5), g(3, 4),
      g(3, 3));
  EXPECT_NE(bad, g(5, 5));
  EXPECT_DOUBLE_EQ(lorenzo1d_2layer(7.0, 4.0), 10.0);
}

TEST(SzCompressor, TwoLayerPredictorRoundTripsAndIsRecorded) {
  const Dims dims = Dims::d2(60, 80);
  data::FieldRecipe recipe;
  recipe.seed = 44;
  recipe.base_frequency = 0.5;
  const auto field = data::generate(recipe, dims);
  Config cfg;
  cfg.predictor = PredictorKind::Lorenzo2Layer;
  const auto c = compress(field, dims, cfg);
  EXPECT_EQ(c.header.aux, 1);
  const auto decoded = decompress(c.bytes);
  EXPECT_TRUE(metrics::within_bound(field, decoded, c.header.eb_absolute));
  // The two predictor kinds must produce different streams on curved data.
  Config one;
  EXPECT_NE(c.bytes, compress(field, dims, one).bytes);
}

TEST(SzCompressor, TwoLayerRejectedFor3d) {
  const Dims dims = Dims::d3(4, 4, 4);
  const std::vector<float> field(dims.count(), 1.0f);
  Config cfg;
  cfg.predictor = PredictorKind::Lorenzo2Layer;
  EXPECT_THROW(compress(field, dims, cfg), Error);
}

// ------------------------------------------------------- truncation code

class TruncationBound : public ::testing::TestWithParam<double> {};

TEST_P(TruncationBound, RoundTripWithinBound) {
  const double bound = GetParam();
  std::mt19937_64 rng(42);
  // Unpredictable values sit within a few decades of the bound in practice
  // (they failed quantization at ~1e4 bins); match that regime so the
  // "cheaper than raw floats" property is meaningful.
  std::uniform_real_distribution<float> vals(
      static_cast<float>(-bound * 1e4), static_cast<float>(bound * 1e4));
  std::vector<float> values;
  for (int i = 0; i < 2000; ++i) values.push_back(vals(rng));
  values.push_back(0.0f);
  values.push_back(static_cast<float>(bound) / 2);
  values.push_back(-1e-30f);  // subnormal-adjacent tiny value

  const auto blob = truncation_encode(values, bound);
  const auto decoded = truncation_decode(blob, values.size(), bound);
  ASSERT_EQ(decoded.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_LE(std::fabs(static_cast<double>(values[i]) -
                        static_cast<double>(decoded[i])),
              bound)
        << "value " << values[i];
    // The in-loop writeback helper must agree with the codec exactly.
    EXPECT_EQ(truncation_roundtrip(values[i], bound), decoded[i]);
  }
  // Each value must cost fewer bits than raw float32 storage.
  EXPECT_LT(blob.size(), values.size() * sizeof(float));
}

INSTANTIATE_TEST_SUITE_P(Bounds, TruncationBound,
                         ::testing::Values(1e-1, 1e-3, 1e-6, 1.0, 100.0));

TEST(Truncation, BitsMatchEncodedSize) {
  const double bound = 1e-3;
  const std::vector<float> values{0.0f, 1.5f, -123.456f, 1e-8f};
  std::size_t bits = 0;
  for (float v : values) {
    bits += static_cast<std::size_t>(truncation_bits(v, bound));
  }
  const auto blob = truncation_encode(values, bound);
  EXPECT_EQ(blob.size(), (bits + 7) / 8);
}

TEST(Truncation, NonFiniteRejected) {
  const std::vector<float> bad{std::numeric_limits<float>::infinity()};
  EXPECT_THROW(truncation_encode(bad, 1e-3), Error);
}

// --------------------------------------------------------- Huffman codec

TEST(HuffmanCodec, RoundTripSkewedQuantizationCodes) {
  // Typical SZ output: a huge spike at the radius plus a narrow spread.
  std::mt19937 rng(13);
  std::vector<std::uint16_t> codes;
  for (int i = 0; i < 50000; ++i) {
    const int delta = static_cast<int>(rng() % 100) - 50;
    codes.push_back(
        (rng() % 50 == 0) ? 0
                          : static_cast<std::uint16_t>(32768 + delta / 10));
  }
  const auto blob = huffman_encode(codes);
  EXPECT_EQ(huffman_decode(blob), codes);
  // Entropy coding must beat 16-bit raw storage comfortably here.
  EXPECT_LT(blob.size(), codes.size());
  EXPECT_LT(huffman_mean_bits(codes), 6.0);
}

TEST(HuffmanCodec, EmptyAndSingleSymbolStreams) {
  const std::vector<std::uint16_t> empty;
  EXPECT_EQ(huffman_decode(huffman_encode(empty)), empty);
  const std::vector<std::uint16_t> mono(1000, 42);
  const auto blob = huffman_encode(mono);
  EXPECT_EQ(huffman_decode(blob), mono);
  EXPECT_LT(blob.size(), 200u);
}

TEST(HuffmanCodec, AllSymbolsDistinct) {
  std::vector<std::uint16_t> codes(4096);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    codes[i] = static_cast<std::uint16_t>(i * 16 + 1);
  }
  EXPECT_EQ(huffman_decode(huffman_encode(codes)), codes);
}

TEST(HuffmanCodec, CorruptTableRejected) {
  const std::vector<std::uint16_t> codes{1, 2, 3, 2, 1};
  auto blob = huffman_encode(codes);
  blob[4] = 0xFF;  // clobber the distinct-count / table region
  EXPECT_THROW(huffman_decode(blob), Error);
}

TEST(HuffmanCodec, TruncatedPayloadRejected) {
  const std::vector<std::uint16_t> codes(5000, 7);
  auto blob = huffman_encode(codes);
  blob.resize(blob.size() / 2);
  EXPECT_THROW(huffman_decode(blob), Error);
}

TEST(HuffmanCodec, SymbolCountsMatchPlainLoop) {
  std::mt19937 rng(113);
  std::geometric_distribution<int> gd(0.13);
  // A tiny input under the striped count's cutoff, and an odd length above
  // it so the four-way loop leaves a tail.
  for (std::size_t n : {std::size_t{37}, (std::size_t{1} << 15) + 7}) {
    std::vector<std::uint16_t> codes(n);
    for (auto& c : codes) {
      c = static_cast<std::uint16_t>(32768 + gd(rng) - gd(rng));
    }
    codes[n / 2] = 0;
    codes[n - 1] = 0xffff;
    std::vector<std::uint64_t> ref(65536, 0);
    for (const std::uint16_t c : codes) ++ref[c];
    EXPECT_EQ(count_symbols(codes), ref) << "n=" << n;
  }
}

// ---------------------------------------------------------- golden bytes
//
// Exact size and CRC-32 of the bit-packing encoders' outputs, so any change
// to code assignment or bit packing shows up across commits. Inputs use
// integer arithmetic only (raw mt19937 words, no <random> distributions, no
// libm): no compiler or libm difference can move a pin.

/// Quantization codes random-walking around the radius 32768, with a
/// sprinkle of code 0 (unpredictable).
std::vector<std::uint16_t> golden_codes(std::size_t n) {
  std::mt19937 rng(2020);
  std::vector<std::uint16_t> out(n);
  int offset = 0;
  for (auto& c : out) {
    const std::uint32_t r = rng();
    offset = std::clamp(offset + static_cast<int>(r % 5) - 2, -24, 24);
    c = (r >> 16) % 499 == 0 ? std::uint16_t{0}
                             : static_cast<std::uint16_t>(32768 + offset);
  }
  return out;
}

std::vector<std::uint16_t> golden_text_symbols() {
  const std::string text =
      "the error bound holds for every point of the wavefront; "
      "the Lorenzo predictor feeds the quantizer, the quantizer feeds "
      "Huffman, and Huffman feeds gzip.";
  return {text.begin(), text.end()};
}

/// Uniform 16-bit words: a table of tens of thousands of symbols and codes
/// around 16 bits long.
std::vector<std::uint16_t> golden_noise_symbols(std::size_t n) {
  std::mt19937 rng(1952);
  std::vector<std::uint16_t> out(n);
  for (auto& c : out) c = static_cast<std::uint16_t>(rng() >> 16);
  return out;
}

using golden::expect_pin;
using golden::GoldenPin;

TEST(GoldenBytes, HuffmanEncode) {
  // Inputs of at least 2 x 32768 symbols also run the two-thread chunked
  // packer, which must splice to the same bytes.
  const struct {
    const char* name;
    std::vector<std::uint16_t> codes;
    GoldenPin pin;
  } cases[] = {
      {"codes", golden_codes(96 * 1024), {69822, 0x2e6386c8u}},
      {"text", golden_text_symbols(), {188, 0xc4fd580cu}},
      {"noise", golden_noise_symbols(80000), {292046, 0x21189346u}},
      {"single symbol", std::vector<std::uint16_t>(1000, 32768),
       {148, 0xb55b725fu}},
      {"empty", {}, {20, 0x0fd59b8du}},
  };
  for (const auto& c : cases) {
    for (const int threads : {1, 2}) {
      const auto blob = huffman_encode(c.codes, threads);
      expect_pin(blob, c.pin, std::string(c.name) + " threads=" +
                                  std::to_string(threads));
      EXPECT_EQ(huffman_decode(blob), c.codes) << c.name;
    }
  }
}

TEST(GoldenBytes, HuffmanEncodeIndexed) {
  // The blob equals huffman_encode()'s; the pinned index serialization
  // covers the recorded bit offsets, unpredictable counts and CRCs.
  const auto codes = golden_codes(96 * 1024);
  for (const int threads : {1, 2}) {
    CodeChunkIndex idx;
    const auto blob = huffman_encode_indexed(codes, threads, 4096, idx);
    expect_pin(blob, {69822, 0x2e6386c8u}, "indexed blob");
    ByteWriter w;
    write_code_index(w, idx);
    expect_pin(w.take(), {692, 0x04932cddu}, "indexed table");
    EXPECT_EQ(huffman_decode_indexed(blob, idx, threads), codes);
  }
}

/// Pins of one truncation sweep: the blob, and the value bytes it decodes
/// to. `e_p` is floor(log2(bound)).
struct TruncationSweepPin {
  const char* name;
  bool f64;
  double bound;
  int e_p;
  GoldenPin blob;
  GoldenPin decoded;
};

template <typename T>
void check_truncation_sweep(const TruncationSweepPin& c) {
  using Bits =
      std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;
  constexpr int kMantissa = std::numeric_limits<T>::digits - 1;
  constexpr int kBias = std::numeric_limits<T>::max_exponent - 1;
  constexpr Bits kMantissaMask = (Bits{1} << kMantissa) - 1;
  std::mt19937_64 rng(1954);
  std::vector<T> values;
  const auto push = [&](int biased) {
    const Bits word = static_cast<Bits>(rng());
    const Bits sign = (word & 1) << (8 * sizeof(T) - 1);
    values.push_back(std::bit_cast<T>(
        sign | static_cast<Bits>(biased) << kMantissa |
        ((word >> 1) & kMantissaMask)));
  };
  for (int k = 0; k <= kMantissa + 2; ++k) {
    if (kBias + c.e_p + k < 1) continue;  // below the normal range
    for (int i = 0; i < 16; ++i) push(kBias + c.e_p + k);
  }
  for (int i = 0; i < 16; ++i) push(0);
  const T bound = static_cast<T>(c.bound);  // exact in both widths
  const T under = std::bit_cast<T>(std::bit_cast<Bits>(bound) - 1);
  for (const T v : {bound, -bound, bound / 2, under, T{0}, -T{0}}) {
    values.push_back(v);
  }

  const auto blob = truncation_encode<T>(values, c.bound);
  const auto decoded = truncation_decode<T>(blob, values.size(), c.bound);
  expect_pin(blob, c.blob, std::string(c.name) + " blob");
  expect_pin(golden::value_bytes(decoded), c.decoded,
             std::string(c.name) + " decoded");
  ASSERT_EQ(decoded.size(), values.size()) << c.name;
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<Bits>(truncation_roundtrip(values[i], c.bound)),
              std::bit_cast<Bits>(decoded[i]))
        << c.name << " value " << i;
    EXPECT_LE(std::fabs(static_cast<double>(values[i]) -
                        static_cast<double>(decoded[i])),
              c.bound)
        << c.name << " value " << i;
  }
}

TEST(GoldenBytes, TruncationEncode) {
  // Exact binary fractions in [-2048, 2048) at a power-of-two bound.
  std::mt19937 rng(1953);
  std::vector<float> values(20000);
  for (auto& v : values) {
    v = static_cast<float>(static_cast<std::int32_t>(rng() >> 8) -
                           (1 << 23)) /
        4096.0f;
  }
  expect_pin(truncation_encode(values, 1.0 / 16), {69992, 0x73922c48u},
             "truncation");

  // Sweeps over every kept-bit count k of each width, k > 32 included for
  // float64: 16 values of each biased exponent from the bound's up (k past
  // the mantissa width clamps to it), random mantissas and signs, then 16
  // subnormals, the bound, values under it and both zeros. At the smallest
  // subnormal bound the subnormals keep every bit.
  for (const auto& c : std::vector<TruncationSweepPin>{
           {"f32 0x1.8p-11", false, 0x1.8p-11, -11, {1415, 0xa2c12460u},
            {1752, 0xcd8da0e8u}},
           {"f32 denorm_min", false, 0x1p-149, -149, {305, 0x5f4125cau},
            {280, 0x4d1a3200u}},
           {"f64 0x1.8p-11", true, 0x1.8p-11, -11, {5044, 0xd56ff869u},
            {7216, 0xadc432c4u}},
           {"f64 denorm_min", true, 0x1p-1074, -1074, {569, 0x09571f63u},
            {560, 0x7232512bu}},
       }) {
    if (c.f64) {
      check_truncation_sweep<double>(c);
    } else {
      check_truncation_sweep<float>(c);
    }
  }
}

// ------------------------------------------------------------ compressor

Config abs_config(double eb) {
  Config cfg;
  cfg.error_bound = eb;
  cfg.mode = EbMode::Absolute;
  return cfg;
}

std::vector<float> smooth_grid(const Dims& dims, std::uint64_t seed) {
  data::FieldRecipe r;
  r.seed = seed;
  return data::generate(r, dims);
}

class SzRoundTrip : public ::testing::TestWithParam<std::tuple<int, double>> {
};

TEST_P(SzRoundTrip, BoundHoldsAcrossRanksAndBounds) {
  const auto [rank, eb] = GetParam();
  const Dims dims = rank == 1   ? Dims::d1(5000)
                    : rank == 2 ? Dims::d2(60, 80)
                                : Dims::d3(12, 20, 24);
  const auto field = smooth_grid(dims, static_cast<std::uint64_t>(rank));
  Config cfg;
  cfg.error_bound = eb;
  cfg.mode = EbMode::ValueRangeRelative;
  const auto compressed = compress(field, dims, cfg);
  Dims out_dims;
  const auto decoded = decompress(compressed.bytes, {}, &out_dims);
  EXPECT_EQ(out_dims, dims);
  ASSERT_EQ(decoded.size(), field.size());
  const double abs_bound =
      eb * metrics::value_range(field).span();
  EXPECT_TRUE(metrics::within_bound(field, decoded, abs_bound))
      << "first violation at "
      << metrics::first_violation(field, decoded, abs_bound);
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndBounds, SzRoundTrip,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(1e-2, 1e-3, 1e-4)));

TEST(SzCompressor, SmoothFieldCompressesWell) {
  const Dims dims = Dims::d2(128, 128);
  const auto field = smooth_grid(dims, 77);
  Config cfg;  // default: VR-rel 1e-3, Huffman on
  const auto c = compress(field, dims, cfg);
  const double ratio = metrics::compression_ratio(
      field.size() * sizeof(float), c.bytes.size());
  EXPECT_GT(ratio, 4.0);
  EXPECT_EQ(c.header.point_count, dims.count());
}

TEST(SzCompressor, HuffmanImprovesOverRawCodes) {
  const Dims dims = Dims::d2(96, 96);
  const auto field = smooth_grid(dims, 3);
  Config with = abs_config(1e-3);
  Config without = abs_config(1e-3);
  without.huffman = false;
  const auto a = compress(field, dims, with);
  const auto b = compress(field, dims, without);
  EXPECT_LT(a.bytes.size(), b.bytes.size());
  EXPECT_EQ(decompress(a.bytes), decompress(b.bytes));
}

TEST(SzCompressor, Base2ModeTightensBoundInHeader) {
  const Dims dims = Dims::d2(32, 32);
  const auto field = smooth_grid(dims, 5);
  Config cfg;
  cfg.base = EbBase::Two;
  const auto c = compress(field, dims, cfg);
  EXPECT_TRUE(is_pow2(c.header.eb_absolute));
  EXPECT_LE(c.header.eb_absolute,
            1e-3 * metrics::value_range(field).span());
  const auto decoded = decompress(c.bytes);
  EXPECT_TRUE(metrics::within_bound(field, decoded, c.header.eb_absolute));
}

TEST(SzCompressor, ConstantFieldIsTiny) {
  const Dims dims = Dims::d2(64, 64);
  const std::vector<float> field(dims.count(), 3.25f);
  const auto c = compress(field, dims, Config{});
  EXPECT_LT(c.bytes.size(), 400u);
  const auto decoded = decompress(c.bytes);
  for (float v : decoded) EXPECT_NEAR(v, 3.25f, 1e-3);
}

TEST(SzCompressor, PureNoiseStillBounded) {
  const Dims dims = Dims::d2(50, 50);
  std::vector<float> field(dims.count());
  std::mt19937 rng(21);
  std::uniform_real_distribution<float> d(-1.0f, 1.0f);
  for (auto& v : field) v = d(rng);
  Config cfg;
  cfg.error_bound = 1e-4;  // tight bound on noise: many unpredictables
  const auto c = compress(field, dims, cfg);
  const auto decoded = decompress(c.bytes);
  EXPECT_TRUE(metrics::within_bound(field, decoded, c.header.eb_absolute));
}

TEST(SzCompressor, RejectsMismatchedDims) {
  const std::vector<float> field(100, 1.0f);
  EXPECT_THROW(compress(field, Dims::d2(10, 11), Config{}), Error);
  EXPECT_THROW(lorenzo_pqd(field, Dims::d1(99), LinearQuantizer(1.0, 16)),
               Error);
}

TEST(SzCompressor, CorruptContainersFailLoudly) {
  const Dims dims = Dims::d2(40, 40);
  const auto field = smooth_grid(dims, 9);
  auto c = compress(field, dims, Config{});
  // Truncation.
  std::vector<std::uint8_t> cut(c.bytes.begin(),
                                c.bytes.begin() + c.bytes.size() / 3);
  EXPECT_THROW(decompress(cut), Error);
  // Magic corruption.
  auto bad = c.bytes;
  bad[0] ^= 0xFF;
  EXPECT_THROW(decompress(bad), Error);
  // Payload corruption trips the gzip CRC.
  auto payload = c.bytes;
  payload[payload.size() / 2] ^= 0x10;
  EXPECT_THROW(decompress(payload), Error);
}

TEST(SzCompressor, PqdMatchesStraightforwardReference) {
  // Pin the (branch-optimized) production PQD loop against a deliberately
  // naive re-implementation. This is the regression net for stride bugs in
  // the interior fast path: a wrong-but-bounded predictor passes every
  // error-bound test while silently gutting the compression ratio.
  for (const Dims& dims : {Dims::d2(37, 53), Dims::d3(9, 13, 17)}) {
    data::FieldRecipe recipe;
    recipe.seed = dims.count();
    const auto field = data::generate(recipe, dims);
    const LinearQuantizer q(0.004, 16);
    const auto pqd = lorenzo_pqd(field, dims, q);

    const std::size_t n0 = dims[0];
    const std::size_t n1 = dims.rank >= 2 ? dims[1] : 1;
    const std::size_t n2 = dims.rank >= 3 ? dims[2] : 1;
    std::vector<float> rec(field.size());
    auto at = [&](std::ptrdiff_t a, std::ptrdiff_t b, std::ptrdiff_t c) {
      if (a < 0 || b < 0 || c < 0) return 0.0;
      return static_cast<double>(
          rec[(static_cast<std::size_t>(a) * n1 +
               static_cast<std::size_t>(b)) *
                  n2 +
              static_cast<std::size_t>(c)]);
    };
    std::size_t i = 0;
    for (std::ptrdiff_t a = 0; a < static_cast<std::ptrdiff_t>(n0); ++a) {
      for (std::ptrdiff_t b = 0; b < static_cast<std::ptrdiff_t>(n1); ++b) {
        for (std::ptrdiff_t c = 0; c < static_cast<std::ptrdiff_t>(n2);
             ++c, ++i) {
          double pred;
          if (dims.rank == 2) {
            pred = lorenzo2d(at(a - 1, b - 1, 0), at(a - 1, b, 0),
                             at(a, b - 1, 0));
          } else {
            pred = lorenzo3d(at(a - 1, b - 1, c - 1), at(a - 1, b - 1, c),
                             at(a - 1, b, c - 1), at(a, b - 1, c - 1),
                             at(a - 1, b, c), at(a, b - 1, c),
                             at(a, b, c - 1));
          }
          const auto r = q.quantize(pred, field[i]);
          ASSERT_EQ(pqd.codes[i], r.code)
              << dims.str() << " at flat index " << i;
          rec[i] = r.code != 0
                       ? r.reconstructed
                       : truncation_roundtrip(field[i], q.precision());
        }
      }
    }
  }
}

TEST(SzCompressor, PqdHistoryIsDecoderVisible) {
  // The reconstructed field produced during compression must equal the
  // decompressor's output exactly — the closure property that makes the
  // error bound verifiable.
  const Dims dims = Dims::d2(64, 48);
  const auto field = smooth_grid(dims, 31);
  const LinearQuantizer q(0.01, 16);
  const auto pqd = lorenzo_pqd(field, dims, q);
  std::vector<float> unpred_decoder_visible;
  for (float v : pqd.unpredictable) {
    unpred_decoder_visible.push_back(truncation_roundtrip(v, q.precision()));
  }
  const auto rec =
      lorenzo_reconstruct(pqd.codes, unpred_decoder_visible, dims, q);
  EXPECT_EQ(rec, pqd.reconstructed);
}

TEST(SzCompressor, ParallelCodecProducesIdenticalValues) {
  // codec_threads != 1 changes the gzip chunking, never the decoded data.
  const Dims dims = Dims::d2(64, 96);
  const auto field = smooth_grid(dims, 33);
  Config parallel_cfg;
  parallel_cfg.codec_threads = 4;
  parallel_cfg.deflate_chunk_bytes = 1024;
  const auto par = compress(field, dims, parallel_cfg);
  const auto ser = compress(field, dims, Config{});
  EXPECT_EQ(decompress(par.bytes), decompress(ser.bytes));
}

}  // namespace
}  // namespace wavesz::sz
