// Failure-injection tests: randomly mutated / truncated containers must
// either raise wavesz::Error or decode to a well-formed field — never crash,
// hang, or read out of bounds. The decoders are the attack surface of any
// archive format; these sweeps hammer every variant's parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <vector>

#include "core/wavesz.hpp"
#include "data/synthetic.hpp"
#include "deflate/deflate.hpp"
#include "deflate_oracle.hpp"
#include "ghostsz/ghostsz.hpp"
#include "huffman_oracle.hpp"
#include "sz/compressor.hpp"
#include "sz/huffman_codec.hpp"
#include "sz2/sz2.hpp"
#include "util/error.hpp"

namespace wavesz {
namespace {

std::vector<float> small_field(const Dims& dims) {
  data::FieldRecipe r;
  r.seed = 99;
  return data::generate(r, dims);
}

/// Apply `decode` to a mutated copy; success or wavesz::Error both pass.
template <typename Decode>
void expect_contained(const std::vector<std::uint8_t>& bytes,
                      Decode&& decode, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (int trial = 0; trial < 120; ++trial) {
    auto mutated = bytes;
    switch (rng() % 4) {
      case 0:  // flip a random bit
        mutated[rng() % mutated.size()] ^=
            static_cast<std::uint8_t>(1u << (rng() % 8));
        break;
      case 1:  // truncate
        mutated.resize(rng() % mutated.size());
        break;
      case 2: {  // splice a random window with noise
        const std::size_t at = rng() % mutated.size();
        const std::size_t len =
            std::min<std::size_t>(1 + rng() % 16, mutated.size() - at);
        for (std::size_t i = 0; i < len; ++i) {
          mutated[at + i] = static_cast<std::uint8_t>(rng());
        }
        break;
      }
      case 3: {  // duplicate-extend (trailing garbage)
        // Copy first: inserting a range that aliases the destination
        // vector is undefined once the insert reallocates.
        const std::size_t len =
            std::min<std::size_t>(rng() % 32, mutated.size());
        const std::vector<std::uint8_t> head(
            mutated.begin(),
            mutated.begin() + static_cast<std::ptrdiff_t>(len));
        mutated.insert(mutated.end(), head.begin(), head.end());
        break;
      }
    }
    try {
      const auto out = decode(mutated);
      // A surviving decode must at least be shaped like a field.
      EXPECT_FALSE(out.empty());
      for (float v : out) {
        // No signalling garbage: value is a float, any float is fine, but
        // touching each element proves the buffer is fully owned.
        (void)v;
      }
    } catch (const Error&) {
      // expected for most mutations
    }
  }
}

class MutationSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MutationSweep, Sz14DecoderIsContained) {
  const Dims dims = Dims::d2(40, 40);
  const auto c = sz::compress(small_field(dims), dims, sz::Config{});
  expect_contained(c.bytes,
                   [](const auto& b) { return sz::decompress(b); },
                   GetParam());
}

TEST_P(MutationSweep, GhostDecoderIsContained) {
  const Dims dims = Dims::d2(40, 40);
  const auto c = ghost::compress(small_field(dims), dims, sz::Config{});
  expect_contained(c.bytes,
                   [](const auto& b) { return ghost::decompress(b); },
                   GetParam() + 1000);
}

TEST_P(MutationSweep, WaveDecoderIsContained) {
  const Dims dims = Dims::d2(40, 40);
  const auto c =
      wave::compress(small_field(dims), dims, wave::default_config());
  expect_contained(c.bytes,
                   [](const auto& b) { return wave::decompress(b); },
                   GetParam() + 2000);
}

TEST_P(MutationSweep, Sz2DecoderIsContained) {
  const Dims dims = Dims::d2(40, 40);
  sz2::Config cfg;
  const auto c = sz2::compress(small_field(dims), dims, cfg);
  expect_contained(c.bytes,
                   [](const auto& b) { return sz2::decompress(b); },
                   GetParam() + 3000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationSweep,
                         ::testing::Values(1, 2, 3, 4, 5));

// The table-driven decoders (flat Huffman tables + bulk-refill bit readers)
// have their own failure surface — forged table links, zero-padded peeks
// past the end, word-wise copies — so the raw gzip and Huffman-blob
// decoders are fuzzed beside the bit-at-a-time oracles: each mutation must
// raise wavesz::Error in both or decode to the same owned buffer in both,
// never crash or hang.

/// Run the production `decode` and the `oracle` on one input: both reject
/// (the production Error is rethrown) or both give the same output.
template <typename Decode, typename Oracle>
auto same_verdict(Decode&& decode, Oracle&& oracle) {
  bool oracle_ok = false;
  decltype(oracle()) want;
  try {
    want = oracle();
    oracle_ok = true;
  } catch (const Error&) {
  }
  try {
    auto got = decode();
    EXPECT_TRUE(oracle_ok) << "the oracle rejected what the decoder took";
    EXPECT_EQ(got, want);
    return got;
  } catch (const Error&) {
    EXPECT_FALSE(oracle_ok) << "the decoder rejected what the oracle took";
    throw;
  }
}

TEST_P(MutationSweep, GzipDecoderIsContainedOnBothPaths) {
  const Dims dims = Dims::d2(40, 40);
  const auto field = small_field(dims);
  std::vector<std::uint8_t> raw(field.size() * sizeof(float));
  std::memcpy(raw.data(), field.data(), raw.size());
  const auto gz = deflate::gzip_compress(raw, deflate::Level::Best);
  expect_contained(
      gz,
      [](const auto& b) {
        return same_verdict([&] { return deflate::gzip_decompress(b); },
                            [&] { return deflate::oracle::gunzip(b); });
      },
      GetParam() + 5000);
}

TEST_P(MutationSweep, HuffmanBlobDecoderIsContainedOnBothPaths) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::vector<std::uint16_t> codes(4000);
  for (auto& c : codes) {
    c = static_cast<std::uint16_t>(32768 + (rng() % 64) - 32);
  }
  const auto blob = sz::huffman_encode(codes);
  expect_contained(
      blob,
      [](const auto& b) {
        return same_verdict([&] { return sz::huffman_decode(b); },
                            [&] { return oracle::huffman_decode(b); });
      },
      GetParam() + 6000);
}

TEST(Fuzz, TruncatedGzipEveryPrefixLength) {
  // Sweep every prefix of a small member through the decoder and the
  // oracle: each cut must throw (header, body, or trailer check), never
  // hang or overrun.
  std::vector<std::uint8_t> raw(997);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    raw[i] = static_cast<std::uint8_t>(i % 31);
  }
  const auto gz = deflate::gzip_compress(raw, deflate::Level::Best);
  for (std::size_t cut = 0; cut < gz.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(gz.begin(),
                                           gz.begin() +
                                               static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(deflate::gzip_decompress(prefix), Error) << "cut=" << cut;
    EXPECT_THROW(deflate::oracle::gunzip(prefix), Error) << "cut=" << cut;
  }
}

TEST(Fuzz, TruncatedHuffmanBlobEveryPrefixLength) {
  std::vector<std::uint16_t> codes(257);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    codes[i] = static_cast<std::uint16_t>(i % 40);
  }
  const auto blob = sz::huffman_encode(codes);
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(blob.begin(),
                                           blob.begin() +
                                               static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(sz::huffman_decode(prefix), Error) << "cut=" << cut;
    EXPECT_THROW(oracle::huffman_decode(prefix), Error) << "cut=" << cut;
  }
}

TEST(Fuzz, EmptyAndGarbageInputs) {
  const std::vector<std::uint8_t> empty;
  EXPECT_THROW(sz::decompress(empty), Error);
  EXPECT_THROW(wave::decompress(empty), Error);
  EXPECT_THROW(ghost::decompress(empty), Error);
  EXPECT_THROW(sz2::decompress(empty), Error);
  std::vector<std::uint8_t> garbage(1024);
  std::mt19937 rng(7);
  for (auto& b : garbage) b = static_cast<std::uint8_t>(rng());
  EXPECT_THROW(sz::decompress(garbage), Error);
  EXPECT_THROW(wave::decompress(garbage), Error);
  EXPECT_THROW(ghost::decompress(garbage), Error);
  EXPECT_THROW(sz2::decompress(garbage), Error);
  EXPECT_THROW(sz::inspect(garbage), Error);
}

}  // namespace
}  // namespace wavesz
