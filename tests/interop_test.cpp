// Interoperability of the from-scratch gzip implementation with the system
// gzip(1): our members must gunzip cleanly, and system-gzip members must
// inflate through our decoder. This pins the DEFLATE substrate to the real
// RFC 1951/1952, not merely to itself. Skipped when gzip(1) is absent.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include <unistd.h>

#include "data/io.hpp"
#include "deflate/deflate.hpp"
#include "deflate/parallel.hpp"
#include "deflate_vectors.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace wavesz::deflate {
namespace {

namespace fs = std::filesystem;

bool have_gzip() { return std::system("gzip --version > /dev/null 2>&1") == 0; }

fs::path tmp(const std::string& name) {
  // ctest runs each case as its own process, several at once; the process
  // id keeps their files apart.
  return fs::temp_directory_path() /
         ("wavesz_interop_" + std::to_string(::getpid()) + "_" + name);
}

std::vector<std::uint8_t> sample_payload(int flavour, std::size_t size) {
  std::vector<std::uint8_t> data(size);
  std::mt19937 rng(static_cast<unsigned>(flavour * 7 + 1));
  switch (flavour) {
    case 0:
      for (auto& b : data) b = static_cast<std::uint8_t>(rng());
      break;
    case 1:
      for (std::size_t i = 0; i < size; ++i) {
        data[i] = static_cast<std::uint8_t>("scientific data "[i % 16]);
      }
      break;
    default:
      for (std::size_t i = 0; i < size; ++i) {
        data[i] = static_cast<std::uint8_t>((i / 300) % 11 + (rng() % 2));
      }
  }
  return data;
}

class GzipInterop : public ::testing::TestWithParam<std::tuple<int, Level>> {
 protected:
  void SetUp() override {
    if (!have_gzip()) GTEST_SKIP() << "gzip(1) not available";
  }
};

TEST_P(GzipInterop, SystemGunzipReadsOurMembers) {
  const auto [flavour, level] = GetParam();
  const auto payload = sample_payload(flavour, 100'000);
  const auto member = gzip_compress(payload, level);
  const auto gz = tmp("ours.gz");
  const auto out = tmp("ours.out");
  data::write_bytes(gz, member);
  const std::string cmd = "gunzip -c '" + gz.string() + "' > '" +
                          out.string() + "' 2>/dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  EXPECT_EQ(data::read_bytes(out), payload);
  fs::remove(gz);
  fs::remove(out);
}

TEST_P(GzipInterop, WeReadSystemGzipMembers) {
  const auto [flavour, level] = GetParam();
  const auto payload = sample_payload(flavour, 100'000);
  const auto raw = tmp("sys.raw");
  const auto gz = tmp("sys.raw.gz");
  data::write_bytes(raw, payload);
  const std::string cmd =
      std::string("gzip -c ") + (level == Level::Best ? "-9" : "-1") +
      " -n < '" + raw.string() + "' > '" + gz.string() + "'";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  const auto member = data::read_bytes(gz);
  EXPECT_EQ(gzip_decompress(member), payload);
  fs::remove(raw);
  fs::remove(gz);
}

INSTANTIATE_TEST_SUITE_P(
    PayloadsAndLevels, GzipInterop,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(Level::Fast, Level::Best)));

TEST(GzipInterop, SystemGunzipReadsCodeSections) {
  // G* code sections, matched in whole codes: one stream, and sync-flushed
  // chunks of an odd requested size (written at the next even one).
  if (!have_gzip()) GTEST_SKIP();
  std::mt19937 rng(25);
  std::vector<std::uint16_t> walk(60000);
  int offset = 0;
  for (auto& c : walk) {
    offset = std::clamp(offset + static_cast<int>(rng() % 5) - 2, -24, 24);
    c = static_cast<std::uint16_t>(32768 + offset);
  }
  ParallelOptions forced{4097, 1};
  forced.force_chunking = true;
  const auto gz = tmp("codes.gz");
  const auto out = tmp("codes.out");
  for (const auto& codes :
       {walk, std::vector<std::uint16_t>(30000, 32768),
        std::vector<std::uint16_t>{}}) {
    const auto image = bytes_of(std::span<const std::uint16_t>(codes));
    for (const ParallelOptions& opts :
         {ParallelOptions{kDefaultChunkBytes, 1}, ParallelOptions{4097, 2},
          forced}) {
      data::write_bytes(gz, gzip_compress_codes(codes, Level::Fast, opts));
      const std::string cmd = "gunzip -c '" + gz.string() + "' > '" +
                              out.string() + "' 2>/dev/null";
      ASSERT_EQ(std::system(cmd.c_str()), 0) << codes.size() << " codes";
      EXPECT_EQ(data::read_bytes(out),
                std::vector<std::uint8_t>(image.begin(), image.end()))
          << codes.size() << " codes, chunk " << opts.chunk_bytes;
    }
  }
  fs::remove(gz);
  fs::remove(out);
}

TEST(GzipInterop, SystemGunzipReadsProbedMembers) {
  // H* sections: chunks on runs and chunks on the hash chains, as one
  // stream and as sync-flushed chunks on a team.
  if (!have_gzip()) GTEST_SKIP();
  std::vector<std::uint8_t> mixed = sample_payload(0, 40000);
  const auto text = sample_payload(1, 40000);
  mixed.insert(mixed.end(), text.begin(), text.end());
  const auto steps = sample_payload(2, 40000);
  mixed.insert(mixed.end(), steps.begin(), steps.end());
  const auto gz = tmp("probed.gz");
  const auto out = tmp("probed.out");
  for (const auto& payload : {mixed, std::vector<std::uint8_t>{}}) {
    for (const ParallelOptions& opts :
         {ParallelOptions{kDefaultChunkBytes, 1}, ParallelOptions{16384, 2}}) {
      data::write_bytes(gz, gzip_compress_probed(payload, opts));
      const std::string cmd = "gunzip -c '" + gz.string() + "' > '" +
                              out.string() + "' 2>/dev/null";
      ASSERT_EQ(std::system(cmd.c_str()), 0) << payload.size() << " bytes";
      EXPECT_EQ(data::read_bytes(out), payload)
          << payload.size() << " bytes, chunk " << opts.chunk_bytes;
    }
  }
  fs::remove(gz);
  fs::remove(out);
}

TEST(GzipInterop, SystemGunzipGivesOurVerdictsOnCodeLengthSets) {
  // deflate_vectors.hpp's admission vectors as gzip members: a literal-only
  // block with an empty distance code and a lit/len code of one 1-bit code
  // decode; a match under the empty code, over-subscribed and incomplete
  // lit/len sets and over-subscribed and incomplete code-length codes are
  // rejected. Each trailer holds the bytes an unchecked decoder gave.
  if (!have_gzip()) GTEST_SKIP();
  std::vector<std::uint8_t> literals(3000);
  std::mt19937 rng(3);
  for (auto& b : literals) b = static_cast<std::uint8_t>(rng() % 255);
  const std::string text = vectors::kOversubscribedClcText;
  const std::string incomplete_text = vectors::kIncompleteClcText;
  const struct {
    const char* name;
    std::vector<std::uint8_t> block;
    std::vector<std::uint8_t> plain;
    bool accepted;
  } cases[] = {
      {"literal-only", vectors::literal_only_block(literals), literals, true},
      {"match without distance code", vectors::match_without_distance_code(),
       vectors::match_without_distance_code_plain(), false},
      {"over-subscribed lit/len", vectors::oversubscribed_litlen_block(),
       vectors::oversubscribed_litlen_plain(), false},
      {"over-subscribed code-length code",
       vectors::oversubscribed_clc_block(),
       std::vector<std::uint8_t>(text.begin(), text.end()), false},
      {"lone 1-bit lit/len code", vectors::lone_end_of_block_block(), {},
       true},
      {"incomplete lit/len", vectors::incomplete_litlen_block(),
       vectors::incomplete_litlen_plain(), false},
      {"incomplete code-length code", vectors::incomplete_clc_block(),
       std::vector<std::uint8_t>(incomplete_text.begin(),
                                 incomplete_text.end()),
       false},
  };
  const auto gz = tmp("verdict.gz");
  const auto out = tmp("verdict.out");
  for (const auto& c : cases) {
    const auto member = vectors::gzip_member(c.block, c.plain);
    bool ours = false;
    try {
      ours = gzip_decompress(member) == c.plain;
    } catch (const Error&) {
    }
    data::write_bytes(gz, member);
    const std::string cmd = "gunzip -c '" + gz.string() + "' > '" +
                            out.string() + "' 2>/dev/null";
    const bool system = std::system(cmd.c_str()) == 0 &&
                        data::read_bytes(out) == c.plain;
    EXPECT_EQ(ours, c.accepted) << c.name;
    EXPECT_EQ(system, c.accepted) << c.name;
  }
  fs::remove(gz);
  fs::remove(out);
}

TEST(GzipInterop, SystemGunzipRejectsReservedFixedSymbols) {
  // deflate_vectors.hpp's fixed-code blocks that send length symbol 286 or
  // 287 or distance code 30 or 31, as gzip members whose trailers hold the
  // literals before the reserved symbol.
  if (!have_gzip()) GTEST_SKIP();
  const std::string prefix = vectors::kReservedFixedPrefix;
  const std::vector<std::uint8_t> plain(prefix.begin(), prefix.end());
  const auto gz = tmp("reserved.gz");
  const auto out = tmp("reserved.out");
  for (const auto& [length_symbol, dist_code] :
       vectors::kReservedFixedSymbols) {
    const auto member = vectors::gzip_member(
        vectors::reserved_fixed_symbol_block(length_symbol, dist_code), plain);
    EXPECT_THROW(gzip_decompress(member), Error) << length_symbol;
    data::write_bytes(gz, member);
    const std::string cmd = "gunzip -c '" + gz.string() + "' > '" +
                            out.string() + "' 2>/dev/null";
    EXPECT_NE(std::system(cmd.c_str()), 0)
        << "length symbol " << length_symbol << ", distance code "
        << dist_code;
  }
  fs::remove(gz);
  fs::remove(out);
}

TEST(GzipInterop, EmptyMemberBothWays) {
  if (!have_gzip()) GTEST_SKIP();
  const auto gz = tmp("empty.gz");
  const auto out = tmp("empty.out");
  data::write_bytes(gz, gzip_compress({}, Level::Fast));
  ASSERT_EQ(std::system(("gunzip -c '" + gz.string() + "' > '" +
                         out.string() + "'")
                            .c_str()),
            0);
  EXPECT_TRUE(data::read_bytes(out).empty());
  ASSERT_EQ(std::system(("printf '' | gzip -c -n > '" + gz.string() + "'")
                            .c_str()),
            0);
  EXPECT_TRUE(gzip_decompress(data::read_bytes(gz)).empty());
  fs::remove(gz);
  fs::remove(out);
}

}  // namespace
}  // namespace wavesz::deflate
