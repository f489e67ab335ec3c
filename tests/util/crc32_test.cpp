#include "util/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/rng.h"

namespace gw::util {
namespace {

// Bit-at-a-time CRC-32, straight from the definition: the oracle the
// table-driven crc32 must agree with.
std::uint32_t reference_crc32(std::span<const std::uint8_t> data,
                              std::uint32_t seed = 0) {
  std::uint32_t crc = ~seed;
  for (const std::uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0xedb88320u : crc >> 1;
    }
  }
  return ~crc;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<std::uint8_t> bytes(n);
  for (std::uint8_t& byte : bytes) byte = std::uint8_t(rng.next_u64());
  return bytes;
}

TEST(Crc32, KnownVectors) {
  // Standard IEEE CRC-32 check value.
  EXPECT_EQ(crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(crc32(""), 0x00000000u);
  EXPECT_EQ(crc32("a"), 0xe8b7be43u);
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::string packet(256, 'p');
  const std::uint32_t original = crc32(packet);
  for (std::size_t byte : {0u, 100u, 255u}) {
    std::string corrupted = packet;
    corrupted[byte] ^= 0x40;
    EXPECT_NE(crc32(corrupted), original) << "byte " << byte;
  }
}

TEST(Crc32, SeedChaining) {
  // Chaining the first half's CRC as the seed of the second is the CRC of
  // the whole; it differs from the unseeded CRC of the second half alone.
  const std::string a = "first-half";
  const std::string b = "second-half";
  const std::uint32_t chained = crc32(b, crc32(a));
  EXPECT_EQ(chained, crc32(a + b));
  EXPECT_NE(chained, crc32(b));
}

// Every length from empty to 300 bytes, from every start alignment of a
// 16-byte block, with and without a seed, on the dispatched and the
// portable path. That covers the eight-byte slicing step and its tail, and
// on a host with carry-less multiply the 64-byte fold loop (from 128
// bytes), the 16-byte loop and the table tail after them.
TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  const std::vector<std::uint8_t> buffer = random_bytes(300 + 16, 1);
  const std::span<const std::uint8_t> all(buffer);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t length = 0; length <= 300; ++length) {
      const auto data = all.subspan(offset, length);
      const std::uint32_t expected = reference_crc32(data);
      const std::uint32_t expected_seeded = reference_crc32(data, 0x9e3779b9u);
      EXPECT_EQ(crc32(data), expected)
          << "offset " << offset << " length " << length;
      EXPECT_EQ(crc32(data, 0x9e3779b9u), expected_seeded)
          << "seeded, offset " << offset << " length " << length;
      EXPECT_EQ(crc32_portable(data), expected)
          << "portable, offset " << offset << " length " << length;
      EXPECT_EQ(crc32_portable(data, 0x9e3779b9u), expected_seeded)
          << "portable seeded, offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32, MatchesBitwiseReferenceOnOneMebibyte) {
  const std::vector<std::uint8_t> buffer = random_bytes(1 << 20, 2);
  EXPECT_EQ(crc32(buffer), reference_crc32(buffer));
  EXPECT_EQ(crc32(buffer, 0xdeadbeefu), reference_crc32(buffer, 0xdeadbeefu));
  EXPECT_EQ(crc32_portable(buffer), reference_crc32(buffer));
}

TEST(Crc32, CombineEqualsCrcOfConcatenation) {
  const std::vector<std::uint8_t> buffer = random_bytes(4096 + 300, 3);
  const std::span<const std::uint8_t> all(buffer);
  Rng rng{4};
  std::vector<std::size_t> splits = {0, all.size()};  // empty a, empty b
  for (int i = 0; i < 64; ++i) {
    splits.push_back(std::size_t(rng.uniform_index(all.size() + 1)));
  }
  for (const std::size_t split : splits) {
    const auto a = all.first(split);
    const auto b = all.subspan(split);
    EXPECT_EQ(crc32_combine(crc32(a), crc32(b), b.size()), crc32(all))
        << "split at " << split;
  }
}

}  // namespace
}  // namespace gw::util
